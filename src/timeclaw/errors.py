"""Exception hierarchy shared across the engine."""


class TimeclawError(Exception):
    """Base class for all engine errors."""


class ContractError(TimeclawError):
    """A caller violated a documented precondition."""


class CapabilityError(TimeclawError):
    """An operation was attempted without the capability it requires."""


class GroundTruthSealedError(CapabilityError):
    """Ground truth was read without the exploration-evaluator capability."""


class GatewayError(TimeclawError):
    """Transport-level failure talking to a model backend."""


class ScriptMissError(GatewayError):
    """The scripted mock has no reply for the requested exchange digest.

    This is a test-configuration error: a prompt changed without the replay
    script being regenerated.
    """

    def __init__(self, digest: str, hint: str = ""):
        self.digest = digest
        msg = f"no scripted reply for exchange digest {digest}"
        if hint:
            msg += f" ({hint})"
        super().__init__(msg)


class ToolCallParseError(GatewayError):
    """The model emitted a tool call whose arguments are not valid JSON."""


class CorpusError(TimeclawError):
    """A corpus file could not be loaded or fails its role contract."""


class ReplayError(TimeclawError):
    """A trace cannot be replayed (version mismatch, truncated file, ...)."""


class LogError(TimeclawError):
    """A record of an append-only store log is bad and is not its torn tail."""
