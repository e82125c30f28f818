"""Tool descriptors, per-scope usage bookkeeping, task-aware dropout, and
collapse diagnostics.

The dropout rule anchors keep probabilities at the least-explored competing
tool: keep(i) = ((1 + n_min) / (1 + n_i)) ** alpha, with protected tools
bypassing dropout entirely. The registry keeps no counts: each caller hands
dropout a scope's counts. A run's counts are its store's, rebuilt from the
notes into a :class:`ToolUsageLedger`, so a run without a store counts
nothing. A run's one catalog is its :class:`~timeclaw.toolkit.Toolkit`: a
:class:`ToolRegistry` that also runs the tools.
"""

from __future__ import annotations

import enum
import fnmatch
import math
import threading
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Optional, Sequence

from .errors import ContractError
from .util import stable_rng


class ToolCategory(str, enum.Enum):
    FORECASTING = "forecasting"
    ANALYSIS = "analysis"
    TEXT = "text"
    EXPLORATION_ONLY = "exploration_only"


SUBSTANTIVE_CATEGORIES = frozenset(
    {ToolCategory.FORECASTING, ToolCategory.ANALYSIS, ToolCategory.TEXT}
)


BOUNDS = ("minimum", "exclusiveMinimum", "maximum", "enum")


@dataclass(frozen=True)
class ArgSpec:
    """One argument of a tool. ``default`` and the bounds are the JSON
    Schema keywords of those names; a tool's schema declares each one set."""

    type: str  # number | integer | string | boolean | array | object
    required: bool = False
    default: Any = None
    description: str = ""
    minimum: Optional[float] = None
    exclusiveMinimum: Optional[float] = None  # noqa: N815, the JSON Schema keyword
    maximum: Optional[float] = None
    enum: Optional[tuple[Any, ...]] = None

    def keywords(self, names: Sequence[str] = ("default", *BOUNDS)) -> dict[str, Any]:
        """Those of the keywords ``names`` that the argument sets."""
        return {k: getattr(self, k) for k in names if getattr(self, k) is not None}

    def admits(self, value: Any) -> bool:
        """Whether a value of the argument's type is in its bounds. Each bound
        is a comparison that NaN fails."""
        return (
            (self.minimum is None or value >= self.minimum)
            and (self.exclusiveMinimum is None or value > self.exclusiveMinimum)
            and (self.maximum is None or value <= self.maximum)
            and (self.enum is None or value in self.enum)
        )


@dataclass(frozen=True)
class ToolDescriptor:
    tool_id: str
    category: ToolCategory
    arg_schema: Mapping[str, ArgSpec] = field(default_factory=dict)
    protected_in: tuple[str, ...] = ()  # scope globs where never_drop applies
    description: str = ""

    @property
    def substantive(self) -> bool:
        return self.category in SUBSTANTIVE_CATEGORIES

    def protected_for(self, scope: str) -> bool:
        return any(fnmatch.fnmatchcase(scope, pat) for pat in self.protected_in)


def keep_probability(n_i: int, n_min: int, alpha: float, protected: bool = False) -> float:
    """Frequency-anchored keep probability for exploration-time dropout."""
    if alpha <= 0:
        raise ContractError("alpha must be positive")
    if protected:
        return 1.0
    if n_i < 0 or n_min < 0:
        raise ContractError("usage counts must be non-negative")
    if n_min > n_i:
        raise ContractError("n_min must not exceed n_i over the same competing set")
    return ((1.0 + n_min) / (1.0 + n_i)) ** alpha


class ToolUsageLedger:
    """Per-scope tool invocation counts and the usage entropy after each
    update, so collapse can be audited over time.

    Counts only increase. The ledger writes nothing: a store's notes list
    each episode's counted tools, and opening the store replays them through
    :meth:`record` (see :class:`~timeclaw.store.ExperienceStore`).
    """

    def __init__(self) -> None:
        self._counts: dict[str, dict[str, int]] = {}
        self._history: dict[str, list[float]] = {}
        self._lock = threading.Lock()

    def counts(self, scope: str) -> dict[str, int]:
        return dict(self._counts.get(scope, {}))

    def record(self, scope: str, tool_ids: Iterable[str]) -> None:
        tools = list(tool_ids)
        if not tools:
            return
        with self._lock:
            bucket = self._counts.setdefault(scope, {})
            for tool_id in tools:
                bucket[tool_id] = bucket.get(tool_id, 0) + 1
            self._history.setdefault(scope, []).append(self._entropy_locked(scope))

    def entropy(self, scope: str) -> Optional[float]:
        """Natural-log Shannon entropy of the usage distribution; None when
        the scope has no recorded usage."""
        with self._lock:
            if not self._counts.get(scope):
                return None
            return self._entropy_locked(scope)

    def _entropy_locked(self, scope: str) -> float:
        counts = [c for c in self._counts[scope].values() if c > 0]
        total = sum(counts)
        if total == 0:
            return 0.0
        h = 0.0
        for c in counts:
            p = c / total
            h -= p * math.log(p)
        return h

    def top_k_share(self, scope: str, k: int) -> Optional[float]:
        if k < 1:
            raise ContractError("k must be positive")
        counts = sorted(self._counts.get(scope, {}).values(), reverse=True)
        total = sum(counts)
        if total == 0:
            return None
        return sum(counts[:k]) / total

    def entropy_history(self, scope: str) -> list[float]:
        return list(self._history.get(scope, []))


# Non-protected survivors below this floor are force-included (lowest counts
# first) so branch exploration always has at least two competitors.
MIN_SURVIVING_COMPETITORS = 2


class ToolRegistry:
    """Descriptor catalog and the dropout over it. It holds no usage counts:
    :meth:`sample_visible_subset` takes the scope's counts from its caller.
    :class:`~timeclaw.toolkit.Toolkit` subclasses it; the collapse
    simulation runs a bare one."""

    def __init__(self, descriptors: Iterable[ToolDescriptor]):
        self._tools: dict[str, ToolDescriptor] = {}
        # per scope, the dropout set-up that depends on the descriptors alone:
        # the tools protected there, and the competing sets in category order
        self._dropout: dict[str, tuple[frozenset[str], tuple[tuple[str, ...], ...]]] = {}
        for d in descriptors:
            self.add(d)

    def add(self, descriptor: ToolDescriptor) -> None:
        if descriptor.tool_id in self._tools:
            raise ContractError(f"duplicate tool id {descriptor.tool_id}")
        self._tools[descriptor.tool_id] = descriptor
        self._dropout.clear()

    def descriptor(self, tool_id: str) -> Optional[ToolDescriptor]:
        return self._tools.get(tool_id)

    def inference_visible(self) -> list[str]:
        """Tools exposed at inference, the substantive ones: the
        exploration-only category is removed."""
        return sorted(t for t, d in self._tools.items() if d.substantive)

    def competing_sets(self, scope: str) -> dict[str, list[str]]:
        """Non-protected substantive tools grouped by category; tools only
        compete against tools of their own category."""
        groups: dict[str, list[str]] = {}
        for tool_id in sorted(self._tools):
            d = self._tools[tool_id]
            if not d.substantive or d.protected_for(scope):
                continue
            groups.setdefault(d.category.value, []).append(tool_id)
        return groups

    def sample_visible_subset(
        self,
        counts: Mapping[str, int],
        scope: str,
        slot: int,
        seed: int,
        alpha: float,
        extra_protected: Sequence[str] = (),
    ) -> frozenset[str]:
        """Slot-local visible substantive tool subset for one branch.

        Pure function of (counts, scope, slot, seed, alpha), where
        ``counts`` are the scope's usage counts by tool id (a tool missing
        from them counts 0): each non-protected competing tool survives an
        independent Bernoulli draw with its keep probability; protected and
        explicitly hinted tools are always included; at least
        MIN_SURVIVING_COMPETITORS non-protected competitors are
        force-included, lowest usage counts first.
        """
        rng = stable_rng("visible", seed, scope, slot)
        scope_protected, groups = self._dropout_setup(scope)
        hinted = {t for t in extra_protected if (d := self._tools.get(t)) is not None and d.substantive}
        kept: set[str] = {*scope_protected, *hinted}

        survivors: list[str] = []
        all_competitors: list[str] = []
        for competitors in groups:
            competitors = [t for t in competitors if t not in hinted]
            if not competitors:
                continue
            all_competitors.extend(competitors)
            n_min = min(counts.get(t, 0) for t in competitors)
            for tool_id in competitors:
                p = keep_probability(counts.get(tool_id, 0), n_min, alpha)
                if rng.random() < p:
                    kept.add(tool_id)
                    survivors.append(tool_id)

        if len(survivors) < MIN_SURVIVING_COMPETITORS and all_competitors:
            by_count = sorted(
                (t for t in all_competitors if t not in kept),
                key=lambda t: (counts.get(t, 0), t),
            )
            for tool_id in by_count:
                if len(survivors) >= MIN_SURVIVING_COMPETITORS:
                    break
                kept.add(tool_id)
                survivors.append(tool_id)
        return frozenset(kept)

    def _dropout_setup(self, scope: str) -> tuple[frozenset[str], tuple[tuple[str, ...], ...]]:
        """The substantive tools protected in ``scope`` and its competing sets,
        sorted by category: worked out once per scope, not once per slot."""
        setup = self._dropout.get(scope)
        if setup is None:
            protected = frozenset(t for t, d in self._tools.items() if d.substantive and d.protected_for(scope))
            groups = tuple(tuple(tools) for _category, tools in sorted(self.competing_sets(scope).items()))
            setup = self._dropout[scope] = (protected, groups)
        return setup

    def coverage_rate(self, scope: str, prefix_traces: Sequence[Iterable[str]]) -> float:
        """|union of tools invoked in the prefix| / |visible universe|."""
        universe = set(self.inference_visible())
        if not universe:
            raise ContractError("empty visible-tool universe")
        used: set[str] = set()
        for episode_tools in prefix_traces:
            used.update(episode_tools)
        return len(used & universe) / len(universe)
