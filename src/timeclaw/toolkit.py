"""Built-in tool library: forecasting, series analysis and text analysis,
all behind one invocation contract. Every tool is one a model may call, at
exploration and at inference alike; none reads the ground truth (Compare's
evaluation is an engine step, ``orchestrator.evaluate``).

Tool failures are returned in-band as error artifacts (kind=text with an
error payload) so the agent loop can observe and recover, and so traces
capture failures verbatim.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from . import seriesops
from .core import TaskInstance
from .errors import ContractError, TimeclawError
from .registry import BOUNDS, ArgSpec, ToolCategory, ToolDescriptor, ToolRegistry
from .util import canonical_json, digest_text, splice_json

ORIGINAL_INPUT = "original_input"


class ArtifactKind(str, enum.Enum):
    SERIES = "series"
    SCALAR = "scalar"
    LABEL = "label"
    TEXT = "text"
    EVENT_LIST = "event_list"
    METRIC_REPORT = "metric_report"


@dataclass(frozen=True)
class ToolArtifact:
    artifact_id: str
    kind: ArtifactKind
    payload: Any

    @property
    def is_error(self) -> bool:
        return self.kind == ArtifactKind.TEXT and isinstance(self.payload, Mapping) and "error" in self.payload

    def to_dict(self) -> dict[str, Any]:
        return {
            "artifact_id": self.artifact_id,
            "kind": self.kind.value,
            "payload": self.payload,
        }

    @cached_property
    def text(self) -> str:
        """``canonical_json(self.to_dict())``: the tool message and the trace's
        copy of the artifact. :meth:`of_call` fills it in when it is made."""
        return canonical_json(self.to_dict())

    @classmethod
    def of_call(cls, call: "ToolInvocation", kind: ArtifactKind, payload: Any) -> "ToolArtifact":
        """The artifact a call produced. Its payload is encoded once, and the
        encoding is spliced into the id's digest input and into ``text``."""
        encoded = canonical_json(payload)
        artifact_id = digest_text(
            splice_json(
                {
                    "tool": canonical_json(call.tool_id),
                    "args": call.args_json,
                    "parents": canonical_json(list(call.inputs)),
                    "payload": encoded,
                }
            )
        )[:12]
        artifact = cls(artifact_id=artifact_id, kind=kind, payload=payload)
        artifact.__dict__["text"] = splice_json(
            {"artifact_id": canonical_json(artifact_id), "kind": canonical_json(kind.value), "payload": encoded}
        )
        return artifact

    @classmethod
    def error(cls, call: "ToolInvocation", code: str, message: str) -> "ToolArtifact":
        """The in-band error artifact a call produced."""
        return cls.of_call(call, ArtifactKind.TEXT, {"error": code, "message": message, "tool": call.tool_id})

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ToolArtifact":
        return cls(artifact_id=data["artifact_id"], kind=ArtifactKind(data["kind"]), payload=data["payload"])


class ArtifactStore:
    """Per-episode artifact map rooted at the reserved original input, the
    series of ``instance``, the sample every call of the episode reads."""

    def __init__(self, instance: TaskInstance):
        self.instance = instance
        original = ToolArtifact(
            artifact_id=ORIGINAL_INPUT,
            kind=ArtifactKind.SERIES,
            payload={"values": [float(v) for v in instance.series]},
        )
        self._artifacts: dict[str, ToolArtifact] = {ORIGINAL_INPUT: original}

    def add(self, artifact: ToolArtifact) -> None:
        self._artifacts[artifact.artifact_id] = artifact

    def get(self, artifact_id: str) -> ToolArtifact:
        if not isinstance(artifact_id, str) or artifact_id not in self._artifacts:
            raise ContractError(f"unknown artifact {artifact_id}")
        return self._artifacts[artifact_id]


@dataclass(frozen=True)
class ToolInvocation:
    tool_id: str
    args: Mapping[str, Any] = field(default_factory=dict)
    inputs: tuple[str, ...] = (ORIGINAL_INPUT,)

    @cached_property
    def args_json(self) -> str:
        """``canonical_json(dict(self.args))``, encoded once: the ``tool_call``
        trace line and the artifact id's digest input both splice it in."""
        return canonical_json(dict(self.args))


class ToolError(TimeclawError):
    """Internal signal converted into an in-band error artifact."""

    def __init__(self, code: str, message: str):
        self.code = code
        super().__init__(message)


ToolFn = Callable[
    [Mapping[str, Any], Sequence[ToolArtifact], TaskInstance],
    tuple[ArtifactKind, Any],
]

_TYPE_CHECKS: dict[str, Callable[[Any], bool]] = {
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "array": lambda v: isinstance(v, (list, tuple)),
    "object": lambda v: isinstance(v, Mapping),
}


# The argument through which any call names the artifacts it reads
# (``orchestrator._split_call_args``), declared in every tool's schema.
_INPUTS_SCHEMA = {
    "type": "array",
    "items": {"type": "string"},
    "description": "ids of the artifacts the call reads, each the artifact_id of an earlier tool result "
    f"or {ORIGINAL_INPUT}, the sample's series",
    "default": [ORIGINAL_INPUT],
}


class Toolkit(ToolRegistry):
    """The tool catalog: a :class:`ToolRegistry` of the tools' descriptors,
    plus each tool's function and the invoke() contract that wraps them."""

    def __init__(self) -> None:
        super().__init__(())
        self._fns: dict[str, ToolFn] = {}
        self._schemas: dict[str, dict[str, Any]] = {}

    def register(self, descriptor: ToolDescriptor, fn: ToolFn) -> None:
        self.add(descriptor)
        self._fns[descriptor.tool_id] = fn
        props = {
            "_inputs": _INPUTS_SCHEMA,
            **{
                name: {"type": spec.type, "description": spec.description, **spec.keywords()}
                for name, spec in sorted(descriptor.arg_schema.items())
            },
        }
        required = sorted(name for name, spec in descriptor.arg_schema.items() if spec.required)
        self._schemas[descriptor.tool_id] = {
            "name": descriptor.tool_id,
            "description": descriptor.description,
            "parameters": {"type": "object", "properties": props, "required": required},
        }

    def _validated_args(self, descriptor: ToolDescriptor, args: Mapping[str, Any]) -> dict[str, Any]:
        """The call's arguments checked against the schema, the only check
        they get, with defaults filled in. An argument given as null counts as
        not given: it takes its default, and a required one is missing. An
        ``_inputs`` still among them is not the list of ids that the caller
        splits off as the call's inputs."""
        if "_inputs" in args:
            raise ToolError("schema_violation", "argument _inputs must be an array of artifact ids")
        schema = descriptor.arg_schema
        unknown = sorted(set(args) - set(schema))
        if unknown:
            raise ToolError("schema_violation", f"unknown argument(s): {', '.join(unknown)}")
        out: dict[str, Any] = {}
        for name, spec in schema.items():
            value = args.get(name)
            if value is not None:
                check = _TYPE_CHECKS.get(spec.type)
                if check is not None and not check(value):
                    raise ToolError("schema_violation", f"argument {name} must be of type {spec.type}")
                if not spec.admits(value):
                    raise ToolError("schema_violation", f"argument {name} must meet {canonical_json(spec.keywords(BOUNDS))}")
                out[name] = value
            elif spec.required:
                raise ToolError("schema_violation", f"missing required argument {name}")
            elif spec.default is not None:
                out[name] = spec.default
        return out

    def invoke(self, call: ToolInvocation, store: ArtifactStore) -> ToolArtifact:
        """Run one tool call on the sample ``store`` was built from and
        return a typed artifact.

        Deterministic given (tool, args, inputs); schema and execution
        failures come back as error artifacts.
        """
        descriptor = self.descriptor(call.tool_id)
        if descriptor is None:
            return ToolArtifact.error(call, "unknown_tool", f"tool {call.tool_id} is not registered")
        try:
            args = self._validated_args(descriptor, call.args)
            inputs = [store.get(a) for a in call.inputs]
            kind, payload = self._fns[call.tool_id](args, inputs, store.instance)
        except ToolError as exc:
            return ToolArtifact.error(call, exc.code, str(exc))
        except ContractError as exc:
            return ToolArtifact.error(call, "contract", str(exc))
        artifact = ToolArtifact.of_call(call, kind, payload)
        store.add(artifact)
        return artifact

    def tool_schema(self, tool_id: str) -> dict[str, Any]:
        """OpenAI-style function schema for prompt declaration, built once at
        registration; shared, so callers must not mutate it."""
        return self._schemas[tool_id]


# ---------------------------------------------------------------------------
# built-in tool implementations
# ---------------------------------------------------------------------------


def _series_input(inputs: Sequence[ToolArtifact]) -> list[float]:
    if not inputs:
        raise ToolError("contract", "a series input artifact is required")
    art = inputs[0]
    if art.kind != ArtifactKind.SERIES:
        raise ToolError("contract", f"input artifact {art.artifact_id} is not a series")
    return [float(v) for v in art.payload["values"]]


def _require_history(values: Sequence[float], minimum: int) -> None:
    if len(values) < minimum:
        raise ToolError("insufficient_history", f"need at least {minimum} points, got {len(values)}")


def _forecast_payload(values: Sequence[float]) -> dict[str, Any]:
    return {"values": [float(v) for v in values]}


def _fc_naive(args, inputs, instance):
    values = _series_input(inputs)
    _require_history(values, 2)
    out = [values[-1]] * args["horizon"]
    return ArtifactKind.SERIES, _forecast_payload(out)


def _fc_drift(args, inputs, instance):
    values = _series_input(inputs)
    _require_history(values, 2)
    slope = (values[-1] - values[0]) / (len(values) - 1)
    out = [values[-1] + slope * (i + 1) for i in range(args["horizon"])]
    return ArtifactKind.SERIES, _forecast_payload(out)


def _fc_seasonal_naive(args, inputs, instance):
    values = _series_input(inputs)
    m = args["period"]
    _require_history(values, max(2, m))
    last_period = values[len(values) - m :]
    out = [last_period[i % m] for i in range(args["horizon"])]
    return ArtifactKind.SERIES, _forecast_payload(out)


def _fc_ses(args, inputs, instance):
    values = _series_input(inputs)
    _require_history(values, 2)
    a = float(args["alpha"])
    level = values[0]
    for v in values[1:]:
        level = a * v + (1.0 - a) * level
    return ArtifactKind.SERIES, _forecast_payload([level] * args["horizon"])


def _fc_holt(args, inputs, instance):
    values = _series_input(inputs)
    _require_history(values, 2)
    a, b = float(args["alpha"]), float(args["beta"])
    level, trend = values[0], values[1] - values[0]
    for v in values[1:]:
        new_level = a * v + (1.0 - a) * (level + trend)
        trend = b * (new_level - level) + (1.0 - b) * trend
        level = new_level
    out = [level + (i + 1) * trend for i in range(args["horizon"])]
    return ArtifactKind.SERIES, _forecast_payload(out)


def _fc_moving_average(args, inputs, instance):
    values = _series_input(inputs)
    w = args["window"]
    _require_history(values, max(2, w))
    level = float(np.mean(values[-w:]))
    return ArtifactKind.SERIES, _forecast_payload([level] * args["horizon"])


def _an_basic_stats(args, inputs, instance):
    values = _series_input(inputs)
    payload = {
        "n": len(values),
        "mean": float(np.mean(values)),
        "std": seriesops.population_std(values),
        "min": float(np.min(values)),
        "max": float(np.max(values)),
        "first": values[0],
        "last": values[-1],
    }
    return ArtifactKind.METRIC_REPORT, payload


def _an_detect_trend(args, inputs, instance):
    values = _series_input(inputs)
    label, slope, normalized = seriesops.trend_label(values)
    return ArtifactKind.LABEL, {"label": label, "slope": slope, "normalized_slope": normalized}


def _an_detect_anomaly(args, inputs, instance):
    values = _series_input(inputs)
    threshold = float(args["threshold"])
    events = [
        {"index": i, "value": values[i], "z": z}
        for i, z in enumerate(seriesops.zscores(values))
        if abs(z) > threshold
    ]
    return ArtifactKind.EVENT_LIST, {"events": events, "n_events": len(events)}


def _an_autocorrelation(args, inputs, instance):
    values = _series_input(inputs)
    lag = args["lag"]
    r, defined = seriesops.lagged_correlation(values, lag)
    return ArtifactKind.SCALAR, {"lag": lag, "r": r, "defined": defined}


def _an_stationarity(args, inputs, instance):
    values = _series_input(inputs)
    return ArtifactKind.METRIC_REPORT, seriesops.split_half_stationarity(values)


def _an_segment(args, inputs, instance):
    values = _series_input(inputs)
    w = args["window"]
    if w > len(values):
        raise ToolError("out_of_range", f"window {w} exceeds series length {len(values)}")
    windows = []
    for start in range(0, len(values), w):
        chunk = values[start : start + w]
        windows.append(
            {
                "start": start,
                "end": start + len(chunk),
                "mean": float(np.mean(chunk)),
                "partial": len(chunk) < w,
            }
        )
    exact = len(values) % w == 0
    payload = {"windows": windows, "n_windows": len(windows), "window": w, "exact": exact}
    return ArtifactKind.EVENT_LIST, payload


def _slice_bounds(args: Mapping[str, Any], n: int) -> tuple[int, int]:
    start, end = args["start"], args.get("end", n)
    if start < 0:
        start += n
    if end < 0:
        end += n
    if not (0 <= start < end <= n):
        raise ToolError("out_of_range", f"window [{start}, {end}) out of bounds for length {n}")
    return start, end


def _an_window_stats(args, inputs, instance):
    values = _series_input(inputs)
    start, end = _slice_bounds(args, len(values))
    chunk = values[start:end]
    payload: dict[str, Any] = {
        "start": start,
        "end": end,
        "n": len(chunk),
        "mean": float(np.mean(chunk)),
        "min": float(np.min(chunk)),
        "max": float(np.max(chunk)),
    }
    ref = args.get("reference_mean")
    if ref is not None:
        payload["mean_delta_vs_reference"] = payload["mean"] - float(ref)
    return ArtifactKind.METRIC_REPORT, payload


def _select(values: Sequence[float], which: str) -> tuple[float, int]:
    return (values[0], 0) if which == "first" else (values[-1], len(values) - 1)


def _an_value_at(args, inputs, instance):
    values = _series_input(inputs)
    value, idx = _select(values, args["which"])
    payload: dict[str, Any] = {"value": value, "index": idx}
    reference = args.get("reference")
    if reference is not None:
        ref_values = _series_input(inputs[1:]) if len(inputs) > 1 else values
        ref_value, _ = _select(ref_values, reference)
        payload["reference_value"] = ref_value
        if ref_value != 0.0:
            payload["pct_change_vs_reference"] = (value - ref_value) / ref_value * 100.0
        else:
            payload["pct_change_vs_reference"] = None
    return ArtifactKind.SCALAR, payload


_STOPWORDS = frozenset(
    """a an and are as at be but by for from has have in is it its of on or that the
    this to was were will with not no after over under their they we you your""".split()
)

_POSITIVE_WORDS = frozenset(
    """gain gains growth strong strode record profit profits beat beats up upgrade
    surge rally bullish improved improving positive raised outperform exceed
    exceeded win winning recovery rebound boost boosted optimistic robust""".split()
)
_NEGATIVE_WORDS = frozenset(
    """loss losses weak decline declined down downgrade crash bearish miss missed
    negative cut fall falling fell drop dropped warning concern concerns risk
    pessimistic slump plunge plunged layoffs recall halt halted pause paused""".split()
)


def _text_blocks(instance: TaskInstance) -> list[dict[str, Any]]:
    return [{"body": b.body, "date": b.date} for b in instance.text_context or ()]


def _tokenize(text: str) -> list[str]:
    return [t for t in re.findall(r"[a-z']+", text.lower()) if t not in _STOPWORDS]


def _tx_keyword_extract(args, inputs, instance):
    counts: dict[str, int] = {}
    for block in _text_blocks(instance):
        for token in _tokenize(block["body"]):
            counts[token] = counts.get(token, 0) + 1
    top = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[: args["k"]]
    payload = {"keywords": [{"token": t, "count": c} for t, c in top]}
    return ArtifactKind.EVENT_LIST, payload


def _tx_sentiment(args, inputs, instance):
    text = args.get("text")
    if text is None:
        text = " ".join(b["body"] for b in _text_blocks(instance))
    tokens = _tokenize(text)
    pos = sum(1 for t in tokens if t in _POSITIVE_WORDS)
    neg = sum(1 for t in tokens if t in _NEGATIVE_WORDS)
    score = 0.0 if pos + neg == 0 else (pos - neg) / (pos + neg)
    return ArtifactKind.SCALAR, {"score": score, "positive": pos, "negative": neg}


def _tx_temporal_align(args, inputs, instance):
    boundary_frac = float(args["boundary_frac"])
    blocks = _text_blocks(instance)
    if instance.timestamps is None or not blocks:
        return ArtifactKind.EVENT_LIST, {"blocks": [], "n": 0}
    t0, t1 = instance.timestamps[0], instance.timestamps[-1]
    aligned = []
    for i, block in enumerate(blocks):
        date = block.get("date")
        if date is None or not (t0 <= date <= t1):
            continue
        # lexicographic ISO comparison; boundary proximity by position among
        # the observed timestamps
        pos = sum(1 for ts in instance.timestamps if ts <= date)
        frac = pos / len(instance.timestamps)
        boundary = frac >= 1.0 - boundary_frac or frac <= boundary_frac
        aligned.append({"index": i, "date": date, "boundary_aligned": boundary})
    return ArtifactKind.EVENT_LIST, {"blocks": aligned, "n": len(aligned)}


def _d(tool_id: str, category: ToolCategory, description: str, **args: ArgSpec) -> ToolDescriptor:
    return ToolDescriptor(tool_id=tool_id, category=category, arg_schema=args, description=description)


_HORIZON = ArgSpec("integer", required=True, minimum=1, maximum=10_000, description="number of future steps")
_SELECTOR = ("first", "last")


def builtin_toolkit() -> Toolkit:
    """The standard tool library."""
    tk = Toolkit()
    f = ToolCategory.FORECASTING
    a = ToolCategory.ANALYSIS
    t = ToolCategory.TEXT

    tk.register(_d("naive", f, "repeat the last observed value", horizon=_HORIZON), _fc_naive)
    tk.register(_d("drift", f, "extrapolate the first-to-last slope", horizon=_HORIZON), _fc_drift)
    tk.register(
        _d(
            "seasonal_naive",
            f,
            "repeat the last full seasonal period",
            horizon=_HORIZON,
            period=ArgSpec("integer", required=True, minimum=1, description="season length"),
        ),
        _fc_seasonal_naive,
    )
    tk.register(
        _d(
            "ses",
            f,
            "simple exponential smoothing",
            horizon=_HORIZON,
            alpha=ArgSpec("number", default=0.3, exclusiveMinimum=0, maximum=1, description="smoothing weight"),
        ),
        _fc_ses,
    )
    tk.register(
        _d(
            "holt",
            f,
            "Holt linear-trend smoothing",
            horizon=_HORIZON,
            alpha=ArgSpec("number", default=0.3, exclusiveMinimum=0, maximum=1, description="level smoothing weight"),
            beta=ArgSpec("number", default=0.1, exclusiveMinimum=0, maximum=1, description="trend smoothing weight"),
        ),
        _fc_holt,
    )
    tk.register(
        _d(
            "moving_average",
            f,
            "flat continuation of the trailing-window mean",
            horizon=_HORIZON,
            window=ArgSpec("integer", default=3, minimum=1, description="number of trailing values averaged"),
        ),
        _fc_moving_average,
    )
    tk.register(_d("basic_stats", a, "summary statistics of a series"), _an_basic_stats)
    tk.register(_d("detect_trend", a, "trend label from the normalized OLS slope"), _an_detect_trend)
    tk.register(
        _d(
            "detect_anomaly",
            a,
            "z-score outlier flags",
            threshold=ArgSpec("number", default=3.0, description="flag values whose |z| exceeds this"),
        ),
        _an_detect_anomaly,
    )
    tk.register(
        _d(
            "autocorrelation",
            a,
            "lagged correlation of a series with itself",
            lag=ArgSpec("integer", required=True, minimum=1, description="shift in steps"),
        ),
        _an_autocorrelation,
    )
    tk.register(_d("stationarity_check", a, "split-half stationarity diagnostic"), _an_stationarity)
    tk.register(
        _d(
            "segment",
            a,
            "partition into fixed-size windows",
            window=ArgSpec(
                "integer", required=True, minimum=1, description="window size in steps, at most the series length"
            ),
        ),
        _an_segment,
    )
    tk.register(
        _d(
            "window_stats",
            a,
            "mean/min/max over an index window",
            start=ArgSpec("integer", default=0, description="first index of the window, negative from the end"),
            end=ArgSpec("integer", description="index just past the window, negative from the end; default the length"),
            reference_mean=ArgSpec("number", description="mean to diff against"),
        ),
        _an_window_stats,
    )
    tk.register(
        _d(
            "value_at",
            a,
            "single value with optional percent change vs a reference",
            which=ArgSpec("string", default="last", enum=_SELECTOR, description="the end of the series to read"),
            reference=ArgSpec(
                "string", enum=_SELECTOR, description="the end of the reference input, else of the series, to compare with"
            ),
        ),
        _an_value_at,
    )
    tk.register(
        _d(
            "keyword_extract",
            t,
            "top-k tokens by frequency",
            k=ArgSpec("integer", default=5, minimum=1, description="number of tokens to return"),
        ),
        _tx_keyword_extract,
    )
    tk.register(
        _d(
            "sentiment_lexicon",
            t,
            "lexicon sentiment score in [-1, 1]",
            text=ArgSpec("string", description="text to score; default the sample's text context"),
        ),
        _tx_sentiment,
    )
    tk.register(
        _d(
            "temporal_align_text",
            t,
            "text blocks whose date anchors fall inside the series window",
            boundary_frac=ArgSpec(
                "number", default=0.1, description="share of the window at each end that is its boundary"
            ),
        ),
        _tx_temporal_align,
    )
    return tk
