"""Built-in tool library: forecasting, series analysis, text analysis, and
exploration-only evaluators, all behind one invocation contract.

Tool failures are returned in-band as error artifacts (kind=text with an
error payload) so the agent loop can observe and recover, and so traces
capture failures verbatim. Mode violations (exploration-only tools invoked
at inference) are hard capability errors instead.
"""

from __future__ import annotations

import enum
import re
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional, Sequence

import numpy as np

from . import metrics, seriesops
from .core import EvaluatorCapability, TaskInstance
from .errors import CapabilityError, ContractError, TimeclawError
from .registry import ArgSpec, ToolCategory, ToolDescriptor
from .util import canonical_json, digest_obj

ORIGINAL_INPUT = "original_input"


class ArtifactKind(str, enum.Enum):
    SERIES = "series"
    SCALAR = "scalar"
    LABEL = "label"
    TEXT = "text"
    EVENT_LIST = "event_list"
    METRIC_REPORT = "metric_report"


@dataclass(frozen=True)
class Provenance:
    """Where an artifact came from and how its coordinates map back to the
    original series (an affine index offset per hop)."""

    tool_id: str
    args_digest: str
    parents: tuple[str, ...]
    index_transform: Mapping[str, Any]

    def to_dict(self) -> dict[str, Any]:
        return {
            "tool_id": self.tool_id,
            "args_digest": self.args_digest,
            "parents": list(self.parents),
            "index_transform": dict(self.index_transform),
        }


@dataclass(frozen=True)
class ToolArtifact:
    artifact_id: str
    kind: ArtifactKind
    payload: Any
    provenance: Provenance

    @property
    def is_error(self) -> bool:
        return self.kind == ArtifactKind.TEXT and isinstance(self.payload, Mapping) and "error" in self.payload

    def series_values(self) -> list[float]:
        if self.kind != ArtifactKind.SERIES:
            raise ContractError(f"artifact {self.artifact_id} is not a series")
        return list(self.payload["values"])

    def to_dict(self) -> dict[str, Any]:
        return {
            "artifact_id": self.artifact_id,
            "kind": self.kind.value,
            "payload": self.payload,
            "provenance": self.provenance.to_dict(),
        }


IDENTITY_TRANSFORM: Mapping[str, Any] = {"kind": "offset", "offset": 0}
POINT_TRANSFORM: Mapping[str, Any] = {"kind": "point"}


def _artifact_id(tool_id: str, args: Mapping[str, Any], parents: Sequence[str], payload: Any) -> str:
    return digest_obj({"tool": tool_id, "args": args, "parents": list(parents), "payload": payload}, 12)


class ArtifactStore:
    """Per-episode artifact map rooted at the reserved original input."""

    def __init__(self, instance: TaskInstance):
        original = ToolArtifact(
            artifact_id=ORIGINAL_INPUT,
            kind=ArtifactKind.SERIES,
            payload={"values": [float(v) for v in instance.series]},
            provenance=Provenance("input", "", (), IDENTITY_TRANSFORM),
        )
        self._artifacts: dict[str, ToolArtifact] = {ORIGINAL_INPUT: original}

    def add(self, artifact: ToolArtifact) -> None:
        self._artifacts[artifact.artifact_id] = artifact

    def get(self, artifact_id: str) -> ToolArtifact:
        if artifact_id not in self._artifacts:
            raise ContractError(f"unknown artifact {artifact_id}")
        return self._artifacts[artifact_id]

    def __contains__(self, artifact_id: str) -> bool:
        return artifact_id in self._artifacts

    def resolve_to_original(self, artifact_id: str, index: int) -> int:
        """Compose index transforms up the provenance chain so an artifact
        coordinate maps onto the (possibly extended) original axis."""
        current = artifact_id
        offset = index
        seen = set()
        while current != ORIGINAL_INPUT:
            if current in seen:
                raise ContractError(f"provenance cycle at {current}")
            seen.add(current)
            art = self.get(current)
            transform = art.provenance.index_transform
            if transform.get("kind") == "offset":
                offset += int(transform.get("offset", 0))
            elif transform.get("kind") == "point":
                raise ContractError(f"artifact {current} has no series coordinates")
            parents = art.provenance.parents
            if not parents:
                raise ContractError(f"artifact {current} has no parent chain")
            current = parents[0]
        return offset


@dataclass(frozen=True)
class ToolInvocation:
    tool_id: str
    args: Mapping[str, Any] = field(default_factory=dict)
    inputs: tuple[str, ...] = (ORIGINAL_INPUT,)


@dataclass
class InvocationContext:
    """Execution context: the mode gate plus whatever the evaluators need."""

    mode: str  # "exploration" | "inference"
    instance: Optional[TaskInstance] = None
    capability: Optional[EvaluatorCapability] = None
    candidates: Optional[Mapping[str, Any]] = None  # branch_id -> final answer


class ToolError(TimeclawError):
    """Internal signal converted into an in-band error artifact."""

    def __init__(self, code: str, message: str):
        self.code = code
        super().__init__(message)


ToolFn = Callable[
    [Mapping[str, Any], Sequence[ToolArtifact], InvocationContext],
    tuple[ArtifactKind, Any, Mapping[str, Any]],
]

_TYPE_CHECKS: dict[str, Callable[[Any], bool]] = {
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "array": lambda v: isinstance(v, (list, tuple)),
    "object": lambda v: isinstance(v, Mapping),
}


class Toolkit:
    """Registered tools plus the invoke() contract that wraps them."""

    def __init__(self) -> None:
        self._fns: dict[str, ToolFn] = {}
        self._descriptors: dict[str, ToolDescriptor] = {}

    def register(self, descriptor: ToolDescriptor, fn: ToolFn) -> None:
        if descriptor.tool_id in self._fns:
            raise ContractError(f"tool {descriptor.tool_id} already registered")
        self._fns[descriptor.tool_id] = fn
        self._descriptors[descriptor.tool_id] = descriptor

    def descriptors(self) -> list[ToolDescriptor]:
        return [self._descriptors[t] for t in sorted(self._descriptors)]

    def has(self, tool_id: str) -> bool:
        return tool_id in self._fns

    def _validated_args(self, descriptor: ToolDescriptor, args: Mapping[str, Any]) -> dict[str, Any]:
        schema = descriptor.arg_schema
        unknown = sorted(set(args) - set(schema))
        if unknown:
            raise ToolError("schema_violation", f"unknown argument(s): {', '.join(unknown)}")
        out: dict[str, Any] = {}
        for name, spec in schema.items():
            if name in args:
                value = args[name]
                check = _TYPE_CHECKS.get(spec.type)
                if check is not None and value is not None and not check(value):
                    raise ToolError("schema_violation", f"argument {name} must be of type {spec.type}")
                out[name] = value
            elif spec.required:
                raise ToolError("schema_violation", f"missing required argument {name}")
            elif spec.default is not None:
                out[name] = spec.default
        return out

    def invoke(self, call: ToolInvocation, store: ArtifactStore, ctx: InvocationContext) -> ToolArtifact:
        """Run one tool call and return a typed artifact with provenance.

        Deterministic given (tool, args, inputs); schema and execution
        failures come back as error artifacts, mode violations raise.
        """
        descriptor = self._descriptors.get(call.tool_id)
        if descriptor is None:
            return self._error_artifact(call, "unknown_tool", f"tool {call.tool_id} is not registered")
        if ctx.mode == "inference" and descriptor.category in (
            ToolCategory.EXPLORATION_ONLY,
            ToolCategory.ORCHESTRATION,
        ):
            raise CapabilityError(f"tool {call.tool_id} is not available at inference time")
        try:
            args = self._validated_args(descriptor, call.args)
            inputs = [store.get(a) for a in call.inputs]
            kind, payload, transform = self._fns[call.tool_id](args, inputs, ctx)
        except ToolError as exc:
            return self._error_artifact(call, exc.code, str(exc))
        except ContractError as exc:
            return self._error_artifact(call, "contract", str(exc))
        artifact = ToolArtifact(
            artifact_id=_artifact_id(call.tool_id, dict(call.args), call.inputs, payload),
            kind=kind,
            payload=payload,
            provenance=Provenance(
                tool_id=call.tool_id,
                args_digest=digest_obj(dict(call.args), 12),
                parents=tuple(call.inputs),
                index_transform=transform,
            ),
        )
        store.add(artifact)
        return artifact

    def _error_artifact(self, call: ToolInvocation, code: str, message: str) -> ToolArtifact:
        payload = {"error": code, "message": message, "tool": call.tool_id}
        return ToolArtifact(
            artifact_id=_artifact_id(call.tool_id, dict(call.args), call.inputs, payload),
            kind=ArtifactKind.TEXT,
            payload=payload,
            provenance=Provenance(
                tool_id=call.tool_id,
                args_digest=digest_obj(dict(call.args), 12),
                parents=tuple(call.inputs),
                index_transform=POINT_TRANSFORM,
            ),
        )

    def tool_schema(self, tool_id: str) -> dict[str, Any]:
        """OpenAI-style function schema for prompt declaration."""
        d = self._descriptors[tool_id]
        props = {
            name: {"type": spec.type, "description": spec.description}
            for name, spec in sorted(d.arg_schema.items())
        }
        required = sorted(name for name, spec in d.arg_schema.items() if spec.required)
        return {
            "name": d.tool_id,
            "description": d.description,
            "parameters": {"type": "object", "properties": props, "required": required},
        }


# ---------------------------------------------------------------------------
# built-in tool implementations
# ---------------------------------------------------------------------------


def _series_input(inputs: Sequence[ToolArtifact]) -> tuple[list[float], ToolArtifact]:
    if not inputs:
        raise ToolError("contract", "a series input artifact is required")
    art = inputs[0]
    if art.kind != ArtifactKind.SERIES:
        raise ToolError("contract", f"input artifact {art.artifact_id} is not a series")
    return [float(v) for v in art.payload["values"]], art


def _require_history(values: Sequence[float], minimum: int) -> None:
    if len(values) < minimum:
        raise ToolError("insufficient_history", f"need at least {minimum} points, got {len(values)}")


def _horizon(args: Mapping[str, Any]) -> int:
    h = args.get("horizon")
    if not isinstance(h, int) or h < 1:
        raise ToolError("schema_violation", "horizon must be a positive integer")
    return h


def _forecast_payload(values: Sequence[float]) -> dict[str, Any]:
    return {"values": [float(v) for v in values]}


def _fc_naive(args, inputs, ctx):
    values, art = _series_input(inputs)
    _require_history(values, 2)
    h = _horizon(args)
    out = [values[-1]] * h
    return ArtifactKind.SERIES, _forecast_payload(out), {"kind": "offset", "offset": len(values)}


def _fc_drift(args, inputs, ctx):
    values, art = _series_input(inputs)
    _require_history(values, 2)
    h = _horizon(args)
    slope = (values[-1] - values[0]) / (len(values) - 1)
    out = [values[-1] + slope * (i + 1) for i in range(h)]
    return ArtifactKind.SERIES, _forecast_payload(out), {"kind": "offset", "offset": len(values)}


def _fc_seasonal_naive(args, inputs, ctx):
    values, art = _series_input(inputs)
    m = args.get("period")
    if not isinstance(m, int) or m < 1:
        raise ToolError("schema_violation", "period must be a positive integer")
    _require_history(values, max(2, m))
    h = _horizon(args)
    last_period = values[len(values) - m :]
    out = [last_period[i % m] for i in range(h)]
    return ArtifactKind.SERIES, _forecast_payload(out), {"kind": "offset", "offset": len(values)}


def _fc_ses(args, inputs, ctx):
    values, art = _series_input(inputs)
    _require_history(values, 2)
    h = _horizon(args)
    a = float(args.get("alpha", 0.3))
    if not 0.0 < a <= 1.0:
        raise ToolError("schema_violation", "alpha must be in (0, 1]")
    level = values[0]
    for v in values[1:]:
        level = a * v + (1.0 - a) * level
    return ArtifactKind.SERIES, _forecast_payload([level] * h), {"kind": "offset", "offset": len(values)}


def _fc_holt(args, inputs, ctx):
    values, art = _series_input(inputs)
    _require_history(values, 2)
    h = _horizon(args)
    a = float(args.get("alpha", 0.3))
    b = float(args.get("beta", 0.1))
    if not 0.0 < a <= 1.0 or not 0.0 < b <= 1.0:
        raise ToolError("schema_violation", "alpha and beta must be in (0, 1]")
    level, trend = values[0], values[1] - values[0]
    for v in values[1:]:
        new_level = a * v + (1.0 - a) * (level + trend)
        trend = b * (new_level - level) + (1.0 - b) * trend
        level = new_level
    out = [level + (i + 1) * trend for i in range(h)]
    return ArtifactKind.SERIES, _forecast_payload(out), {"kind": "offset", "offset": len(values)}


def _fc_moving_average(args, inputs, ctx):
    values, art = _series_input(inputs)
    w = args.get("window", 3)
    if not isinstance(w, int) or w < 1:
        raise ToolError("schema_violation", "window must be a positive integer")
    _require_history(values, max(2, w))
    h = _horizon(args)
    level = float(np.mean(values[-w:]))
    return ArtifactKind.SERIES, _forecast_payload([level] * h), {"kind": "offset", "offset": len(values)}


def _an_basic_stats(args, inputs, ctx):
    values, _ = _series_input(inputs)
    payload = {
        "n": len(values),
        "mean": float(np.mean(values)),
        "std": seriesops.population_std(values),
        "min": float(np.min(values)),
        "max": float(np.max(values)),
        "first": values[0],
        "last": values[-1],
    }
    return ArtifactKind.METRIC_REPORT, payload, POINT_TRANSFORM


def _an_detect_trend(args, inputs, ctx):
    values, _ = _series_input(inputs)
    label, slope, normalized = seriesops.trend_label(values)
    return ArtifactKind.LABEL, {"label": label, "slope": slope, "normalized_slope": normalized}, POINT_TRANSFORM


def _an_detect_anomaly(args, inputs, ctx):
    values, _ = _series_input(inputs)
    threshold = float(args.get("threshold", 3.0))
    events = [
        {"index": i, "value": values[i], "z": z}
        for i, z in enumerate(seriesops.zscores(values))
        if abs(z) > threshold
    ]
    return ArtifactKind.EVENT_LIST, {"events": events, "n_events": len(events)}, IDENTITY_TRANSFORM


def _an_autocorrelation(args, inputs, ctx):
    values, _ = _series_input(inputs)
    lag = args.get("lag")
    if not isinstance(lag, int) or lag < 1:
        raise ToolError("schema_violation", "lag must be a positive integer")
    r, defined = seriesops.lagged_correlation(values, lag)
    return ArtifactKind.SCALAR, {"lag": lag, "r": r, "defined": defined}, POINT_TRANSFORM


def _an_stationarity(args, inputs, ctx):
    values, _ = _series_input(inputs)
    return ArtifactKind.METRIC_REPORT, seriesops.split_half_stationarity(values), POINT_TRANSFORM


def _an_segment(args, inputs, ctx):
    values, _ = _series_input(inputs)
    w = args.get("window")
    if not isinstance(w, int) or w < 1:
        raise ToolError("schema_violation", "window must be a positive integer")
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
    return ArtifactKind.EVENT_LIST, payload, IDENTITY_TRANSFORM


def _slice_bounds(args: Mapping[str, Any], n: int) -> tuple[int, int]:
    start = args.get("start", 0)
    end = args.get("end", n)
    if not isinstance(start, int) or not isinstance(end, int):
        raise ToolError("schema_violation", "start/end must be integers")
    if start < 0:
        start += n
    if end < 0:
        end += n
    if not (0 <= start < end <= n):
        raise ToolError("out_of_range", f"window [{start}, {end}) out of bounds for length {n}")
    return start, end


def _an_window_stats(args, inputs, ctx):
    values, _ = _series_input(inputs)
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
    return ArtifactKind.METRIC_REPORT, payload, POINT_TRANSFORM


def _select(values: Sequence[float], which: Any) -> tuple[float, int]:
    if which == "first":
        return values[0], 0
    if which == "last":
        return values[-1], len(values) - 1
    if isinstance(which, int):
        if not -len(values) <= which < len(values):
            raise ToolError("out_of_range", f"index {which} out of bounds")
        idx = which % len(values)
        return values[idx], idx
    raise ToolError("schema_violation", "which must be 'first', 'last', or an integer index")


def _an_value_at(args, inputs, ctx):
    values, _ = _series_input(inputs)
    value, idx = _select(values, args.get("which", "last"))
    payload: dict[str, Any] = {"value": value, "index": idx}
    reference = args.get("reference")
    if reference is not None:
        if len(inputs) > 1:
            ref_values = [float(v) for v in inputs[1].payload["values"]]
        else:
            ref_values = values
        ref_value, _ = _select(ref_values, reference)
        payload["reference_value"] = ref_value
        if ref_value != 0.0:
            payload["pct_change_vs_reference"] = (value - ref_value) / ref_value * 100.0
        else:
            payload["pct_change_vs_reference"] = None
    return ArtifactKind.SCALAR, payload, POINT_TRANSFORM


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


def _text_blocks(ctx: InvocationContext) -> list[dict[str, Any]]:
    if ctx.instance is None or not ctx.instance.text_context:
        return []
    return [{"body": b.body, "date": b.date} for b in ctx.instance.text_context]


def _tokenize(text: str) -> list[str]:
    return [t for t in re.findall(r"[a-z']+", text.lower()) if t not in _STOPWORDS]


def _tx_keyword_extract(args, inputs, ctx):
    k = args.get("k", 5)
    if not isinstance(k, int) or k < 1:
        raise ToolError("schema_violation", "k must be a positive integer")
    counts: dict[str, int] = {}
    for block in _text_blocks(ctx):
        for token in _tokenize(block["body"]):
            counts[token] = counts.get(token, 0) + 1
    top = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
    payload = {"keywords": [{"token": t, "count": c} for t, c in top]}
    return ArtifactKind.EVENT_LIST, payload, POINT_TRANSFORM


def _tx_sentiment(args, inputs, ctx):
    text = args.get("text")
    if text is None:
        text = " ".join(b["body"] for b in _text_blocks(ctx))
    tokens = _tokenize(text)
    pos = sum(1 for t in tokens if t in _POSITIVE_WORDS)
    neg = sum(1 for t in tokens if t in _NEGATIVE_WORDS)
    score = 0.0 if pos + neg == 0 else (pos - neg) / (pos + neg)
    return ArtifactKind.SCALAR, {"score": score, "positive": pos, "negative": neg}, POINT_TRANSFORM


def _tx_temporal_align(args, inputs, ctx):
    boundary_frac = float(args.get("boundary_frac", 0.1))
    blocks = _text_blocks(ctx)
    instance = ctx.instance
    if instance is None or instance.timestamps is None or not blocks:
        return ArtifactKind.EVENT_LIST, {"blocks": [], "n": 0}, POINT_TRANSFORM
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
    return ArtifactKind.EVENT_LIST, {"blocks": aligned, "n": len(aligned)}, POINT_TRANSFORM


def _require_evaluator(ctx: InvocationContext) -> EvaluatorCapability:
    if ctx.mode != "exploration":
        raise CapabilityError("ground-truth evaluation is exploration-only")
    if ctx.capability is None:
        raise CapabilityError("evaluator capability required")
    if ctx.instance is None or not ctx.instance.has_ground_truth:
        raise CapabilityError("instance carries no ground truth")
    return ctx.capability


def _evaluate_answer(answer: Any, instance: TaskInstance, capability: EvaluatorCapability) -> dict[str, Any]:
    truth = instance.answer_key(capability)
    report = metrics.answer_report(answer, truth, instance.task_type.value)
    loss = report.loss(metrics.supervision_metric(instance.task_type.value, instance.scope))
    return {"report": report.to_dict(), "quality": -loss}


def _ev_against_gt(args, inputs, ctx):
    capability = _require_evaluator(ctx)
    if "answer" in args and args["answer"] is not None:
        answer = args["answer"]
        branch_id = args.get("branch_id", "direct")
    else:
        branch_id = args.get("branch_id")
        if ctx.candidates is None or branch_id not in ctx.candidates:
            raise ToolError("contract", f"no candidate answer for branch {branch_id!r}")
        answer = ctx.candidates[branch_id]
    result = _evaluate_answer(answer, ctx.instance, capability)
    payload = {"branch_id": branch_id, **result}
    return ArtifactKind.METRIC_REPORT, payload, POINT_TRANSFORM


def _ev_batch_against_gt(args, inputs, ctx):
    capability = _require_evaluator(ctx)
    candidates = args.get("candidates") or ctx.candidates
    if not candidates:
        raise ToolError("contract", "no candidates supplied for batch evaluation")
    reports = {
        branch_id: _evaluate_answer(answer, ctx.instance, capability)
        for branch_id, answer in sorted(candidates.items())
    }
    return ArtifactKind.METRIC_REPORT, {"reports": reports}, POINT_TRANSFORM


def _orc_spawn(args, inputs, ctx):
    raise ToolError("orchestrator_only", "spawn_subagent is handled by the orchestrator, not the toolkit")


class RemoteToolAdapter:
    """Generic HTTP tool so external models can plug in without engine
    changes. Wire format: POST {tool, args, inputs} -> {kind, payload}."""

    def __init__(
        self,
        endpoint: str,
        timeout: float = 10.0,
        max_retries: int = 2,
        max_in_flight: int = 4,
        session: Any = None,
    ):
        import requests

        self.endpoint = endpoint
        self.timeout = timeout
        self.max_retries = max_retries
        self._session = session or requests.Session()
        self._slots = threading.Semaphore(max_in_flight)

    def __call__(self, args, inputs, ctx):
        body = {
            "tool": "remote",
            "args": dict(args),
            "inputs": [{"kind": a.kind.value, "payload": a.payload} for a in inputs],
        }
        last_error: Optional[str] = None
        for attempt in range(self.max_retries + 1):
            with self._slots:
                try:
                    resp = self._session.post(self.endpoint, json=body, timeout=self.timeout)
                except Exception as exc:  # transport failure: retriable
                    last_error = str(exc)
                    continue
            if resp.status_code >= 500:
                last_error = f"server error {resp.status_code}"
                continue
            if resp.status_code >= 400:
                raise ToolError("remote_rejected", f"remote tool rejected the call: {resp.status_code}")
            try:
                data = resp.json()
            except ValueError:
                data = None
            if not isinstance(data, dict):
                raise ToolError("remote_schema", "remote response is not a JSON object")
            try:
                kind = ArtifactKind(data["kind"])
            except (KeyError, ValueError):
                raise ToolError("remote_schema", f"remote response kind invalid: {data.get('kind')!r}")
            if "payload" not in data:
                raise ToolError("remote_schema", "remote response missing payload")
            canonical_json(data["payload"])  # must be JSON-serializable
            transform = {"kind": "offset", "offset": len(inputs[0].payload["values"])} if (
                kind == ArtifactKind.SERIES and inputs and inputs[0].kind == ArtifactKind.SERIES
            ) else POINT_TRANSFORM
            return kind, data["payload"], transform
        raise ToolError("remote_unavailable", f"remote tool failed after retries: {last_error}")


def _d(tool_id: str, category: ToolCategory, description: str, modality: str = "numeric", **args: ArgSpec) -> ToolDescriptor:
    return ToolDescriptor(
        tool_id=tool_id,
        category=category,
        arg_schema=args,
        modality=modality,
        description=description,
    )


_HORIZON = ArgSpec("integer", required=True, description="number of future steps")


def builtin_toolkit(remote_forecast_endpoint: Optional[str] = None) -> Toolkit:
    """The standard tool library. Pass an endpoint to also register the
    generic remote forecasting adapter."""
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
            period=ArgSpec("integer", required=True, description="season length"),
        ),
        _fc_seasonal_naive,
    )
    tk.register(
        _d(
            "ses",
            f,
            "simple exponential smoothing",
            horizon=_HORIZON,
            alpha=ArgSpec("number", default=0.3, description="smoothing weight"),
        ),
        _fc_ses,
    )
    tk.register(
        _d(
            "holt",
            f,
            "Holt linear-trend smoothing",
            horizon=_HORIZON,
            alpha=ArgSpec("number", default=0.3),
            beta=ArgSpec("number", default=0.1),
        ),
        _fc_holt,
    )
    tk.register(
        _d(
            "moving_average",
            f,
            "flat continuation of the trailing-window mean",
            horizon=_HORIZON,
            window=ArgSpec("integer", default=3),
        ),
        _fc_moving_average,
    )
    tk.register(_d("basic_stats", a, "summary statistics of a series"), _an_basic_stats)
    tk.register(_d("detect_trend", a, "trend label from the normalized OLS slope"), _an_detect_trend)
    tk.register(
        _d("detect_anomaly", a, "z-score outlier flags", threshold=ArgSpec("number", default=3.0)),
        _an_detect_anomaly,
    )
    tk.register(
        _d(
            "autocorrelation",
            a,
            "lagged correlation of a series with itself",
            lag=ArgSpec("integer", required=True),
        ),
        _an_autocorrelation,
    )
    tk.register(_d("stationarity_check", a, "split-half stationarity diagnostic"), _an_stationarity)
    tk.register(
        _d("segment", a, "partition into fixed-size windows", window=ArgSpec("integer", required=True)),
        _an_segment,
    )
    tk.register(
        _d(
            "window_stats",
            a,
            "mean/min/max over an index window",
            start=ArgSpec("integer"),
            end=ArgSpec("integer"),
            reference_mean=ArgSpec("number", description="mean to diff against"),
        ),
        _an_window_stats,
    )
    tk.register(
        _d(
            "value_at",
            a,
            "single value with optional percent change vs a reference",
            which=ArgSpec("string", default="last"),
            reference=ArgSpec("string", description="selector applied to the reference input"),
        ),
        _an_value_at,
    )
    tk.register(
        _d("keyword_extract", t, "top-k tokens by frequency", "text", k=ArgSpec("integer", default=5)),
        _tx_keyword_extract,
    )
    tk.register(
        _d("sentiment_lexicon", t, "lexicon sentiment score in [-1, 1]", "text", text=ArgSpec("string")),
        _tx_sentiment,
    )
    tk.register(
        _d(
            "temporal_align_text",
            t,
            "text blocks whose date anchors fall inside the series window",
            "mixed",
            boundary_frac=ArgSpec("number", default=0.1),
        ),
        _tx_temporal_align,
    )
    tk.register(
        _d(
            "evaluate_against_gt",
            ToolCategory.EXPLORATION_ONLY,
            "score one candidate answer against the sealed ground truth",
            "mixed",
            branch_id=ArgSpec("string"),
            answer=ArgSpec("any"),
        ),
        _ev_against_gt,
    )
    tk.register(
        _d(
            "evaluate_batch_against_gt",
            ToolCategory.EXPLORATION_ONLY,
            "score every pending candidate against the sealed ground truth",
            "mixed",
            candidates=ArgSpec("object"),
        ),
        _ev_batch_against_gt,
    )
    tk.register(
        _d(
            "spawn_subagent",
            ToolCategory.ORCHESTRATION,
            "launch candidate exploration branches",
            "mixed",
            n_tasks=ArgSpec("integer", default=2),
        ),
        _orc_spawn,
    )
    if remote_forecast_endpoint:
        tk.register(
            _d(
                "remote_forecast",
                f,
                "generic HTTP forecasting model adapter",
                horizon=_HORIZON,
            ),
            RemoteToolAdapter(remote_forecast_endpoint),
        )
    return tk
