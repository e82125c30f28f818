"""Corpus ingestion and generation: JSONL loading with per-line rejects,
learn/eval source disjointness checks, and the seeded synthetic generator
used for desk-scale runs.

Corpus tooling acts as the offline scorer side of the ground-truth gate, so
it holds its own evaluator capability for (re)serializing targets.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence

from .core import (
    EvaluatorCapability,
    SealedAnswer,
    TaskInstance,
    TaskType,
    TextBlock,
)
from .errors import CorpusError
from .util import digest_text, json_dumps, read_json, read_lines, stable_rng, write_atomic

# the offline scorer/loader capability; never handed to prompt assembly
_OFFLINE = EvaluatorCapability()

TREND_LABELS = ("decreasing", "increasing", "stable")
TREND_DAY_MEAN_CUTOFF = 0.5


@dataclass
class CorpusManifest:
    role: str  # learning | evaluation
    counts: dict[str, int] = field(default_factory=dict)  # scope -> n
    sources: dict[str, set[str]] = field(default_factory=dict)  # domain -> source digests

    def to_dict(self) -> dict[str, Any]:
        return {
            "role": self.role,
            "counts": dict(sorted(self.counts.items())),
            "sources": {d: sorted(s) for d, s in sorted(self.sources.items())},
        }


@dataclass
class LoadResult:
    instances: list[TaskInstance]
    manifest: CorpusManifest
    rejects: list[dict[str, Any]] = field(default_factory=list)


def _domain_of(scope: str) -> str:
    return scope.split("_", 1)[0] if "_" in scope else scope


def _finite_floats(values: list[Any]) -> Optional[tuple[float, ...]]:
    """``values`` as floats when each is a finite int or float and not a bool,
    else None. Each check is one C-level pass: over the distinct types, then
    over the floats."""
    if not all(issubclass(t, (int, float)) and not issubclass(t, bool) for t in set(map(type, values))):
        return None
    try:
        floats = tuple(map(float, values))
    except OverflowError:  # an int past the float range
        return None
    return floats if all(map(math.isfinite, floats)) else None


def _optional_array(record: Mapping[str, Any], key: str) -> Optional[tuple[Any, ...]]:
    """The record's ``key`` array as a tuple, None when it is absent or empty."""
    value = record.get(key)
    if not value:
        return None
    if not isinstance(value, list):
        raise CorpusError(f"{key} must be an array")
    return tuple(value)


def parse_record(record: Mapping[str, Any]) -> TaskInstance:
    """One sample from its JSON record; ``ground_truth``, when present, is sealed."""
    if not isinstance(record, Mapping):
        raise CorpusError("a sample is a JSON object")
    for key in ("id", "series", "task_type", "scope"):
        if key not in record:
            raise CorpusError(f"missing key {key}")
    try:
        task_type = TaskType(record["task_type"])
    except ValueError:
        raise CorpusError(f"unknown task_type {record['task_type']!r}") from None
    series = record["series"]
    if not isinstance(series, list) or not series:
        raise CorpusError("series must be a non-empty array")
    values = _finite_floats(series)
    if values is None:
        raise CorpusError("series values must be finite numbers")
    gt = record.get("ground_truth")
    horizon = record.get("horizon", 1)
    if not isinstance(horizon, int) or isinstance(horizon, bool):
        raise CorpusError("horizon must be an integer")
    timestamps, label_space = (_optional_array(record, key) for key in ("timestamps", "label_space"))
    try:
        text = None
        if record.get("text") is not None:
            text = tuple(TextBlock(body=b["body"], date=b.get("date")) for b in record["text"])
        return TaskInstance(
            id=str(record["id"]),
            series=values,
            task_type=task_type,
            horizon=horizon,
            scope=str(record["scope"]),
            timestamps=timestamps,
            text_context=text,
            label_space=label_space,
            ground_truth=SealedAnswer(gt) if gt is not None else None,
        )
    except Exception as exc:
        raise CorpusError(str(exc)) from None


def load_samples(path: Path, role: str) -> LoadResult:
    """Load and schema-validate one JSONL corpus file.

    Malformed lines, and a line that repeats an earlier accepted line's id,
    are collected into a rejects report, never silently dropped. A
    learning-role file in which any accepted sample lacks ground
    truth is a load error: exploration requires targets.
    """
    if role not in ("learning", "evaluation"):
        raise CorpusError(f"unknown corpus role {role!r}")
    path = Path(path)
    if not path.exists():
        raise CorpusError(f"corpus file {path} does not exist")
    instances: list[TaskInstance] = []
    rejects: list[dict[str, Any]] = []
    manifest = CorpusManifest(role=role)
    missing_gt: list[int] = []
    first_line: dict[str, int] = {}  # id -> the line that first held it
    for line_no, line in enumerate(read_lines(path), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except (ValueError, RecursionError) as exc:  # also an int or a nesting past its limit
            rejects.append({"line": line_no, "reason": f"invalid JSON: {getattr(exc, 'msg', exc)}"})
            continue
        try:
            instance = parse_record(record)
        except CorpusError as exc:
            rejects.append({"line": line_no, "reason": str(exc)})
            continue
        if instance.id in first_line:
            rejects.append({"line": line_no, "reason": f"id {instance.id!r} repeats line {first_line[instance.id]}"})
            continue
        first_line[instance.id] = line_no
        if role == "learning" and not instance.has_ground_truth:
            missing_gt.append(line_no)
            continue
        instances.append(instance)
        manifest.counts[instance.scope] = manifest.counts.get(instance.scope, 0) + 1
        source = str(record.get("source", instance.id))
        manifest.sources.setdefault(_domain_of(instance.scope), set()).add(
            digest_text(source)[:12]
        )
    if missing_gt:
        raise CorpusError(
            "exploration requires targets: ground truth missing on line(s) "
            + ", ".join(str(n) for n in missing_gt)
        )
    return LoadResult(instances=instances, manifest=manifest, rejects=rejects)


def write_samples(instances: Sequence[TaskInstance], path: Path, sources: Optional[Mapping[str, str]] = None) -> None:
    """Serialize instances (including sealed targets) back to JSONL."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = []
    for inst in instances:
        record = inst.public_dict()
        if inst.has_ground_truth:
            record["ground_truth"] = inst.answer_key(_OFFLINE)
        if sources and inst.id in sources:
            record["source"] = sources[inst.id]
        lines.append(json_dumps(record, sort_keys=True))
    write_atomic(path, "\n".join(lines) + "\n")


def reveal_for_scoring(instance: TaskInstance) -> Any:
    """Offline-scorer access to a sealed target."""
    return instance.answer_key(_OFFLINE)


def disjointness_check(learn: CorpusManifest, eval_manifest: CorpusManifest) -> dict[str, Any]:
    """Source-level disjointness between the learning and evaluation pools."""
    overlaps: dict[str, list[str]] = {}
    for domain in sorted(set(learn.sources) | set(eval_manifest.sources)):
        shared = learn.sources.get(domain, set()) & eval_manifest.sources.get(domain, set())
        if shared:
            overlaps[domain] = sorted(shared)
    empty = not learn.sources or not eval_manifest.sources
    return {
        "pass": not overlaps,
        "overlaps": overlaps,
        "warning": "one manifest has no sources (vacuous pass)" if empty and not overlaps else "",
    }


# ---------------------------------------------------------------------------
# synthetic corpus generation
# ---------------------------------------------------------------------------


def derive_trend_label(history: Sequence[float], future: Sequence[float], day: int) -> str:
    """Day-mean rule: the mean of the first future day versus the mean of the
    last observed day, with the +-0.5 cutoff."""
    last_day = list(history[-day:])
    next_day = list(future[:day])
    delta = sum(next_day) / len(next_day) - sum(last_day) / len(last_day)
    if delta > TREND_DAY_MEAN_CUTOFF:
        return "increasing"
    if delta < -TREND_DAY_MEAN_CUTOFF:
        return "decreasing"
    return "stable"


@dataclass(frozen=True)
class FamilySpec:
    name: str
    kind: str  # seasonal | trending | trend_label | indicator
    learn_count: int
    eval_count: int
    length: int = 120
    horizon: int = 24
    period: int = 24
    amplitude: float = 5.0
    noise: float = 0.3
    level: float = 20.0
    domain: str = "synth"

    @property
    def task_type(self) -> TaskType:
        if self.kind == "trend_label":
            return TaskType.TREND
        if self.kind == "indicator":
            return TaskType.INDICATOR
        return TaskType.FORECAST

    @property
    def scope(self) -> str:
        horizon_class = "short" if self.horizon <= 24 else "long"
        return f"{self.domain}_{self.task_type.value}_{horizon_class}"


def family_from_dict(d: Mapping[str, Any]) -> FamilySpec:
    """The family a spec object describes; KeyError for one without a name or
    kind, TypeError or ValueError for a value of another type, CorpusError
    for a length, horizon or period below 1."""
    family = FamilySpec(
        name=d["name"],
        kind=d["kind"],
        learn_count=int(d.get("learn_count", 0)),
        eval_count=int(d.get("eval_count", 0)),
        length=int(d.get("length", 120)),
        horizon=int(d.get("horizon", 24)),
        period=int(d.get("period", 24)),
        amplitude=float(d.get("amplitude", 5.0)),
        noise=float(d.get("noise", 0.3)),
        level=float(d.get("level", 20.0)),
        domain=str(d.get("domain", "synth")),
    )
    for key in ("length", "horizon", "period"):
        if getattr(family, key) < 1:
            raise CorpusError(f"family {family.name!r}: {key} must be at least 1")
    return family


def generate_sample(
    family: FamilySpec, role: str, index: int, seed: int
) -> tuple[TaskInstance, str, list[float]]:
    """One deterministic sample: (instance, source id, raw future values)."""
    rng = stable_rng("corpus", seed, family.name, role, index)
    n, h = family.length, family.horizon
    phase = rng.randrange(family.period)
    if family.kind in ("seasonal", "indicator"):
        def value(t: int) -> float:
            cycle = math.sin(2.0 * math.pi * (t + phase) / family.period)
            return family.level + family.amplitude * cycle
    elif family.kind == "trending":
        slope = rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 0.2)
        def value(t: int) -> float:
            return family.level + slope * t
    elif family.kind == "trend_label":
        shift = rng.choice((-2.0, 0.0, 2.0))
        def value(t: int) -> float:
            cycle = math.sin(2.0 * math.pi * (t + phase) / family.period)
            base = family.level + family.amplitude * cycle
            return base + (shift if t >= n else 0.0)
    else:
        raise CorpusError(f"unknown synthetic family kind {family.kind!r}")

    history = [value(t) + rng.gauss(0.0, family.noise) for t in range(n)]
    future = [value(n + t) + rng.gauss(0.0, family.noise) for t in range(h)]

    ground_truth: Any
    label_space = None
    if family.kind == "trend_label":
        ground_truth = derive_trend_label(history, future, family.period)
        label_space = TREND_LABELS
    elif family.kind == "indicator":
        ground_truth = {
            "max": max(future),
            "min": min(future),
            "diff": max(future) - min(future),
        }
    else:
        ground_truth = future
    source = f"{family.name}-{'L' if role == 'learning' else 'E'}-{index % 20:02d}"
    instance = TaskInstance(
        id=f"{family.scope}:{source}:{index}",
        series=tuple(history),
        task_type=family.task_type,
        horizon=h,
        scope=family.scope,
        label_space=label_space,
        ground_truth=SealedAnswer(ground_truth),
    )
    return instance, source, future


def generate_synthetic_corpus(
    spec: Mapping[str, Any] | Path, out_dir: Path, seed: Optional[int] = None
) -> dict[str, Any]:
    """Write learning.jsonl and eval.jsonl from a synthetic-spec mapping or
    JSON file; deterministic per seed, with disjoint source pools per role.
    Every sample is made before the first file is written, so a spec that
    fails partway writes nothing."""
    if isinstance(spec, (str, Path)):
        spec = read_json(spec)
    if not isinstance(spec, Mapping) or not isinstance(spec.get("families"), list):
        raise CorpusError("a synthetic spec is a JSON object with a list of families")
    try:
        seed = int(spec.get("seed", 0)) if seed is None else seed
        families = [family_from_dict(f) for f in spec["families"]]
    except KeyError as exc:
        raise CorpusError(f"synthetic spec: a family has no {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise CorpusError(f"synthetic spec: {exc}") from None
    pools = {
        role: [
            generate_sample(family, role, i, seed)[:2]
            for family in families
            for i in range(family.learn_count if role == "learning" else family.eval_count)
        ]
        for role in ("learning", "evaluation")
    }
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary: dict[str, Any] = {"seed": seed, "files": {}, "counts": {}}
    for (role, samples), filename in zip(pools.items(), ("learning.jsonl", "eval.jsonl")):
        path = out_dir / filename
        write_samples([inst for inst, _source in samples], path, {inst.id: source for inst, source in samples})
        summary["files"][role] = str(path)
        summary["counts"][role] = len(samples)
    return summary
