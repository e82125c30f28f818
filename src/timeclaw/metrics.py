"""Evaluation metrics, length alignment, label-space mappings, and filtered
scope aggregation.

All metric functions require pre-aligned inputs; use :func:`align_length` to
resample a prediction onto the ground-truth grid first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

import numpy as np

from .errors import ContractError

LABEL_TASK_TYPES = ("trend", "trend_past", "correlation", "mcqa")


def _as_pair(pred: Sequence[float], truth: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(pred, dtype=float)
    t = np.asarray(truth, dtype=float)
    if p.ndim != 1 or t.ndim != 1:
        raise ContractError("metric inputs must be 1-d sequences")
    if len(p) != len(t):
        raise ContractError(f"length mismatch: pred={len(p)} truth={len(t)}; align first")
    if len(p) == 0:
        raise ContractError("metric inputs must be non-empty")
    return p, t


def mae(pred: Sequence[float], truth: Sequence[float]) -> float:
    """Mean absolute error; ``inf`` when an error passes the float range,
    without a RuntimeWarning."""
    p, t = _as_pair(pred, truth)
    with np.errstate(over="ignore"):
        return float(np.mean(np.abs(p - t)))


def mse(pred: Sequence[float], truth: Sequence[float]) -> float:
    """Mean squared error; ``inf`` when a squared error passes the float
    range (errors past about 1e154), without a RuntimeWarning."""
    p, t = _as_pair(pred, truth)
    with np.errstate(over="ignore"):
        return float(np.mean(np.square(p - t)))


def rmse(pred: Sequence[float], truth: Sequence[float]) -> float:
    return float(np.sqrt(mse(pred, truth)))


def mape(pred: Sequence[float], truth: Sequence[float]) -> float | None:
    """Mean absolute percentage error, in percent; ``inf`` when an error over
    its truth passes the float range, without a RuntimeWarning.

    Undefined (returns None) when any ground-truth value is exactly zero.
    """
    p, t = _as_pair(pred, truth)
    if np.any(t == 0.0):
        return None
    with np.errstate(over="ignore"):
        return float(np.mean(np.abs((p - t) / t)) * 100.0)


def align_length(pred: Sequence[float], target_len: int) -> list[float]:
    """Resample ``pred`` to ``target_len`` points by linear interpolation on
    the normalized [0, 1] index grid.

    Identity when the lengths already match; endpoints are always preserved.
    """
    if len(pred) == 0:
        raise ContractError("cannot align an empty prediction")
    if target_len < 1:
        raise ContractError("target length must be >= 1")
    if target_len == len(pred):
        return [float(v) for v in pred]
    if len(pred) == 1:
        return [float(pred[0])] * target_len
    src = np.linspace(0.0, 1.0, len(pred))
    dst = np.linspace(0.0, 1.0, target_len)
    return [float(v) for v in np.interp(dst, src, np.asarray(pred, dtype=float))]


def map_5way_to_3way(label: str, label_space: Sequence[str]) -> str:
    """Collapse an ordered 5-way label space symmetrically onto down/neutral/up."""
    if len(label_space) != 5:
        raise ContractError(f"expected a 5-way label space, got {len(label_space)} labels")
    try:
        idx = list(label_space).index(label)
    except ValueError:
        raise ContractError(f"label {label!r} not in the 5-way space") from None
    return ("down", "down", "neutral", "up", "up")[idx]


def supervision_metric(task_type: str, scope: str) -> str:
    """Name of the metric used as the supervision loss for a scope.

    Forecasting defaults to MAE; weather forecasting and MACD-style indicator
    trajectories use MSE, as do named-scalar indicator tasks. Label tasks use
    0/1 accuracy.
    """
    if task_type in LABEL_TASK_TYPES:
        return "accuracy"
    if task_type == "indicator":
        return "mse"
    scope_l = scope.lower()
    if "macd" in scope_l or scope_l.startswith("weather"):
        return "mse"
    return "mae"


@dataclass(frozen=True)
class MetricReport:
    """Per-sample metric values. Numeric tasks fill the error fields, label
    tasks fill ``correct``; ``mape`` is None when undefined."""

    n_points: int
    mae: float | None = None
    mape: float | None = None
    rmse: float | None = None
    mse: float | None = None
    correct: bool | None = None

    @property
    def is_label(self) -> bool:
        return self.correct is not None

    def value(self, metric: str) -> float | None:
        if metric == "accuracy":
            return None if self.correct is None else (1.0 if self.correct else 0.0)
        return getattr(self, metric)

    def loss(self, metric: str) -> float | None:
        """``metric`` as a loss to minimise: 1 - accuracy for labels."""
        return 1.0 - self.value(metric) if metric == "accuracy" else self.value(metric)

    def to_dict(self) -> dict[str, Any]:
        if self.is_label:
            return {"correct": bool(self.correct), "n_points": self.n_points}
        return {
            "mae": self.mae,
            "mape": self.mape,
            "rmse": self.rmse,
            "mse": self.mse,
            "n_points": self.n_points,
        }


def numeric_report(pred: Sequence[float], truth: Sequence[float]) -> MetricReport:
    """Full numeric report over pre-aligned vectors: the floats of
    :func:`mae`, :func:`mape`, :func:`rmse` and :func:`mse`, from one
    conversion of each vector and one difference vector."""
    p, t = _as_pair(pred, truth)
    with np.errstate(over="ignore"):  # past the float range is inf, as in each metric's function
        d = p - t
        squared = float(np.mean(np.square(d)))
        percent = None if np.any(t == 0.0) else float(np.mean(np.abs(d / t)) * 100.0)
    return MetricReport(
        n_points=len(t),
        mae=float(np.mean(np.abs(d))),
        mape=percent,
        rmse=float(np.sqrt(squared)),
        mse=squared,
    )


def label_report(pred: str, truth: str) -> MetricReport:
    return MetricReport(n_points=1, correct=(pred == truth))


def answer_report(answer: Any, truth: Any, task_type: str) -> MetricReport:
    """Score one answer: labels 0/1, indicators over their keys in sorted
    order, forecasts after aligning to the ground-truth length."""
    if task_type in LABEL_TASK_TYPES:
        return label_report(answer, truth)
    if task_type == "indicator":
        order = sorted(truth.keys())
        return numeric_report([float(answer[k]) for k in order], [float(truth[k]) for k in order])
    aligned = align_length([float(v) for v in answer], len(truth))
    return numeric_report(aligned, [float(v) for v in truth])


@dataclass(frozen=True)
class Unscorable:
    """Marker for a row that cannot contribute to any aggregate."""

    reason: str = "unscorable"


@dataclass(frozen=True)
class SummaryPolicy:
    """Aggregation policy for one scope.

    ``threshold`` applies to the scope's supervision metric only; rows above
    it stay in the raw log but are excluded from the means.
    """

    supervision_metric: str = "mae"
    threshold: float | None = None

    def __post_init__(self) -> None:
        t = self.threshold
        if t is not None and (isinstance(t, bool) or not isinstance(t, (int, float)) or not t > 0):
            raise ContractError("threshold must be a positive number")


@dataclass
class SummaryResult:
    scope: str
    metrics: dict[str, float]
    effective_n: int
    raw_n: int
    excluded: list[dict[str, Any]] = field(default_factory=list)

    @property
    def empty(self) -> bool:
        return self.effective_n == 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "scope": self.scope,
            "metrics": dict(self.metrics),
            "effective_n": self.effective_n,
            "raw_n": self.raw_n,
            "excluded": list(self.excluded),
        }


def summarize(
    rows: Iterable[MetricReport | Unscorable | None],
    policy: SummaryPolicy,
    scope: str = "",
) -> SummaryResult:
    """Aggregate one scope's rows under the official-style filtering policy.

    Unscorable rows are excluded; numeric rows whose supervision-metric value
    exceeds the threshold are excluded from the means but retained in raw_n.
    """
    rows = list(rows)
    raw_n = len(rows)
    excluded: list[dict[str, Any]] = []
    included: list[MetricReport] = []
    for i, row in enumerate(rows):
        if row is None or isinstance(row, Unscorable):
            reason = row.reason if isinstance(row, Unscorable) else "unscorable"
            excluded.append({"index": i, "reason": reason})
            continue
        if policy.threshold is not None:
            v = row.value(policy.supervision_metric)
            if v is not None and v > policy.threshold:
                excluded.append({"index": i, "reason": "over_threshold"})
                continue
        included.append(row)

    if not included:
        return SummaryResult(scope=scope, metrics={}, effective_n=0, raw_n=raw_n, excluded=excluded)

    metrics: dict[str, float] = {}
    if all(r.is_label for r in included):
        metrics["accuracy"] = float(np.mean([1.0 if r.correct else 0.0 for r in included]))
    else:
        numeric = [r for r in included if not r.is_label]
        for name in ("mae", "mse", "rmse"):
            vals = [getattr(r, name) for r in numeric if getattr(r, name) is not None]
            if vals:
                metrics[name] = float(np.mean(vals))
        mapes = [r.mape for r in numeric if r.mape is not None]
        if mapes:
            metrics["mape"] = float(np.mean(mapes))
    return SummaryResult(
        scope=scope,
        metrics=metrics,
        effective_n=len(included),
        raw_n=raw_n,
        excluded=excluded,
    )
