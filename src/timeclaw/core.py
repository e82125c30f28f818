"""Shared domain types: task instances, typed artifacts, candidate
executions, and episode outcomes.

Ground truth is sealed behind a field-level capability gate: only holders of
an :class:`EvaluatorCapability` (exploration-only evaluators and the offline
scorer) may read it. Prompt assembly and inference code paths never hold one.
"""

from __future__ import annotations

import enum
import hashlib
import math
import operator
import struct
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from typing import Any, Mapping, Optional, Sequence

from .errors import CapabilityError, ContractError, GroundTruthSealedError
from .util import canonical_json


class TaskType(str, enum.Enum):
    FORECAST = "forecast"
    INDICATOR = "indicator"
    TREND = "trend"
    TREND_PAST = "trend_past"
    CORRELATION = "correlation"
    MCQA = "mcqa"


CLASSIFICATION_TYPES = frozenset(
    {TaskType.TREND, TaskType.TREND_PAST, TaskType.CORRELATION, TaskType.MCQA}
)
NUMERIC_TYPES = frozenset({TaskType.FORECAST, TaskType.INDICATOR})

# Named scalar fields an indicator answer must provide.
INDICATOR_FIELDS = ("max", "min", "diff")


class EvaluatorCapability:
    """Opaque token authorizing ground-truth access.

    Constructed only by exploration-time evaluation and offline scoring
    entry points; everything else works with sealed instances.
    """

    __slots__ = ()


class SealedAnswer:
    """Holds a ground-truth payload that only capability holders can read."""

    __slots__ = ("_value",)

    def __init__(self, value: Any):
        self._value = value

    def reveal(self, capability: EvaluatorCapability) -> Any:
        if not isinstance(capability, EvaluatorCapability):
            raise GroundTruthSealedError(
                "ground truth is sealed; an EvaluatorCapability is required"
            )
        return self._value

    def __repr__(self) -> str:  # never leak the payload through repr/str
        return "SealedAnswer(<sealed>)"

    __str__ = __repr__

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, SealedAnswer) and self._value == other._value

    __hash__ = None  # type: ignore[assignment]


@dataclass(frozen=True)
class TextBlock:
    body: str
    date: Optional[str] = None  # ISO-8601 anchor, when known


@dataclass(frozen=True)
class TaskInstance:
    """One benchmark sample: series, optional text context, task type, and
    the scope key under which experience is stored."""

    id: str
    series: tuple[float, ...]
    task_type: TaskType
    horizon: int
    scope: str
    timestamps: Optional[tuple[str, ...]] = None
    text_context: Optional[tuple[TextBlock, ...]] = None
    label_space: Optional[tuple[str, ...]] = None
    ground_truth: Optional[SealedAnswer] = None

    def __post_init__(self) -> None:
        if not self.series:
            raise ContractError(f"instance {self.id}: series must be non-empty")
        if not all(map(math.isfinite, self.series)):
            raise ContractError(f"instance {self.id}: series values must be finite")
        if self.timestamps is not None:
            if len(self.timestamps) != len(self.series):
                raise ContractError(f"instance {self.id}: timestamps/series length mismatch")
            if any(map(operator.ge, self.timestamps, self.timestamps[1:])):
                raise ContractError(f"instance {self.id}: timestamps must strictly increase")
        if self.task_type in NUMERIC_TYPES and self.horizon < 1:
            raise ContractError(f"instance {self.id}: horizon must be >= 1 for numeric tasks")
        is_classification = self.task_type in CLASSIFICATION_TYPES
        if is_classification and not self.label_space:
            raise ContractError(f"instance {self.id}: classification tasks need a label space")
        if not is_classification and self.label_space:
            raise ContractError(f"instance {self.id}: label space only applies to classification")

    @property
    def has_ground_truth(self) -> bool:
        return self.ground_truth is not None

    def answer_key(self, capability: EvaluatorCapability) -> Any:
        """Reveal the ground truth to a capability holder."""
        if self.ground_truth is None:
            raise CapabilityError(f"instance {self.id} carries no ground truth")
        return self.ground_truth.reveal(capability)

    def public_dict(self) -> dict[str, Any]:
        """JSON-safe view with the ground truth withheld."""
        out = self._public_fields()
        out["series"] = [float(v) for v in self.series]
        return out

    def _public_fields(self) -> dict[str, Any]:
        """The public fields other than the series."""
        out: dict[str, Any] = {
            "id": self.id,
            "task_type": self.task_type.value,
            "horizon": self.horizon,
            "scope": self.scope,
        }
        if self.timestamps is not None:
            out["timestamps"] = list(self.timestamps)
        if self.text_context is not None:
            out["text"] = [{"body": b.body, "date": b.date} for b in self.text_context]
        if self.label_space is not None:
            out["label_space"] = list(self.label_space)
        return out

    @cached_property
    def digest(self) -> str:
        """The sample's name in a trace header: the first 16 hex digits of
        SHA-256 over the canonical JSON of the public fields other than the
        series, a newline, and the series packed as little-endian doubles.
        No value is turned into text, so the cost hardly grows with the
        series; and ``0.0`` and ``-0.0``, or two floats one ulp apart, differ."""
        fields = canonical_json(self._public_fields()).encode()
        values = struct.pack(f"<{len(self.series)}d", *self.series)
        return hashlib.sha256(fields + b"\n" + values).hexdigest()[:16]


@dataclass(frozen=True)
class Verdict:
    valid: bool
    reason: Optional[str] = None


def _all_numbers(values: Any) -> bool:
    """Whether every value is a finite int or float, not a bool, checked in
    C-level passes over the sequence. An int past the float range is not
    one: ``math.isfinite`` cannot convert it."""
    try:
        return (
            all(map(isinstance, values, repeat((int, float))))
            and not any(map(isinstance, values, repeat(bool)))
            and all(map(math.isfinite, values))
        )
    except OverflowError:
        return False


def validate_answer(answer: Any, instance: TaskInstance) -> Verdict:
    """Check an answer against the output contract of the instance's task type.

    Never raises for a malformed answer; returns an invalid verdict with a
    reason code instead. Forecast length mismatches are allowed here because
    alignment repairs them before scoring.
    """
    t = instance.task_type
    if t == TaskType.FORECAST:
        if not isinstance(answer, (list, tuple)):
            return Verdict(False, "not_a_sequence")
        if len(answer) == 0:
            return Verdict(False, "empty_sequence")
        if not _all_numbers(answer):
            return Verdict(False, "non_numeric_element")
        return Verdict(True)
    if t == TaskType.INDICATOR:
        if not isinstance(answer, Mapping):
            return Verdict(False, "not_a_mapping")
        for name in INDICATOR_FIELDS:
            if name not in answer:
                return Verdict(False, f"missing_field:{name}")
            if not _all_numbers((answer[name],)):
                return Verdict(False, f"non_numeric_field:{name}")
        return Verdict(True)
    # classification families
    if not isinstance(answer, str):
        return Verdict(False, "not_a_label")
    if answer not in (instance.label_space or ()):
        return Verdict(False, "label_not_in_space")
    return Verdict(True)


class EvidenceClass(str, enum.Enum):
    COMPARATIVE = "comparative"
    SINGLE_EXECUTION = "single_execution"
    FAILURE = "failure"


@dataclass
class CandidateExecution:
    """One branch trajectory: its final answer, verdict and substantive tool chain."""

    branch_id: str
    slot: int
    final_answer: Any
    valid: bool
    quality: Optional[float] = None  # set by compare from its evaluation report
    substantive_chain: tuple[str, ...] = ()
    prior_guided: bool = False
    alternative: bool = False
    failure_reason: Optional[str] = None


def compare(valid: Sequence[CandidateExecution], reports: Mapping[str, Any]) -> tuple[EvidenceClass, Optional[str], bool]:
    """Score each valid candidate from its branch's evaluation report (one
    without a ``quality`` leaves it unscored); return the evidence class, the
    winner's branch id and whether any candidate was scored. The winner has
    the best quality, then the shorter substantive chain, then the lower
    slot; with none scored, it is the valid one first by the last two."""
    for c in valid:
        report = reports.get(c.branch_id)
        if report and "quality" in report:
            c.quality = float(report["quality"])
    if not valid:
        return EvidenceClass.FAILURE, None, False
    scored = [c for c in valid if c.quality is not None]
    winner = min(scored or valid, key=lambda c: (-(c.quality or 0.0), len(c.substantive_chain), c.slot))
    evidence = EvidenceClass.COMPARATIVE if len(scored) >= 2 else EvidenceClass.SINGLE_EXECUTION
    return evidence, winner.branch_id, bool(scored)


@dataclass
class EpisodeOutcome:
    instance_id: str
    candidates: list[CandidateExecution]
    winner: Optional[str]
    evidence_class: EvidenceClass
    trace_path: str  # the scope's trace log that holds the episode's block
    eval_evidence: bool = False
    eval_reports: dict[str, Any] = field(default_factory=dict)  # recorded evaluation evidence per branch
    tokens_used: int = 0
    gateway_calls: int = 0

    def __post_init__(self) -> None:
        if (self.winner is not None) == (self.evidence_class == EvidenceClass.FAILURE):
            raise ContractError("winner must be present exactly when the episode did not fail")

    def winning_candidate(self) -> Optional[CandidateExecution]:
        for c in self.candidates:
            if c.branch_id == self.winner:
                return c
        return None

