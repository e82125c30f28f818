"""Prompt assembly in the fixed frame order (Objective -> Observation ->
Decision), sample fingerprints, and applicability matching for memory rules.

Prompt construction is pure and never touches ground truth (which is sealed
anyway). fingerprints() profiles many instances in one batched pass: the
series of one length are the rows of one array, at most FINGERPRINT_CHUNK at a
time, and the shared numeric helpers scan their periods (which also gives the
r at each period) and reduce them row by row. Each fingerprint is bit-identical
to the one its sample alone gets; fingerprint() is the batch of one. The
batch pays off where samples share a series length: a sample alone in its
length is profiled as a batch of one, the dearest case per sample. The
builders only format that profile.

A prompt states each fact once. What it takes from the store is the retrieval
Selection's rules, each rendered once, as one Memory line of the system
message; the user text holds none of them. So the system message depends only
on the Selection (and the soul), and is rendered once per Selection and kept on
it (see ``_rendered``), not once per prompt. Likewise the series preview and
the Fingerprint and Profiling lines are rendered once per sample and kept on
its SampleFingerprint, which every prompt of an episode shares. The user text
lists no tools: each exchange declares them in its ``tools`` schemas (the
prompt's ``DeclaredTools``), which is where a model reads them. There are two
frames, the branch and the inference frame, and both ask for an answer under
an Output Contract: an exploration episode's prompts are its branches'
(``build_exploration_prompt``).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Mapping, Optional, Sequence, TypeVar

import numpy as np

from . import seriesops
from .core import TaskInstance, TaskType
from .errors import ContractError
from .gateway import ChatMessage, DeclaredTools
from .util import json_dumps

LENGTH_BANDS = ((100, "short"), (500, "medium"))


@dataclass(frozen=True)
class SampleFingerprint:
    """Profile of one instance, computed once per exploration episode or
    inference sample (the CLI profiles its whole corpus before the first
    one): the compact fingerprint used for applicability
    matching, plus the statistics the Observation section of every prompt
    renders under Profiling."""

    length: int
    vmin: float
    vmax: float
    mean: float
    std: float
    dominant_period: Optional[int]
    period_significant: bool
    trend_class: str
    boundary_event: bool
    task_subtype: str
    period_r: Optional[float]  # lagged correlation at dominant_period
    trend_slope: float
    trend_normalized: float
    stationary: bool
    mean_shift: float
    n_anomalies: int

    @property
    def seasonal(self) -> bool:
        return self.period_significant

    @property
    def length_band(self) -> str:
        for cutoff, band in LENGTH_BANDS:
            if self.length < cutoff:
                return band
        return "long"

    def fields(self) -> dict[str, Any]:
        """The predicate vocabulary applicability conditions may reference."""
        return {
            "task_subtype": self.task_subtype,
            "seasonal": self.seasonal,
            "trend_class": self.trend_class,
            "boundary_event": self.boundary_event,
            "length_band": self.length_band,
        }

    @cached_property
    def rendered(self) -> dict[str, str]:
        """What the prompt builders render from this sample, kept for the
        episode's later prompts (see ``_rendered``). Not a field, so
        ``dataclasses.asdict`` and ``replace`` leave it out."""
        return {}


def _boundary_event(instance: TaskInstance) -> bool:
    if instance.timestamps is None or not instance.text_context:
        return False
    t0, t1 = instance.timestamps[0], instance.timestamps[-1]
    n = len(instance.timestamps)
    for block in instance.text_context:
        if block.date is None or not (t0 <= block.date <= t1):
            continue
        pos = bisect.bisect_right(instance.timestamps, block.date)
        if pos / n >= 0.9:
            return True
    return False


# rows profiled together at most: bounds the arrays one batch allocates,
# whatever the corpus size
FINGERPRINT_CHUNK = 256


def fingerprints(instances: Sequence[TaskInstance]) -> list[SampleFingerprint]:
    """The fingerprint of each instance, in order. The series of one length
    are profiled together, FINGERPRINT_CHUNK rows at a time, by the row-wise
    period scan and reductions of ``seriesops``; each fingerprint is the one
    the sample alone would get."""
    by_length: dict[int, list[int]] = {}
    for i, instance in enumerate(instances):
        by_length.setdefault(len(instance.series), []).append(i)
    out: dict[int, SampleFingerprint] = {}
    for indices in by_length.values():
        for start in range(0, len(indices), FINGERPRINT_CHUNK):
            block = indices[start : start + FINGERPRINT_CHUNK]
            rows = np.array([instances[i].series for i in block], dtype=float)
            stats = zip(
                block,
                seriesops.dominant_periods(rows),
                seriesops.profiles(rows),
                rows.min(axis=1).tolist(),
                rows.max(axis=1).tolist(),
            )
            for i, (period, significant, period_r), profile, vmin, vmax in stats:
                instance = instances[i]
                out[i] = SampleFingerprint(
                    length=rows.shape[1],
                    vmin=vmin,
                    vmax=vmax,
                    mean=profile.mean,
                    std=profile.std,
                    dominant_period=period,
                    period_significant=significant,
                    trend_class=profile.trend_class,
                    boundary_event=_boundary_event(instance),
                    task_subtype=instance.task_type.value,
                    period_r=period_r,
                    trend_slope=profile.trend_slope,
                    trend_normalized=profile.trend_normalized,
                    stationary=profile.stationary,
                    mean_shift=profile.mean_shift,
                    n_anomalies=profile.n_anomalies,
                )
    return [out[i] for i in range(len(instances))]


def fingerprint(instance: TaskInstance) -> SampleFingerprint:
    return fingerprints([instance])[0]


def match(applicability: Mapping[str, Any], fp: SampleFingerprint) -> bool:
    """Conjunction of field predicates; absent fields are wildcards, unknown
    predicate keys never match (conservative)."""
    fields = fp.fields()
    for key, expected in applicability.items():
        if key not in fields:
            return False
        if fields[key] != expected:
            return False
    return True


@dataclass
class PromptBundle:
    system: ChatMessage  # shared by every prompt built from one Selection
    user_text: str
    declared_tools: DeclaredTools  # every exchange of the prompt declares this list

    @property
    def system_text(self) -> str:
        return self.system.content


# A Memory render longer than this is cut before it enters a prompt.
MAX_LAYER_CHARS = 4000


def _cap(text: str) -> str:
    if len(text) <= MAX_LAYER_CHARS:
        return text
    return text[:MAX_LAYER_CHARS] + "\n...[truncated]"


def _fmt(v: Any) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def task_prompt(instance: TaskInstance) -> str:
    t = instance.task_type
    h = instance.horizon
    if t == TaskType.FORECAST:
        return f"Predict the next {h} values of the series."
    if t == TaskType.INDICATOR:
        return f"Predict the max, min, and diff summary values of the next {h} steps."
    if t == TaskType.TREND:
        return f"Predict the trend label of the next {h} steps."
    if t == TaskType.TREND_PAST:
        return "Classify the trend already present in the observed series."
    if t == TaskType.CORRELATION:
        return "Judge how the text context relates to the future movement of the series."
    return "Answer the multiple-choice question using the series and text context."


def _series_preview(instance: TaskInstance, k: int = 5) -> str:
    vals = [float(v) for v in instance.series]
    if len(vals) <= 2 * k:
        body = ", ".join(_fmt(v) for v in vals)
    else:
        head = ", ".join(_fmt(v) for v in vals[:k])
        tail = ", ".join(_fmt(v) for v in vals[-k:])
        body = f"{head}, ..., {tail}"
    return f"[{body}]"


def _objective_section(instance: TaskInstance, fp: SampleFingerprint, execution_context: str) -> str:
    """The task, its boundary and the answer it must finish with."""
    lines = [
        "## Objective",
        "### Task Prompt",
        task_prompt(instance),
        "### Task Boundary",
        f"- scope = {instance.scope}",
        f"- horizon = {instance.horizon}",
        f"- series_preview = {_rendered(fp, 'preview', lambda: _series_preview(instance))}",
        "### Execution Context",
        execution_context,
        "### Control Context",
        f"- required_final_type = {instance.task_type.value}",
    ]
    return "\n".join(lines) + "\n" + _output_contract(instance)


def _output_contract(instance: TaskInstance) -> str:
    """The answer a branch or an inference must finish with."""
    lines = ["### Output Contract"]
    t = instance.task_type
    # what an answer_from reads from the artifact of the call beside it; an
    # indicator is derived from a series, so it is always stated
    source = None
    if t == TaskType.FORECAST:
        lines.append(f"- answer: JSON array of {instance.horizon} numbers")
        source = "the values of the series it returns"
    elif t == TaskType.INDICATOR:
        lines.append("- answer: JSON object with numeric fields max, min, diff")
    else:
        lines.append("- answer: exactly one label from the label space")
        lines.append(f"- label_space = {json_dumps(list(instance.label_space or ()))}")
        source = "the label it returns"
    finish = '- finish with JSON: {"answer_type": ..., "answer": ..., "reasoning": ...}'
    if source:
        finish += f'; or send {{"answer_type": ..., "answer_from": "<tool>", "reasoning": ...}} beside one call of that tool to answer with {source}'
    lines.append(finish)
    return "\n".join(lines)


def _fingerprint_lines(fp: SampleFingerprint) -> list[str]:
    period = (
        f"{fp.dominant_period} ({'significant' if fp.period_significant else 'weak'})"
        if fp.dominant_period is not None
        else "none"
    )
    return [
        f"- length = {fp.length}",
        f"- min = {_fmt(fp.vmin)}",
        f"- max = {_fmt(fp.vmax)}",
        f"- mean = {_fmt(fp.mean)}",
        f"- std = {_fmt(fp.std)}",
        f"- dominant_period = {period}",
        f"- trend_class = {fp.trend_class}",
        f"- boundary_event = {_fmt(fp.boundary_event)}",
        f"- task_subtype = {fp.task_subtype}",
        f"- length_band = {fp.length_band}",
    ]


def _profiling_lines(fp: SampleFingerprint) -> list[str]:
    """The profile values the Sample Fingerprint does not already state."""
    autocorr = f"r = {_fmt(fp.period_r)}" if fp.dominant_period is not None else "undefined"
    return [
        f"- autocorrelation: {autocorr}",
        f"- stationarity_check: stationary = {_fmt(fp.stationary)}, mean_shift = {_fmt(fp.mean_shift)}",
        f"- detect_trend: slope = {_fmt(fp.trend_slope)}, normalized = {_fmt(fp.trend_normalized)}",
        f"- detect_anomaly: n_flagged = {fp.n_anomalies}",
    ]


def render_memory_rules(rules: Sequence[Any]) -> str:
    if not rules:
        return "(no injectable memory)"
    lines = []
    for r in rules:
        prefer = ", ".join(sorted(r.preferred_tools)) or "-"
        avoid = ", ".join(sorted(r.avoided_tools)) or "-"
        chi = json_dumps(r.applicability, sort_keys=True)
        lines.append(
            f"- [{r.rule_id}|{r.kind}|c={r.confidence:.2f}] prefer: {prefer}; avoid: {avoid}; when: {chi}"
        )
    return _cap("\n".join(lines))


_T = TypeVar("_T")


def _rendered(source: Any, key: Any, build: Callable[[], _T]) -> _T:
    """``build()``, kept in ``source.rendered`` when the source has that cache
    (a store's Selection or a SampleFingerprint, both read-only, so what is
    rendered from one stays valid as long as it does). Threads that race both
    build the same value, and either may be kept."""
    cache = getattr(source, "rendered", None)
    if cache is None:
        return build()
    value = cache.get(key)
    if value is None:
        value = cache[key] = build()
    return value


def _system_text(soul: str, rules: Sequence[Any]) -> str:
    return f"{soul.strip()}\n\n## Memory\n{render_memory_rules(rules)}\n"


def _system_message(selection: Any, soul: str) -> ChatMessage:
    """The system message of every prompt built from ``selection``: soul plus
    its memory rules. One message object per Selection and soul, so the
    digest piece it caches is also computed once."""
    return _rendered(
        selection,
        ("system", soul),
        lambda: ChatMessage(role="system", content=_system_text(soul, getattr(selection, "rules", ()))),
    )


def _frame(objective: str, observation: str, decision: str) -> str:
    return f"{objective}\n\n{observation}\n\n{decision}\n"


def _observation_section(fp: SampleFingerprint) -> str:
    return _rendered(
        fp,
        "observation",
        lambda: "\n".join(
            ["## Observation", "### Sample Fingerprint", *_fingerprint_lines(fp), "### Profiling", *_profiling_lines(fp)]
        ),
    )


def build_exploration_prompt(
    instance: TaskInstance,
    fp: SampleFingerprint,
    selection: Any,
    slots: Sequence[Any],
    declared_tools: Sequence[DeclaredTools],
    soul: str = "",
) -> list[PromptBundle]:
    """One exploration episode's prompts: each slot's branch prompt (see
    ``build_branch_prompt``), declaring the tool list at the same position of
    ``declared_tools``. The engine has fixed each slot's goal, hint and
    visible tools, so the branches are the whole of Explore."""
    return [
        build_branch_prompt(instance, fp, slot, tools, selection=selection, soul=soul)
        for slot, tools in zip(slots, declared_tools, strict=True)
    ]


def build_branch_prompt(
    instance: TaskInstance,
    fp: SampleFingerprint,
    slot: Any,
    declared_tools: DeclaredTools,
    selection: Any = None,
    soul: str = "",
) -> PromptBundle:
    """Sub-agent variant: same frame plus a branch-local goal and slot-local
    tool hint; the branch finishes with an ordinary task answer."""
    objective = _objective_section(instance, fp, "- exploration branch: produce one candidate execution")
    observation = _observation_section(fp)
    decision = "\n".join(
        [
            "## Decision",
            "### Branch Goal",
            f"- slot = {slot.slot}",
            f"- goal = {slot.goal}",
            f"- hint = {slot.hint}",
            "- Use the hinted tool unless its output is unusable; then answer.",
        ]
    )
    return PromptBundle(
        system=_system_message(selection, soul),
        user_text=_frame(objective, observation, decision),
        declared_tools=declared_tools,
    )


def build_inference_prompt(
    instance: TaskInstance,
    fp: SampleFingerprint,
    selection: Any,
    declared_tools: DeclaredTools,
    soul: str = "",
) -> PromptBundle:
    """Inference context: reinjected experience, task-facing tools only, and
    an ordinary answer contract."""
    for r in getattr(selection, "rules", ()):
        if not r.injectable:
            raise ContractError(f"rule {r.rule_id} is not injectable and cannot be rendered")
    objective = _objective_section(instance, fp, "- inference: solve the task with previously distilled experience")
    observation = _observation_section(fp)
    decision = "\n".join(
        [
            "## Decision",
            "### Decision Guidance",
            "- Follow remembered preferences when they apply; otherwise use the",
            "  simplest tool that satisfies the output contract.",
        ]
    )
    return PromptBundle(
        system=_system_message(selection, soul),
        user_text=_frame(objective, observation, decision),
        declared_tools=declared_tools,
    )
