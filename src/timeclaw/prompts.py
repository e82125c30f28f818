"""Prompt assembly in the fixed frame order (Objective -> Observation ->
Decision -> Available Tools), sample fingerprints, and applicability
matching for memory rules.

Prompt construction is pure and never touches ground truth (which is sealed
anyway). fingerprints() profiles many instances in one batched pass: the
series of one length are the rows of one array, at most FINGERPRINT_CHUNK at a
time, and the shared numeric helpers scan their periods (which also gives the
r at each period) and reduce them row by row. Each fingerprint is bit-identical
to the one its sample alone gets; fingerprint() is the batch of one. The
batch pays off where samples share a series length: a sample alone in its
length is profiled as a batch of one, the dearest case per sample. The
builders only format that profile.

What a prompt takes from the store depends only on the retrieval Selection
(and the soul), so the system message and the Support lines are rendered once
per Selection and kept on it (see ``_rendered``), not once per prompt. Likewise
the series preview and the Fingerprint and Profiling lines are rendered once
per sample and kept on its SampleFingerprint, which every prompt of an episode
shares.
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
from .gateway import ChatMessage
from .util import json_dumps

LEARNING_SUMMARY_TYPE = "learning_summary"

LENGTH_BANDS = ((100, "short"), (500, "medium"))


@dataclass(frozen=True)
class SampleFingerprint:
    """Profile of one instance, computed once per exploration episode or
    inference sample (the CLI profiles its whole corpus before the first
    one): the compact fingerprint used for applicability
    matching, plus the statistics the Observation section of every prompt
    renders under Profiling."""

    length: int
    first: float
    last: float
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
                rows[:, 0].tolist(),
                rows[:, -1].tolist(),
                rows.min(axis=1).tolist(),
                rows.max(axis=1).tolist(),
            )
            for i, (period, significant, period_r), profile, first, last, vmin, vmax in stats:
                instance = instances[i]
                out[i] = SampleFingerprint(
                    length=rows.shape[1],
                    first=first,
                    last=last,
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
    declared_tools: list[dict[str, Any]]

    @property
    def system_text(self) -> str:
        return self.system.content

    def declared_tool_names(self) -> list[str]:
        return sorted(t["name"] for t in self.declared_tools)


# A store layer longer than this is cut before it enters a prompt.
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


def _objective_section(
    instance: TaskInstance,
    fp: SampleFingerprint,
    required_final_type: str,
    execution_context: str,
    control_lines: Sequence[str],
) -> str:
    lines = [
        "## Objective",
        "### Task Prompt",
        task_prompt(instance),
        "### Task Boundary",
        f"- scope = {instance.scope}",
        f"- horizon = {instance.horizon}",
        f"- series_length = {len(instance.series)}",
        f"- series_preview = {_rendered(fp, 'preview', lambda: _series_preview(instance))}",
        "### Execution Context",
        execution_context,
        "### Control Context",
        "- state = need_evidence",
        f"- required_final_type = {required_final_type}",
    ]
    lines.extend(control_lines)
    lines.append("### Output Contract")
    t = instance.task_type
    if t == TaskType.FORECAST:
        lines.append(f"- answer: JSON array of {instance.horizon} numbers")
    elif t == TaskType.INDICATOR:
        lines.append("- answer: JSON object with numeric fields max, min, diff")
    else:
        lines.append("- answer: exactly one label from the label space")
        lines.append(f"- label_space = {json_dumps(list(instance.label_space or ()))}")
    lines.append('- finish with JSON: {"answer_type": ..., "answer": ..., "reasoning": ...}')
    return "\n".join(lines)


def _fingerprint_lines(fp: SampleFingerprint) -> list[str]:
    period = (
        f"{fp.dominant_period} ({'significant' if fp.period_significant else 'weak'})"
        if fp.dominant_period is not None
        else "none"
    )
    return [
        f"- length = {fp.length}",
        f"- first = {_fmt(fp.first)}",
        f"- last = {_fmt(fp.last)}",
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
    if fp.dominant_period is not None:
        autocorr = f"best_lag = {fp.dominant_period}, r = {_fmt(fp.period_r)}"
    else:
        autocorr = "undefined"
    return [
        f"- basic_stats: mean = {_fmt(fp.mean)}, std = {_fmt(fp.std)}, min = {_fmt(fp.vmin)}, max = {_fmt(fp.vmax)}",
        f"- autocorrelation: {autocorr}",
        f"- stationarity_check: stationary = {_fmt(fp.stationary)}, mean_shift = {_fmt(fp.mean_shift)}",
        (
            f"- detect_trend: label = {fp.trend_class}, slope = {_fmt(fp.trend_slope)}, "
            f"normalized = {_fmt(fp.trend_normalized)}"
        ),
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


def _support_lines(selection: Any) -> list[str]:
    """Skills and focused tool notes (user-prompt layers)."""
    lines: list[str] = []
    skills = getattr(selection, "skills_text", "") if selection is not None else ""
    tool_notes = getattr(selection, "tool_notes", {}) if selection is not None else {}
    lines.append("#### Skills")
    lines.append(_cap(skills) if skills else "(none)")
    lines.append("#### Focused Tool Notes")
    if tool_notes:
        for tool_id in sorted(tool_notes):
            lines.append(f"- {tool_id}:")
            for note_line in _cap(tool_notes[tool_id]).splitlines():
                lines.append(f"  {note_line}")
    else:
        lines.append("(none)")
    return lines


def _tools_section(declared: Sequence[Mapping[str, Any]]) -> str:
    lines = ["### Available Tools"]
    for schema in sorted(declared, key=lambda s: s["name"]):
        lines.append(f"- {schema['name']}: {schema.get('description', '')}")
    return "\n".join(lines)


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


def _frame(objective: str, observation: str, decision: str, tools: str) -> str:
    return f"{objective}\n\n{observation}\n\n{decision}\n\n{tools}\n"


def _observation_section(fp: SampleFingerprint, selection: Any) -> str:
    sample = _rendered(
        fp,
        "observation",
        lambda: "\n".join(
            ["## Observation", "### Sample Fingerprint", *_fingerprint_lines(fp), "### Profiling", *_profiling_lines(fp)]
        ),
    )
    support = _rendered(selection, "support", lambda: "\n".join(_support_lines(selection)))
    return f"{sample}\n### Support\n{support}"


def build_exploration_prompt(
    instance: TaskInstance,
    fp: SampleFingerprint,
    selection: Any,
    slots: Sequence[Any],
    declared_tools: Sequence[Mapping[str, Any]],
    soul: str = "",
) -> PromptBundle:
    """Main-agent exploration context: spawn/evaluate guidance, slot hints,
    and a learning_summary completion contract. With prior rules, it also
    asks for a prior-guided and an alternative candidate."""
    rules = getattr(selection, "rules", ())
    objective = _objective_section(
        instance,
        fp,
        LEARNING_SUMMARY_TYPE,
        "- exploration episode: compare candidate executions before finishing",
        control_lines=[f"- branch_slots = {len(slots)}"],
    )
    observation = _observation_section(fp, selection)

    decision_lines = [
        "## Decision",
        "### Spawn Guidance",
        "- Prefer spawn_subagent to explore multiple candidate branches for comparison.",
        f"- The first spawn round must create at least {max(2, len(slots))} distinct candidate branches.",
        "### Evaluate Guidance",
        "- evaluate_* tools are for post-hoc validation, not for solving the task itself.",
        "- Evaluate at least one task-valid candidate before finishing.",
        "- Compare at least 2 candidate paths before finishing when possible.",
        f'- If you finish the learning run itself, answer_type must be "{LEARNING_SUMMARY_TYPE}".',
    ]
    if rules:
        decision_lines.append("### Prior Requirement")
        decision_lines.append(
            "- Include both a prior-guided candidate and an alternative candidate."
        )
    decision_lines.append("### Slot Hints")
    for slot in slots:
        visible = ", ".join(sorted(slot.visible_tools))
        role = "prior-guided" if slot.prior_guided else ("alternative" if slot.alternative else "open")
        decision_lines.append(
            f"- slot {slot.slot} ({role}): goal = {slot.goal}; hint = {slot.hint}; visible = {visible}"
        )
    decision = "\n".join(decision_lines)

    return PromptBundle(
        system=_system_message(selection, soul),
        user_text=_frame(objective, observation, decision, _tools_section(declared_tools)),
        declared_tools=list(declared_tools),
    )


def build_branch_prompt(
    instance: TaskInstance,
    fp: SampleFingerprint,
    slot: Any,
    declared_tools: Sequence[Mapping[str, Any]],
    selection: Any = None,
    soul: str = "",
) -> PromptBundle:
    """Sub-agent variant: same frame plus a branch-local goal and slot-local
    tool hint; the branch finishes with an ordinary task answer."""
    objective = _objective_section(
        instance,
        fp,
        instance.task_type.value,
        "- exploration branch: produce one candidate execution",
        control_lines=[f"- slot = {slot.slot}"],
    )
    observation = _observation_section(fp, selection)
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
        user_text=_frame(objective, observation, decision, _tools_section(declared_tools)),
        declared_tools=list(declared_tools),
    )


def build_inference_prompt(
    instance: TaskInstance,
    fp: SampleFingerprint,
    selection: Any,
    declared_tools: Sequence[Mapping[str, Any]],
    soul: str = "",
) -> PromptBundle:
    """Inference context: reinjected experience, task-facing tools only, and
    an ordinary answer contract."""
    for r in getattr(selection, "rules", ()):
        if not r.injectable:
            raise ContractError(f"rule {r.rule_id} is not injectable and cannot be rendered")
    declared_names = {t["name"] for t in declared_tools}
    forbidden = {"spawn_subagent", "evaluate_against_gt", "evaluate_batch_against_gt"}
    if declared_names & forbidden:
        raise ContractError("exploration-only tools cannot be declared at inference")
    objective = _objective_section(
        instance,
        fp,
        instance.task_type.value,
        "- inference: solve the task with previously distilled experience",
        control_lines=[],
    )
    observation = _observation_section(fp, selection)
    decision = "\n".join(
        [
            "## Decision",
            "### Decision Guidance",
            "- Follow remembered preferences when they apply; otherwise use the",
            "  simplest tool that satisfies the output contract.",
            "### Completion",
            f"- ordinary task answer contract (answer_type = {instance.task_type.value})",
            "- no learning_summary",
        ]
    )
    return PromptBundle(
        system=_system_message(selection, soul),
        user_text=_frame(objective, observation, decision, _tools_section(declared_tools)),
        declared_tools=list(declared_tools),
    )
