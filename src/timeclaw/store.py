"""Hierarchical distilled experience: Soul, Notes, Memory, Tool notes, and
Skills layers, plus the Summarize -> Clean -> Distill pipeline that feeds
them and the retrieval filter that reinjects them.

Layer roles:

* Soul — static behavioral anchor, written once at store creation and never
  machine-edited afterwards.
* Notes — append-only per-scope episode records; the distillation source,
  never injected into prompts.
* Memory — bounded structured rules (kind, summary, applicability,
  preferred/avoided tools, rationale, evidence, confidence, injectable).
* Tool notes / Skills / Skills-decision — derived layers rebuilt only when
  the memory fingerprint actually changes.

Every mutation of one scope is serialized; notes sequence numbers are
gapless and committed notes are never modified.
"""

from __future__ import annotations

import json
import re
import threading
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence

from .core import EpisodeOutcome, EvidenceClass, TaskInstance
from .errors import ContractError
from .prompts import SampleFingerprint, match, task_prompt
from .util import canonical_json, digest_obj, digest_text

MEMORY_CAP = 30
DISTILL_EVERY = 10
CONFIDENCE_INIT = 0.5
CONFIDENCE_STEP = 0.2
CONFLICT_RESOLVE_SUPPORT = 2

DEFAULT_SOUL = """# Soul

You are a careful time-series analyst. You ground every claim in tool
evidence, respect task output contracts exactly, and prefer the simplest
execution that the evidence supports. You never fabricate numbers.
"""


@dataclass
class MemoryRule:
    """One reusable runtime rule (the structured 9-tuple plus bookkeeping)."""

    rule_id: str
    kind: str  # tool_preference | condition_action | avoidance
    summary: str
    applicability: dict[str, Any]
    preferred_tools: tuple[str, ...]
    avoided_tools: tuple[str, ...]
    rationale: str
    evidence: tuple[str, ...]
    confidence: float
    injectable: bool
    seq: int
    demoted: bool = False  # lost a conflict; stays non-injectable

    def __post_init__(self) -> None:
        if set(self.preferred_tools) & set(self.avoided_tools):
            raise ContractError(f"rule {self.rule_id}: preferred and avoided tools overlap")
        if not self.evidence:
            raise ContractError(f"rule {self.rule_id}: evidence must be non-empty")
        if not 0.0 <= self.confidence <= 1.0:
            raise ContractError(f"rule {self.rule_id}: confidence outside [0, 1]")

    def to_dict(self) -> dict[str, Any]:
        return {
            "rule_id": self.rule_id,
            "kind": self.kind,
            "summary": self.summary,
            "applicability": self.applicability,
            "preferred_tools": sorted(self.preferred_tools),
            "avoided_tools": sorted(self.avoided_tools),
            "rationale": self.rationale,
            "evidence": list(self.evidence),
            "confidence": self.confidence,
            "injectable": self.injectable,
            "seq": self.seq,
            "demoted": self.demoted,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "MemoryRule":
        return cls(
            rule_id=d["rule_id"],
            kind=d["kind"],
            summary=d["summary"],
            applicability=dict(d["applicability"]),
            preferred_tools=tuple(d["preferred_tools"]),
            avoided_tools=tuple(d["avoided_tools"]),
            rationale=d["rationale"],
            evidence=tuple(d["evidence"]),
            confidence=float(d["confidence"]),
            injectable=bool(d["injectable"]),
            seq=int(d["seq"]),
            demoted=bool(d.get("demoted", False)),
        )


@dataclass
class Conflict:
    a: str
    b: str
    support: dict[str, int]
    open: bool = True

    def to_dict(self) -> dict[str, Any]:
        return {"a": self.a, "b": self.b, "support": dict(self.support), "open": self.open}


@dataclass
class LearningNote:
    """Append-only episode record; the distillation source."""

    scope: str
    instance_id: str
    prompt_digest: str
    winner_tools: tuple[str, ...]
    loser_tools: tuple[str, ...]
    metrics: dict[str, Any]
    evidence_class: str
    insight: str
    recommendation: str
    trace_refs: tuple[str, ...]
    applicability: dict[str, Any]
    sensitive: tuple[str, ...] = ()
    eval_evidence: bool = False
    sequence: Optional[int] = None

    def note_ref(self) -> str:
        return f"{self.scope}#note{self.sequence:04d}"


@dataclass
class CleanEvidence:
    """Cleaned, transferable evidence extracted from one note."""

    scope: str
    kind: str
    applicability: dict[str, Any]
    preferred_tools: tuple[str, ...]
    avoided_tools: tuple[str, ...]
    summary: str
    rationale: str
    note_ref: str

    @property
    def has_tool_stance(self) -> bool:
        return bool(self.preferred_tools or self.avoided_tools)


@dataclass
class MemoryState:
    rules: list[MemoryRule] = field(default_factory=list)
    conflicts: list[Conflict] = field(default_factory=list)
    next_seq: int = 1
    distilled_through: int = 0

    def rule(self, rule_id: str) -> MemoryRule:
        for r in self.rules:
            if r.rule_id == rule_id:
                return r
        raise ContractError(f"unknown rule {rule_id}")

    def open_conflicts_of(self, rule_id: str) -> list[Conflict]:
        return [c for c in self.conflicts if c.open and rule_id in (c.a, c.b)]

    def content_fingerprint(self) -> str:
        return digest_text(canonical_json([r.to_dict() for r in self.rules]))

    def to_dict(self) -> dict[str, Any]:
        return {
            "rules": [r.to_dict() for r in self.rules],
            "conflicts": [c.to_dict() for c in self.conflicts],
            "next_seq": self.next_seq,
            "distilled_through": self.distilled_through,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "MemoryState":
        return cls(
            rules=[MemoryRule.from_dict(r) for r in d.get("rules", ())],
            conflicts=[
                Conflict(a=c["a"], b=c["b"], support=dict(c["support"]), open=bool(c["open"]))
                for c in d.get("conflicts", ())
            ],
            next_seq=int(d.get("next_seq", 1)),
            distilled_through=int(d.get("distilled_through", 0)),
        )


# ---------------------------------------------------------------------------
# Summarize
# ---------------------------------------------------------------------------


def _chain_text(tools: Sequence[str]) -> str:
    return " -> ".join(tools) if tools else "(no tools)"


def _applicability_phrase(chi: Mapping[str, Any]) -> str:
    if not chi:
        return "similar samples"
    parts = [f"{k}={json.dumps(v)}" for k, v in sorted(chi.items())]
    return "samples with " + ", ".join(parts)


def summarize_episode(
    outcome: EpisodeOutcome,
    instance: TaskInstance,
    fp: SampleFingerprint,
) -> LearningNote:
    """Build the sample-level learning record for one finished episode.

    The episode's own learning_summary text is preferred when the gateway
    produced one; a deterministic template covers scripted and failure runs.
    The stored winner and tool chain always come from the evaluated outcome,
    not from the text.
    """
    chi = {"task_subtype": fp.task_subtype, "seasonal": fp.seasonal}
    winner = outcome.winning_candidate()
    winner_tools = tuple(winner.substantive_chain) if winner else ()
    loser_tools: tuple[str, ...] = tuple(
        sorted(
            {
                t
                for c in outcome.candidates
                if c.branch_id != outcome.winner
                for t in c.substantive_chain
            }
            - set(winner_tools)
        )
    )
    note_metrics: dict[str, Any] = {}
    for c in outcome.candidates:
        entry: dict[str, Any] = {"valid": c.valid}
        if c.quality is not None:
            entry["quality"] = c.quality
        report = outcome.eval_reports.get(c.branch_id)
        if report:
            entry["report"] = report
        note_metrics[c.branch_id] = entry

    insight = outcome.learning_summary.insight
    recommendation = outcome.learning_summary.recommendation
    if not insight or not recommendation:
        if outcome.evidence_class == EvidenceClass.COMPARATIVE:
            qualities = sorted(
                (c.quality, c.branch_id) for c in outcome.candidates if c.quality is not None
            )
            spread = qualities[-1][0] - qualities[0][0] if len(qualities) >= 2 else 0.0
            insight = (
                f"Among {len(outcome.candidates)} candidates, the {_chain_text(winner_tools)} "
                f"path scored best against ground truth (quality spread {spread:.6g})."
            )
            recommendation = (
                f"For {_applicability_phrase(chi)}, prefer {_chain_text(winner_tools)}"
                + (f" over {_chain_text(loser_tools)}." if loser_tools else ".")
            )
        elif outcome.evidence_class == EvidenceClass.SINGLE_EXECUTION:
            insight = (
                f"Only the {_chain_text(winner_tools)} path produced a task-valid answer; "
                "no comparative signal."
            )
            recommendation = (
                f"Treat {_chain_text(winner_tools)} as a workable path for "
                f"{_applicability_phrase(chi)} pending comparison."
            )
        else:
            insight = "No candidate execution was task-valid."
            recommendation = (
                f"Revisit tool choices for {_applicability_phrase(chi)}; the attempted "
                f"chains ({_chain_text(loser_tools)}) all failed."
            )

    return LearningNote(
        scope=instance.scope,
        instance_id=instance.id,
        prompt_digest=digest_text(task_prompt(instance))[:16],
        winner_tools=winner_tools,
        loser_tools=loser_tools,
        metrics=note_metrics,
        evidence_class=outcome.evidence_class.value,
        insight=insight,
        recommendation=recommendation,
        trace_refs=(outcome.trace_path,) if outcome.trace_path else (),
        applicability=chi,
        sensitive=tuple(outcome.sensitive),
        eval_evidence=outcome.eval_evidence,
    )


# ---------------------------------------------------------------------------
# Clean
# ---------------------------------------------------------------------------

_NUMBER_ARRAY = re.compile(r"\[(?:\s*-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?\s*,){3,}[^\[\]]*\]")
_BRANCH_REF = re.compile(r"\b\S+#b\d+\b")
_SLOT_REF = re.compile(r"\b(?:slot|sub-agent|subagent)\s*\d+\b", re.IGNORECASE)
_ORCH_TERMS = (
    ("evaluate_batch_against_gt", "the post-hoc comparison"),
    ("evaluate_against_gt", "the post-hoc comparison"),
    ("spawn_subagent", "branch exploration"),
)


def _clean_text(text: str, sensitive: Sequence[str], instance_id: str) -> str:
    for secret in sensitive:
        if secret:
            text = text.replace(secret, "[redacted]")
    text = _NUMBER_ARRAY.sub("[numbers redacted]", text)
    for term, replacement in _ORCH_TERMS:
        text = text.replace(term, replacement)
    text = _BRANCH_REF.sub("a candidate branch", text)
    text = _SLOT_REF.sub("a candidate branch", text)
    if instance_id:
        text = text.replace(instance_id, "this sample")
    return re.sub(r"[ \t]{2,}", " ", text).strip()


def clean(note: LearningNote) -> CleanEvidence:
    """Rewrite a raw note into reusable evidence: answer leakage and
    framework-control language removed, tool names and metric comparisons
    retained. Idempotent."""
    if note.sequence is None:
        raise ContractError("only committed notes can be cleaned")
    if note.evidence_class == EvidenceClass.FAILURE.value:
        kind = "avoidance"
        preferred: tuple[str, ...] = ()
        avoided = note.loser_tools
    else:
        kind = "tool_preference"
        preferred = note.winner_tools
        avoided = tuple(t for t in note.loser_tools if t not in note.winner_tools)
        if note.evidence_class == EvidenceClass.SINGLE_EXECUTION.value:
            avoided = ()
    insight = _clean_text(note.insight, note.sensitive, note.instance_id)
    recommendation = _clean_text(note.recommendation, note.sensitive, note.instance_id)
    if kind == "avoidance":
        summary = f"Avoid {_chain_text(avoided)} for {_applicability_phrase(note.applicability)}."
    else:
        summary = f"Prefer {_chain_text(preferred)} for {_applicability_phrase(note.applicability)}."
    return CleanEvidence(
        scope=note.scope,
        kind=kind,
        applicability=dict(note.applicability),
        preferred_tools=preferred,
        avoided_tools=avoided,
        summary=summary,
        rationale=f"{insight} {recommendation}".strip(),
        note_ref=note.note_ref(),
    )


# ---------------------------------------------------------------------------
# Distill (conflict-aware memory update)
# ---------------------------------------------------------------------------


def _stance_contradicts(ev: CleanEvidence, rule: MemoryRule) -> bool:
    return bool(
        set(ev.preferred_tools) & set(rule.avoided_tools)
        or set(ev.avoided_tools) & set(rule.preferred_tools)
    )


def _similar(ev: CleanEvidence, rule: MemoryRule) -> bool:
    if ev.kind != rule.kind or ev.applicability != rule.applicability:
        return False
    if _stance_contradicts(ev, rule):
        return False
    overlap = set(ev.preferred_tools) & set(rule.preferred_tools) or set(
        ev.avoided_tools
    ) & set(rule.avoided_tools)
    return bool(overlap)


def _strengthen(rule: MemoryRule, ev: CleanEvidence) -> None:
    rule.confidence = rule.confidence + (1.0 - rule.confidence) * CONFIDENCE_STEP
    rule.evidence = rule.evidence + (ev.note_ref,)


def _refresh_injectable(state: MemoryState, rule: MemoryRule) -> None:
    if rule.demoted:
        rule.injectable = False
    else:
        rule.injectable = not state.open_conflicts_of(rule.rule_id)


def _evict_for_cap(state: MemoryState, protect: Optional[str] = None) -> None:
    evictable = [r for r in state.rules if r.rule_id != protect]
    non_injectable = [r for r in evictable if not r.injectable]
    pool = non_injectable if non_injectable else evictable
    victim = min(pool, key=lambda r: (r.confidence, r.seq))
    state.rules.remove(victim)
    for conflict in state.open_conflicts_of(victim.rule_id):
        conflict.open = False
        partner_id = conflict.b if conflict.a == victim.rule_id else conflict.a
        try:
            partner = state.rule(partner_id)
        except ContractError:
            continue
        _refresh_injectable(state, partner)


def _append_rule(
    state: MemoryState, ev: CleanEvidence, injectable: bool, protect: Optional[str] = None
) -> MemoryRule:
    if len(state.rules) >= MEMORY_CAP:
        _evict_for_cap(state, protect=protect)
    rule = MemoryRule(
        rule_id=f"r{state.next_seq:04d}",
        kind=ev.kind,
        summary=ev.summary,
        applicability=dict(ev.applicability),
        preferred_tools=tuple(sorted(ev.preferred_tools)),
        avoided_tools=tuple(sorted(ev.avoided_tools)),
        rationale=ev.rationale,
        evidence=(ev.note_ref,),
        confidence=CONFIDENCE_INIT,
        injectable=injectable,
        seq=state.next_seq,
    )
    state.next_seq += 1
    state.rules.append(rule)
    return rule


def _resolve_conflict(state: MemoryState, conflict: Conflict, winner_id: str) -> None:
    conflict.open = False
    loser_id = conflict.b if conflict.a == winner_id else conflict.a
    winner = state.rule(winner_id)
    loser = state.rule(loser_id)
    loser.confidence = loser.confidence / 2.0
    loser.demoted = True
    loser.injectable = False
    _refresh_injectable(state, winner)


def update_memory(state: MemoryState, ev: CleanEvidence) -> str:
    """Apply one piece of cleaned evidence; returns the action taken:
    append, merge, strengthen, or conflict.

    Evidence supporting one side of an open conflict strengthens that side
    and, once it has gathered enough support, resolves the conflict by
    re-enabling the winner and demoting the loser.
    """
    if not ev.has_tool_stance:
        raise ContractError("evidence carries no tool stance to distill")

    # 1) support a side of an open conflict
    for conflict in [c for c in state.conflicts if c.open]:
        for side_id in (conflict.a, conflict.b):
            side = state.rule(side_id)
            if _similar(ev, side):
                conflict.support[side_id] = conflict.support.get(side_id, 0) + 1
                _strengthen(side, ev)
                if conflict.support[side_id] >= CONFLICT_RESOLVE_SUPPORT:
                    _resolve_conflict(state, conflict, side_id)
                return "strengthen"

    # 2) fresh contradiction registers a conflict relation
    for rule in state.rules:
        if rule.applicability == ev.applicability and _stance_contradicts(ev, rule):
            new_rule = _append_rule(state, ev, injectable=False, protect=rule.rule_id)
            rule.injectable = False
            state.conflicts.append(
                Conflict(
                    a=rule.rule_id,
                    b=new_rule.rule_id,
                    support={rule.rule_id: 0, new_rule.rule_id: 0},
                )
            )
            return "conflict"

    # 3) agreeing evidence strengthens (or merges new tools into) a similar rule
    for rule in state.rules:
        if _similar(ev, rule):
            new_pref = set(ev.preferred_tools) - set(rule.preferred_tools)
            new_avoid = set(ev.avoided_tools) - set(rule.avoided_tools)
            _strengthen(rule, ev)
            if new_pref or new_avoid:
                rule.preferred_tools = tuple(sorted(set(rule.preferred_tools) | new_pref))
                rule.avoided_tools = tuple(
                    sorted((set(rule.avoided_tools) | new_avoid) - set(rule.preferred_tools))
                )
                return "merge"
            return "strengthen"

    # 4) novel evidence appends
    _append_rule(state, ev, injectable=True)
    return "append"


# ---------------------------------------------------------------------------
# The on-disk store
# ---------------------------------------------------------------------------

_NOTE_OPEN = re.compile(r"^<!-- note (\d+) -->$")


@dataclass
class Selection:
    """Injectable retrieval result for one (scope, fingerprint)."""

    rules: list[MemoryRule] = field(default_factory=list)
    skills_text: str = ""
    skills_decision_text: str = ""
    tool_notes: dict[str, str] = field(default_factory=dict)


class ExperienceStore:
    """Disk-backed hierarchical experience, one writer per scope."""

    def __init__(
        self,
        root: Path,
        auto_snapshot: bool = True,
    ):
        self.root = Path(root)
        self.auto_snapshot = auto_snapshot
        self._locks: dict[str, threading.Lock] = {}
        self._locks_guard = threading.Lock()
        self._note_counts: dict[str, int] = {}
        self._distilled_through: dict[str, int] = {}
        for sub in ("notes", "memory", "tools", "skills", "skills_decision", "snapshots", "fingerprints"):
            (self.root / sub).mkdir(parents=True, exist_ok=True)
        soul = self.root / "soul.md"
        if not soul.exists():
            soul.write_text(DEFAULT_SOUL)

    def _lock(self, scope: str) -> threading.Lock:
        with self._locks_guard:
            return self._locks.setdefault(scope, threading.Lock())

    # -- paths ------------------------------------------------------------

    def _notes_path(self, scope: str) -> Path:
        return self.root / "notes" / f"{scope}.md"

    def _memory_path(self, scope: str) -> Path:
        return self.root / "memory" / f"{scope}.json"

    def _fingerprint_path(self, scope: str) -> Path:
        return self.root / "fingerprints" / scope

    # -- layers -----------------------------------------------------------

    def soul_text(self) -> str:
        return (self.root / "soul.md").read_text()

    def memory_state(self, scope: str) -> MemoryState:
        path = self._memory_path(scope)
        if not path.exists():
            return MemoryState()
        return MemoryState.from_dict(json.loads(path.read_text()))

    def _write_memory(self, scope: str, state: MemoryState) -> None:
        self._memory_path(scope).write_text(
            json.dumps(state.to_dict(), sort_keys=True, indent=1) + "\n"
        )

    def memory_fingerprint(self, scope: str) -> str:
        return self.memory_state(scope).content_fingerprint()

    def scopes(self) -> list[str]:
        return sorted(p.stem for p in (self.root / "notes").glob("*.md"))

    # -- notes ------------------------------------------------------------

    def notes(self, scope: str) -> list[LearningNote]:
        path = self._notes_path(scope)
        if not path.exists():
            return []
        notes: list[LearningNote] = []
        block: dict[str, str] = {}
        seq: Optional[int] = None
        for line in path.read_text().splitlines():
            m = _NOTE_OPEN.match(line)
            if m:
                block = {}
                seq = int(m.group(1))
                continue
            if line.startswith("<!-- end note"):
                notes.append(self._note_from_block(scope, seq, block))
                seq = None
                continue
            if seq is not None and ": " in line:
                key, value = line.split(": ", 1)
                block[key] = value
        expected = list(range(1, len(notes) + 1))
        if [n.sequence for n in notes] != expected:
            raise ContractError(f"notes shard for {scope} has non-gapless sequences")
        return notes

    @staticmethod
    def _note_from_block(scope: str, seq: Optional[int], block: Mapping[str, str]) -> LearningNote:
        def j(key: str, default: Any) -> Any:
            return json.loads(block[key]) if key in block else default

        return LearningNote(
            scope=scope,
            instance_id=j("instance", ""),
            prompt_digest=j("prompt_digest", ""),
            winner_tools=tuple(j("winner_tools", [])),
            loser_tools=tuple(j("loser_tools", [])),
            metrics=j("metrics", {}),
            evidence_class=j("evidence_class", "failure"),
            insight=j("insight", ""),
            recommendation=j("recommendation", ""),
            trace_refs=tuple(j("trace", [])),
            applicability=j("applicability", {}),
            sensitive=tuple(j("sensitive", [])),
            eval_evidence=j("eval_evidence", False),
            sequence=seq,
        )

    def _note_count(self, scope: str) -> int:
        if scope not in self._note_counts:
            path = self._notes_path(scope)
            count = 0
            if path.exists():
                count = sum(1 for line in path.read_text().splitlines() if _NOTE_OPEN.match(line))
            self._note_counts[scope] = count
        return self._note_counts[scope]

    def commit_note(self, note: LearningNote) -> LearningNote:
        """Append one note to its scope shard. Only episodes that produced
        evaluation evidence may commit."""
        if not note.eval_evidence:
            raise ContractError(
                "a note is committed only when the trace contains evaluation evidence"
            )
        with self._lock(note.scope):
            seq = self._note_count(note.scope) + 1
            committed = replace(note, sequence=seq)
            lines = [
                f"<!-- note {seq} -->",
                f"instance: {json.dumps(committed.instance_id)}",
                f"prompt_digest: {json.dumps(committed.prompt_digest)}",
                f"evidence_class: {json.dumps(committed.evidence_class)}",
                f"winner_tools: {json.dumps(list(committed.winner_tools))}",
                f"loser_tools: {json.dumps(list(committed.loser_tools))}",
                f"applicability: {json.dumps(committed.applicability, sort_keys=True)}",
                f"metrics: {json.dumps(committed.metrics, sort_keys=True)}",
                f"trace: {json.dumps(list(committed.trace_refs))}",
                f"sensitive: {json.dumps(list(committed.sensitive))}",
                f"eval_evidence: {json.dumps(committed.eval_evidence)}",
                f"insight: {json.dumps(committed.insight)}",
                f"recommendation: {json.dumps(committed.recommendation)}",
                f"<!-- end note {seq} -->",
                "",
            ]
            with self._notes_path(note.scope).open("a") as fh:
                fh.write("\n".join(lines))
            self._note_counts[note.scope] = seq
            return committed

    # -- distillation -----------------------------------------------------

    def _distilled_cursor(self, scope: str) -> int:
        if scope not in self._distilled_through:
            self._distilled_through[scope] = self.memory_state(scope).distilled_through
        return self._distilled_through[scope]

    def pending_count(self, scope: str) -> int:
        return self._note_count(scope) - self._distilled_cursor(scope)

    def pending_notes(self, scope: str) -> list[LearningNote]:
        cursor = self._distilled_cursor(scope)
        return [n for n in self.notes(scope) if n.sequence > cursor]

    def maybe_trigger_distillation(self, scope: str) -> list[str]:
        """Notes -> Memory fires on every DISTILL_EVERY-th pending note;
        downstream layers rebuild only when the memory fingerprint changed."""
        with self._lock(scope):
            if self.pending_count(scope) < DISTILL_EVERY:
                return []
            return self._distill_batch(scope, self.pending_notes(scope))

    def finalize(self, scope: str) -> list[str]:
        """Flush a shorter-than-batch tail of pending notes."""
        with self._lock(scope):
            if self.pending_count(scope) == 0:
                return []
            return self._distill_batch(scope, self.pending_notes(scope))

    def _distill_batch(self, scope: str, pending: Sequence[LearningNote]) -> list[str]:
        state = self.memory_state(scope)
        before = state.content_fingerprint()
        for note in pending:
            ev = clean(note)
            if ev.has_tool_stance:
                update_memory(state, ev)
        state.distilled_through = pending[-1].sequence
        self._distilled_through[scope] = state.distilled_through
        self._write_memory(scope, state)
        after = state.content_fingerprint()
        self._fingerprint_path(scope).write_text(after + "\n")
        stages = ["notes_to_memory"]
        if after != before:
            self._rebuild_tool_notes()
            self._rebuild_skills(scope, state)
            self._rebuild_skills_decision(scope, state)
            stages += ["memory_to_tool_notes", "memory_to_skills", "memory_to_skills_decision"]
            if self.auto_snapshot:
                self.snapshot(scope)
        return stages

    def record_episode(
        self, outcome: EpisodeOutcome, instance: TaskInstance, fp: SampleFingerprint
    ) -> tuple[Optional[LearningNote], list[str]]:
        """The episode handoff: summarize, commit when evidence-backed, and
        run any due distillation. Failure episodes without evaluation
        evidence are summarized but not committed."""
        note = summarize_episode(outcome, instance, fp)
        if note.trace_refs:
            # keep only file names so store trees stay path-independent
            note = replace(note, trace_refs=tuple(Path(t).name for t in note.trace_refs))
        if not note.eval_evidence:
            return None, []
        committed = self.commit_note(note)
        stages = self.maybe_trigger_distillation(note.scope)
        return committed, stages

    # -- derived layers ---------------------------------------------------

    def _all_memory_states(self) -> dict[str, MemoryState]:
        out: dict[str, MemoryState] = {}
        for path in sorted((self.root / "memory").glob("*.json")):
            out[path.stem] = MemoryState.from_dict(json.loads(path.read_text()))
        return out

    def _rebuild_tool_notes(self) -> None:
        per_tool: dict[str, list[str]] = {}
        for scope, state in self._all_memory_states().items():
            for rule in state.rules:
                for tool in rule.preferred_tools:
                    per_tool.setdefault(tool, []).append(
                        f"- {scope}: preferred ({rule.kind}, confidence {rule.confidence:.2f}, "
                        f"when {json.dumps(rule.applicability, sort_keys=True)})"
                    )
                for tool in rule.avoided_tools:
                    per_tool.setdefault(tool, []).append(
                        f"- {scope}: avoided ({rule.kind}, confidence {rule.confidence:.2f}, "
                        f"when {json.dumps(rule.applicability, sort_keys=True)})"
                    )
        tools_dir = self.root / "tools"
        for stale in tools_dir.glob("*.md"):
            if stale.stem not in per_tool:
                stale.unlink()
        for tool, lines in sorted(per_tool.items()):
            body = "\n".join([f"# Tool notes: {tool}", *sorted(lines)]) + "\n"
            (tools_dir / f"{tool}.md").write_text(body)

    @staticmethod
    def _top_rules(state: MemoryState, limit: int = 8) -> list[MemoryRule]:
        injectable = [r for r in state.rules if r.injectable]
        return sorted(injectable, key=lambda r: (-r.confidence, r.seq))[:limit]

    def _rebuild_skills(self, scope: str, state: MemoryState) -> None:
        lines = [f"# Procedures: {scope}", ""]
        for i, rule in enumerate(self._top_rules(state), 1):
            prefer = _chain_text(sorted(rule.preferred_tools))
            avoid = _chain_text(sorted(rule.avoided_tools)) if rule.avoided_tools else ""
            line = (
                f"{i}. When {json.dumps(rule.applicability, sort_keys=True)}: "
                f"prefer {prefer}"
            )
            if avoid:
                line += f"; avoid {avoid}"
            line += f" (confidence {rule.confidence:.2f}, evidence {len(rule.evidence)})."
            lines.append(line)
        if len(lines) == 2:
            lines.append("(no stable procedures yet)")
        (self.root / "skills" / f"{scope}.md").write_text("\n".join(lines) + "\n")

    def _rebuild_skills_decision(self, scope: str, state: MemoryState) -> None:
        lines = [f"# Decision guidance: {scope}", ""]
        lines.append("- Check remembered preferences before choosing a primary tool.")
        for rule in self._top_rules(state, limit=5):
            if rule.preferred_tools:
                lines.append(
                    f"- When {json.dumps(rule.applicability, sort_keys=True)}: start from "
                    f"{sorted(rule.preferred_tools)[0]}."
                )
            elif rule.avoided_tools:
                lines.append(
                    f"- When {json.dumps(rule.applicability, sort_keys=True)}: avoid "
                    f"{_chain_text(sorted(rule.avoided_tools))}."
                )
        (self.root / "skills_decision" / f"{scope}.md").write_text("\n".join(lines) + "\n")

    # -- retrieval ----------------------------------------------------------

    def retrieve(self, scope: str, fp: SampleFingerprint) -> Selection:
        """Injectable rules matching the fingerprint, plus skills and the
        tool notes focused on the selected rules' preferred tools."""
        state = self.memory_state(scope)
        rules = [r for r in state.rules if r.injectable and match(r.applicability, fp)]
        rules.sort(key=lambda r: (-r.confidence, r.seq))
        skills_path = self.root / "skills" / f"{scope}.md"
        decision_path = self.root / "skills_decision" / f"{scope}.md"
        tool_notes: dict[str, str] = {}
        for tool in sorted({t for r in rules for t in r.preferred_tools}):
            note_path = self.root / "tools" / f"{tool}.md"
            if note_path.exists():
                tool_notes[tool] = note_path.read_text()
        return Selection(
            rules=rules,
            skills_text=skills_path.read_text() if skills_path.exists() else "",
            skills_decision_text=decision_path.read_text() if decision_path.exists() else "",
            tool_notes=tool_notes,
        )

    # -- snapshots and audit ------------------------------------------------

    def _scope_files(self, scope: str) -> list[Path]:
        files = [self.root / "soul.md"]
        for rel in (
            f"notes/{scope}.md",
            f"memory/{scope}.json",
            f"skills/{scope}.md",
            f"skills_decision/{scope}.md",
        ):
            files.append(self.root / rel)
        files.extend(sorted((self.root / "tools").glob("*.md")))
        return [f for f in files if f.exists()]

    def snapshot(self, scope: str) -> str:
        """Content-addressed copy of every layer for one scope."""
        files = self._scope_files(scope)
        content = [(str(f.relative_to(self.root)), f.read_text()) for f in files]
        digest = digest_obj(content, 16)
        snap_dir = self.root / "snapshots" / scope / digest
        if not snap_dir.exists():
            for rel, text in content:
                target = snap_dir / rel
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_text(text)
        index_path = self.root / "snapshots" / scope / "index.json"
        index = json.loads(index_path.read_text()) if index_path.exists() else []
        index.append({"seq": len(index) + 1, "digest": digest})
        index_path.write_text(json.dumps(index, indent=1) + "\n")
        return digest

    def snapshot_timeline(self, scope: str) -> list[dict[str, Any]]:
        index_path = self.root / "snapshots" / scope / "index.json"
        if not index_path.exists():
            return []
        return json.loads(index_path.read_text())

    def tree_digest(self) -> str:
        """Digest over every file in the store; unchanged digest means an
        untouched store."""
        entries = []
        for path in sorted(self.root.rglob("*")):
            if path.is_file():
                entries.append((str(path.relative_to(self.root)), path.read_bytes().hex()))
        return digest_obj(entries, 32)

    def report(self) -> dict[str, Any]:
        out: dict[str, Any] = {}
        scopes = set(self.scopes()) | {p.stem for p in (self.root / "memory").glob("*.json")}
        for scope in sorted(scopes):
            state = self.memory_state(scope)
            notes = self.notes(scope)
            n_rules = len(state.rules)
            injectable = sum(1 for r in state.rules if r.injectable)
            out[scope] = {
                "notes": len(notes),
                "rules": n_rules,
                "open_conflicts": sum(1 for c in state.conflicts if c.open),
                "injectable_fraction": (injectable / n_rules) if n_rules else 0.0,
                "distilled_through": state.distilled_through,
                "snapshots": self.snapshot_timeline(scope),
            }
        return out
