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

import hashlib
import json
import re
import threading
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence

from .core import EpisodeOutcome, EvidenceClass, TaskInstance
from .errors import ContractError
from .prompts import SampleFingerprint, match, task_prompt
from .util import canonical_json, digest_obj, digest_text, write_atomic

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

_NOTE_OPEN = re.compile(r"^<!-- note (\d+) -->$", re.M)
_NOTE_BLOCK = re.compile(r"^<!-- note (\d+) -->\n(.*?)^<!-- end note \1 -->$", re.M | re.S)

# Files the store only ever writes whole; it keeps their text in memory.
_REWRITTEN = ("soul.md", "memory/*.json", "fingerprints/*", "skills/*.md", "skills_decision/*.md",
              "tools/*.md", "snapshots/*/index.json")

# A note's shard block: (key, LearningNote attribute, JSON read when the key
# is missing), in the order the block lists them.
_NOTE_FIELDS = (
    ("instance", "instance_id", '""'),
    ("prompt_digest", "prompt_digest", '""'),
    ("evidence_class", "evidence_class", '"failure"'),
    ("winner_tools", "winner_tools", "[]"),
    ("loser_tools", "loser_tools", "[]"),
    ("applicability", "applicability", "{}"),
    ("metrics", "metrics", "{}"),
    ("trace", "trace_refs", "[]"),
    ("sensitive", "sensitive", "[]"),
    ("eval_evidence", "eval_evidence", "false"),
    ("insight", "insight", '""'),
    ("recommendation", "recommendation", '""'),
)


def _note_from_block(scope: str, seq: int, block: Mapping[str, str]) -> LearningNote:
    values = {attr: json.loads(block.get(key, missing)) for key, attr, missing in _NOTE_FIELDS}
    for attr in ("winner_tools", "loser_tools", "trace_refs", "sensitive"):
        values[attr] = tuple(values[attr])
    return LearningNote(scope=scope, sequence=seq, **values)


def _parse_notes(scope: str, text: str, after: int = 0) -> tuple[int, list[LearningNote]]:
    """Parse a notes shard: how many notes it opens, and the notes with a
    sequence number above ``after``."""
    seqs = [int(seq) for seq in _NOTE_OPEN.findall(text)]
    if seqs != list(range(1, len(seqs) + 1)):
        raise ContractError(f"notes shard for {scope} has non-gapless sequences")
    notes = []
    for m in _NOTE_BLOCK.finditer(text):
        if int(m[1]) > after:
            block = dict(line.split(": ", 1) for line in m[2].splitlines() if ": " in line)
            notes.append(_note_from_block(scope, int(m[1]), block))
    return len(seqs), notes


@dataclass
class Selection:
    """Injectable retrieval result for one (scope, fingerprint)."""

    rules: list[MemoryRule] = field(default_factory=list)
    skills_text: str = ""
    skills_decision_text: str = ""
    tool_notes: dict[str, str] = field(default_factory=dict)


@dataclass
class _Scope:
    """The in-memory state of one scope. ``memory`` is replaced whole on
    publish, never mutated, so a reader may keep what it got."""

    memory: MemoryState = field(default_factory=MemoryState)
    note_count: int = 0
    pending: list[LearningNote] = field(default_factory=list)  # committed, not yet distilled
    lock: threading.Lock = field(default_factory=threading.Lock)  # serializes commits and batches


class ExperienceStore:
    """Disk-backed hierarchical experience, one writer per scope.

    The store reads its files once, when it opens, and from then on holds
    every scope's state and the text of every file it rewrites in memory,
    writing each change through to disk. It assumes no other process writes
    the same root meanwhile.
    """

    def __init__(self, root: Path, auto_snapshot: bool = True):
        self.root = Path(root)
        self.auto_snapshot = auto_snapshot
        self._scopes: dict[str, _Scope] = {}
        self._scopes_guard = threading.Lock()
        # Held to publish a scope's memory and rebuild the layers derived from
        # it, so the tool cards, which read every scope, see whole states.
        # Every change to ``_files`` and to a scope's ``memory`` holds it.
        self._publish = threading.RLock()
        self._files: dict[str, str] = {}
        for sub in ("notes", "memory", "tools", "skills", "skills_decision", "snapshots", "fingerprints"):
            (self.root / sub).mkdir(parents=True, exist_ok=True)
        for pattern in _REWRITTEN:
            for path in sorted(self.root.glob(pattern)):
                self._files[path.relative_to(self.root).as_posix()] = path.read_text()
        for path in sorted((self.root / "memory").glob("*.json")):
            self._scope(path.stem).memory = MemoryState.from_dict(json.loads(self._files[f"memory/{path.name}"]))
        for path in sorted((self.root / "notes").glob("*.md")):
            held = self._scope(path.stem)
            held.note_count, held.pending = _parse_notes(path.stem, path.read_text(), held.memory.distilled_through)
        if "soul.md" not in self._files:
            self._write("soul.md", DEFAULT_SOUL)

    def _scope(self, scope: str) -> _Scope:
        with self._scopes_guard:
            return self._scopes.setdefault(scope, _Scope())

    def _write(self, rel: str, text: str) -> None:
        """Rewrite one file under the root, on disk and in memory."""
        with self._publish:
            if self._files.get(rel) != text:
                write_atomic(self.root / rel, text)
                self._files[rel] = text

    # -- layers -----------------------------------------------------------

    def soul_text(self) -> str:
        return self._files["soul.md"]

    def memory_state(self, scope: str) -> MemoryState:
        """The scope's published memory; shared, so callers must not mutate it."""
        held = self._scopes.get(scope)
        return held.memory if held is not None else MemoryState()

    def _write_memory(self, scope: str, state: MemoryState) -> None:
        """Publish ``state`` as the scope's memory, on disk and in memory."""
        with self._publish:
            self._write(f"memory/{scope}.json", json.dumps(state.to_dict(), sort_keys=True, indent=1) + "\n")
            self._scope(scope).memory = state

    def memory_fingerprint(self, scope: str) -> str:
        return self.memory_state(scope).content_fingerprint()

    def scopes(self) -> list[str]:
        return [name for name, held in self._sorted_scopes() if held.note_count]

    def _sorted_scopes(self) -> list[tuple[str, _Scope]]:
        with self._scopes_guard:
            return sorted(self._scopes.items())

    # -- notes ------------------------------------------------------------

    def notes(self, scope: str) -> list[LearningNote]:
        """Every committed note of the scope, parsed from its shard."""
        path = self.root / "notes" / f"{scope}.md"
        return _parse_notes(scope, path.read_text())[1] if path.exists() else []

    def commit_note(self, note: LearningNote) -> LearningNote:
        """Append one note to its scope shard. Only episodes that produced
        evaluation evidence may commit."""
        if not note.eval_evidence:
            raise ContractError(
                "a note is committed only when the trace contains evaluation evidence"
            )
        held = self._scope(note.scope)
        with held.lock:
            seq = held.note_count + 1
            block = {key: json.dumps(getattr(note, attr), sort_keys=True) for key, attr, _ in _NOTE_FIELDS}
            lines = [
                f"<!-- note {seq} -->",
                *(f"{key}: {value}" for key, value in block.items()),
                f"<!-- end note {seq} -->",
                "",
            ]
            with (self.root / "notes" / f"{note.scope}.md").open("a") as fh:
                fh.write("\n".join(lines))
            held.note_count = seq
            # the note as a reopened store would parse it back
            held.pending.append(_note_from_block(note.scope, seq, block))
            return replace(note, sequence=seq)

    # -- distillation -----------------------------------------------------

    def pending_count(self, scope: str) -> int:
        return len(self.pending_notes(scope))

    def pending_notes(self, scope: str) -> list[LearningNote]:
        held = self._scopes.get(scope)
        return list(held.pending) if held is not None else []

    def maybe_trigger_distillation(self, scope: str) -> list[str]:
        """Notes -> Memory fires on every DISTILL_EVERY-th pending note;
        downstream layers rebuild only when the memory fingerprint changed."""
        return self._distill_batch(scope, DISTILL_EVERY)

    def finalize(self, scope: str) -> list[str]:
        """Flush a shorter-than-batch tail of pending notes."""
        return self._distill_batch(scope, 1)

    def _distill_batch(self, scope: str, min_pending: int) -> list[str]:
        held = self._scope(scope)
        with held.lock:
            if len(held.pending) < min_pending:
                return []
            # work on a copy and publish it whole, so readers never see a half update
            state = MemoryState.from_dict(held.memory.to_dict())
            before = held.memory.content_fingerprint()
            for note in held.pending:
                ev = clean(note)
                if ev.has_tool_stance:
                    update_memory(state, ev)
            state.distilled_through = held.pending[-1].sequence
            after = state.content_fingerprint()
            with self._publish:
                self._write_memory(scope, state)
                held.pending = []
                self._write(f"fingerprints/{scope}", after + "\n")
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

    def _rebuild_tool_notes(self) -> None:
        per_tool: dict[str, list[str]] = {}
        for scope, h in self._sorted_scopes():
            for rule in h.memory.rules:
                for stance, tools in (("preferred", rule.preferred_tools), ("avoided", rule.avoided_tools)):
                    for tool in tools:
                        per_tool.setdefault(tool, []).append(
                            f"- {scope}: {stance} ({rule.kind}, confidence {rule.confidence:.2f}, "
                            f"when {json.dumps(rule.applicability, sort_keys=True)})"
                        )
        for rel in [rel for rel in self._files if rel.startswith("tools/")]:
            if Path(rel).stem not in per_tool:
                (self.root / rel).unlink()
                del self._files[rel]
        for tool, lines in sorted(per_tool.items()):
            self._write(f"tools/{tool}.md", "\n".join([f"# Tool notes: {tool}", *sorted(lines)]) + "\n")

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
        self._write(f"skills/{scope}.md", "\n".join(lines) + "\n")

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
        self._write(f"skills_decision/{scope}.md", "\n".join(lines) + "\n")

    # -- retrieval ----------------------------------------------------------

    def retrieve(self, scope: str, fp: SampleFingerprint) -> Selection:
        """Injectable rules matching the fingerprint, plus skills and the
        tool notes focused on the selected rules' preferred tools."""
        with self._publish:
            state = self.memory_state(scope)
            rules = [r for r in state.rules if r.injectable and match(r.applicability, fp)]
            rules.sort(key=lambda r: (-r.confidence, r.seq))
            tools = sorted({t for r in rules for t in r.preferred_tools})
            tool_notes = {t: self._files[f"tools/{t}.md"] for t in tools if f"tools/{t}.md" in self._files}
            return Selection(
                rules=rules,
                skills_text=self._files.get(f"skills/{scope}.md", ""),
                skills_decision_text=self._files.get(f"skills_decision/{scope}.md", ""),
                tool_notes=tool_notes,
            )

    # -- snapshots and audit ------------------------------------------------

    def snapshot(self, scope: str) -> str:
        """Content-addressed copy of every rewritten layer for one scope. The
        notes are append-only, so the snapshot cites their count instead of
        copying them: its notes are the shard's first ``notes`` blocks."""
        with self._publish:
            held = self._scopes.get(scope)
            notes = held.note_count if held is not None else 0
            layers = ["soul.md", f"memory/{scope}.json", f"skills/{scope}.md", f"skills_decision/{scope}.md",
                      *sorted(rel for rel in self._files if rel.startswith("tools/"))]
            content = [(rel, self._files[rel]) for rel in layers if rel in self._files]
            digest = digest_obj({"notes": notes, "layers": content}, 16)
            snap_dir = self.root / "snapshots" / scope / digest
            if not snap_dir.exists():
                for rel, text in content:
                    target = snap_dir / rel
                    target.parent.mkdir(parents=True, exist_ok=True)
                    target.write_text(text)
            index = self.snapshot_timeline(scope)
            index.append({"seq": len(index) + 1, "digest": digest, "notes": notes})
            self._write(f"snapshots/{scope}/index.json", json.dumps(index, indent=1) + "\n")
            return digest

    def snapshot_timeline(self, scope: str) -> list[dict[str, Any]]:
        return json.loads(self._files.get(f"snapshots/{scope}/index.json", "[]"))

    def tree_digest(self) -> str:
        """Digest over every file in the store; unchanged digest means an
        untouched store."""
        h = hashlib.sha256()
        for path in sorted(self.root.rglob("*")):
            if path.is_file():
                # length prefixes keep bytes from shifting across a file boundary
                for part in (path.relative_to(self.root).as_posix().encode(), path.read_bytes()):
                    h.update(len(part).to_bytes(8, "big"))
                    h.update(part)
        return h.hexdigest()[:32]

    def report(self) -> dict[str, Any]:
        out: dict[str, Any] = {}
        for scope, h in self._sorted_scopes():
            state = h.memory
            n_rules = len(state.rules)
            injectable = sum(1 for r in state.rules if r.injectable)
            out[scope] = {
                "notes": h.note_count,
                "rules": n_rules,
                "open_conflicts": sum(1 for c in state.conflicts if c.open),
                "injectable_fraction": (injectable / n_rules) if n_rules else 0.0,
                "distilled_through": state.distilled_through,
                "snapshots": self.snapshot_timeline(scope),
            }
        return out
