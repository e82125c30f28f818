"""Hierarchical distilled experience: Soul, Notes and Memory layers, the
Summarize -> Clean -> Distill pipeline that feeds them and the retrieval
filter that reinjects them.

Layer roles:

* Soul — static behavioral anchor, written once at store creation and never
  machine-edited afterwards; the only file the store writes whole.
* Notes — append-only per-scope episode records, one per episode: the
  source of distillation and of the tool-usage counts, never injected into
  prompts. A note without evaluation evidence is never distilled.
* Memory — bounded structured rules (kind, applicability, preferred/avoided
  tools, evidence, confidence, injectable). Publishing a scope's memory
  appends one record to its snapshot log, and opening the store reads the
  memory back from that log. Retrieval reinjects its injectable rules that
  match a sample, each rendered once, as one line of the system message.

Every mutation of one scope is serialized; notes sequence numbers are
gapless and committed notes are never modified.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import stat
import threading
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Any, Iterator, Mapping, Optional, Sequence

from .core import EpisodeOutcome, EvidenceClass, TaskInstance
from .errors import ContractError, LogError
from .prompts import SampleFingerprint, match
from .registry import ToolUsageLedger
from .util import (
    AppendLog, TornRecord, canonical_json, digest_obj, digest_text, json_dumps, read_records, read_text, write_atomic,
)

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
    """One reusable runtime rule (the structured 7-tuple plus bookkeeping)."""

    rule_id: str
    kind: str  # tool_preference | condition_action | avoidance
    applicability: dict[str, Any]
    preferred_tools: tuple[str, ...]
    avoided_tools: tuple[str, ...]
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
            "applicability": self.applicability,
            "preferred_tools": sorted(self.preferred_tools),
            "avoided_tools": sorted(self.avoided_tools),
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
            applicability=dict(d["applicability"]),
            preferred_tools=tuple(d["preferred_tools"]),
            avoided_tools=tuple(d["avoided_tools"]),
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
    winner_tools: tuple[str, ...]
    loser_tools: tuple[str, ...]
    metrics: dict[str, Any]
    evidence_class: str
    applicability: dict[str, Any]
    eval_evidence: bool = False
    tools: tuple[str, ...] = ()  # substantive tools run without error, repeats included
    sequence: Optional[int] = None

    def note_ref(self) -> str:
        return f"{self.scope}#note{self.sequence:04d}"


@dataclass
class CleanEvidence:
    """The transferable tool stance of one committed note."""

    kind: str
    applicability: dict[str, Any]
    preferred_tools: tuple[str, ...]
    avoided_tools: tuple[str, ...]
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


def summarize_episode(
    outcome: EpisodeOutcome,
    instance: TaskInstance,
    fp: SampleFingerprint,
    tools: Sequence[str] = (),
) -> LearningNote:
    """Build the sample-level learning record for one finished episode.

    The note holds what the comparison measured: the winner's and the
    losers' tools, each branch's metrics and the evidence class, all taken
    from the evaluated outcome. It holds no model text: the episode's
    replies are kept only in its trace.
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
        # an evaluation report is {"quality", "report"}: the same quality
        # beside the metric report, so it flattens into the entry
        entry.update(outcome.eval_reports.get(c.branch_id) or {})
        note_metrics[c.branch_id] = entry

    return LearningNote(
        scope=instance.scope,
        instance_id=instance.id,
        winner_tools=winner_tools,
        loser_tools=loser_tools,
        metrics=note_metrics,
        evidence_class=outcome.evidence_class.value,
        applicability=chi,
        eval_evidence=outcome.eval_evidence,
        tools=tuple(tools),
    )


# ---------------------------------------------------------------------------
# Clean
# ---------------------------------------------------------------------------

def clean(note: LearningNote) -> CleanEvidence:
    """The rule kind and the preferred and avoided tools a committed note's
    evidence class supports."""
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
    return CleanEvidence(
        kind=kind,
        applicability=dict(note.applicability),
        preferred_tools=preferred,
        avoided_tools=avoided,
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
        applicability=dict(ev.applicability),
        preferred_tools=tuple(sorted(ev.preferred_tools)),
        avoided_tools=tuple(sorted(ev.avoided_tools)),
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

_NOTE_OPEN = re.compile(r"<!-- note (\d+) -->")

# A note's shard block: (key, LearningNote attribute, JSON read when the key
# is missing), in the order the block lists them. A key not among them, such
# as the four more that an older version's notes held, is skipped on read.
_NOTE_FIELDS = (
    ("instance", "instance_id", '""'),
    ("evidence_class", "evidence_class", '"failure"'),
    ("winner_tools", "winner_tools", "[]"),
    ("loser_tools", "loser_tools", "[]"),
    ("tools", "tools", "[]"),
    ("applicability", "applicability", "{}"),
    ("metrics", "metrics", "{}"),
    ("eval_evidence", "eval_evidence", "false"),
)


def _note_from_block(scope: str, seq: int, block: Mapping[str, str]) -> LearningNote:
    values = {attr: json.loads(block.get(key, missing)) for key, attr, missing in _NOTE_FIELDS}
    for attr in ("winner_tools", "loser_tools", "tools"):
        values[attr] = tuple(values[attr])
    return LearningNote(scope=scope, sequence=seq, **values)


# A notes shard's block: its number, its note when decoded, and its tools.
_NoteRecord = tuple[int, Optional[LearningNote], list[str]]


def _parse_note(scope: str, decode_after: int, data: bytes, pos: int) -> tuple[_NoteRecord, int]:
    """One block of a notes shard: an opening line, one ``key: value`` line
    per field, and a closing line. Every block is framed and its ``tools``
    decoded, but only a block numbered past ``decode_after`` is decoded into
    its note (None otherwise): framing is all that a killed append can break."""
    end = data.find(b"\n", pos)
    if end < 0:
        raise TornRecord
    opened = _NOTE_OPEN.fullmatch(data[pos:end].decode())
    if opened is None:
        raise ValueError("expected a note's opening line")
    seq = int(opened[1])
    close = f"<!-- end note {seq} -->".encode()
    decode = seq > decode_after
    block: dict[str, str] = {}
    while True:
        pos, end = end + 1, data.find(b"\n", end + 1)
        if end < 0:
            raise TornRecord
        if data[pos:end] == close:
            tools = json.loads(block.get("tools", "[]"))
            if not (isinstance(tools, list) and all(isinstance(t, str) for t in tools)):
                raise ValueError("a note's tools are not a list of names")
            return (seq, _note_from_block(scope, seq, block) if decode else None, tools), end + 1
        key, value = data[pos:end].decode().split(": ", 1)
        if decode or key == "tools":
            block[key] = value


def _read_notes(root: Path, scope: str, decode_after: int = 0) -> tuple[list[_NoteRecord], int]:
    """Each whole block of the scope's shard, as its sequence number, its
    note when numbered past ``decode_after`` (None otherwise) and its tools,
    and where the last one ends."""
    records, end = read_records(root / "notes" / f"{scope}.md", partial(_parse_note, scope, decode_after))
    if [seq for seq, _, _ in records] != list(range(1, len(records) + 1)):
        raise ContractError(f"notes shard for {scope} has non-gapless sequences")
    return records, end


def _parse_snapshot(data: bytes, pos: int) -> tuple[tuple[dict[str, Any], dict[str, Optional[str]]], int]:
    """One record of a snapshot log: its header line, and the layers it
    changed (None for a layer that is gone, such as the tool cards and
    skills files that older stores kept), whose raw bytes follow the header
    in the header's order. A snapshot's header has a ``seq``; a cursor
    record's, ``{"distilled_through": N, "layers": {}}``, has none."""
    end = data.find(b"\n", pos)
    if end < 0:
        raise TornRecord
    header = json.loads(data[pos:end])
    pos = end + 1
    layers: dict[str, Optional[str]] = {}
    for rel, size in header["layers"].items():
        if size is None:
            layers[rel] = None
            continue
        if pos + size > len(data):
            raise TornRecord
        layers[rel] = data[pos : pos + size].decode()
        pos += size
    return (header, layers), pos


def _fold_layers(layers: dict[str, str], changed: Mapping[str, Optional[str]]) -> None:
    for rel, text in changed.items():
        if text is None:
            del layers[rel]
        else:
            layers[rel] = text


@dataclass(frozen=True)
class Selection:
    """What retrieval injects for one scope and fingerprint: the matching
    injectable rules of the scope's published memory, best first.

    ``retrieve`` memoizes a Selection per published memory, so one Selection
    is shared by every sample whose fingerprint has the same predicate
    fields: it is read-only, and callers must not mutate it or its parts.
    ``rendered`` holds what the prompt builders render from it (its system
    message), so it is built once per Selection rather than once per
    prompt."""

    rules: tuple[MemoryRule, ...] = ()
    rendered: dict[Any, Any] = field(default_factory=dict, init=False, repr=False, compare=False)


def _select(state: MemoryState, fp: SampleFingerprint) -> Selection:
    rules = sorted(
        (r for r in state.rules if r.injectable and match(r.applicability, fp)),
        key=lambda r: (-r.confidence, r.seq),
    )
    return Selection(rules=tuple(rules))


@dataclass
class _Scope:
    """The in-memory state of one scope, and its two logs. ``memory`` is
    replaced whole on publish, never mutated, so a reader may keep what it
    got; ``memory_text`` is its JSON as the snapshot log holds it, None until
    the scope's first publish."""

    notes_log: AppendLog  # notes/<scope>.md
    snapshot_log: AppendLog  # snapshots/<scope>.log: snapshots and cursor records
    memory: MemoryState = field(default_factory=MemoryState)
    memory_text: Optional[str] = None
    note_count: int = 0
    pending: list[LearningNote] = field(default_factory=list)  # committed, not yet distilled
    lock: threading.Lock = field(default_factory=threading.Lock)  # serializes commits and batches
    snapshots: list[dict[str, Any]] = field(default_factory=list)  # the timeline: seq, digest, notes
    last_snapshot: dict[str, str] = field(default_factory=dict)  # the layers of the last snapshot
    # retrieve's results for the published memory, keyed by the values of
    # SampleFingerprint.fields(); emptied when a new memory is published
    selections: dict[tuple[Any, ...], Selection] = field(default_factory=dict)

    def close(self) -> None:
        self.notes_log.close()
        self.snapshot_log.close()


class ExperienceStore:
    """Disk-backed hierarchical experience, one writer per scope.

    The store reads its files once, when it opens, and from then on holds
    every scope's state and the soul's text in memory, writing each change
    through to disk. It assumes no other process writes the same root
    meanwhile. It writes ``soul.md`` whole, once, and appends to every other
    file, each notes shard and snapshot log through one descriptor, opened
    at its first append and released by :meth:`close`; nothing is buffered
    in the process, so a fresh reader of the root, or what a killed run
    leaves, holds every record appended. A scope's memory is read from its
    snapshot log: the last memory layer, with the cursor of any later cursor
    record. A ``memory/`` directory left by an older version is ignored.

    ``ledger`` holds the tool-usage counts of the notes, the only usage
    counts a run keeps: each commit counts its note's ``tools`` under the
    scope's lock, opening replays them in shard order, and exploration
    hands a scope's counts to dropout once per episode. A ``ledger.jsonl``
    left by an older version is ignored.

    Opening frames every block of each notes shard, with the torn-tail and
    bad-block checks of :func:`~timeclaw.util.iter_records` and gapless
    numbering, and decodes each block's ``tools``, but decodes whole only
    the blocks past the scope's ``distilled_through``, its pending notes
    when they hold evaluation evidence. :meth:`notes` decodes the
    shard in full, so a bad value inside a distilled note surfaces there.
    A shard holding fewer notes than its memory's ``distilled_through`` is
    refused, as is a root that exists and is not a directory. A snapshot
    record or memory layer that frames but does not decode is a
    :class:`LogError` naming its log.
    """

    def __init__(self, root: Path):
        self.root = Path(root)
        if self.root.exists() and not self.root.is_dir():
            raise ContractError(f"store {self.root} is not a directory")
        self.ledger = ToolUsageLedger()
        self._scopes: dict[str, _Scope] = {}
        self._scopes_guard = threading.Lock()
        # Held to publish a scope's memory, so a retrieval memoizes only a
        # selection of the memory that is published. Every change to a
        # scope's ``memory`` and to ``_soul`` holds it.
        self._publish = threading.RLock()
        soul = self.root / "soul.md"
        # opening writes nothing: the first write writes soul.md
        self._soul: Optional[str] = read_text(soul) if soul.is_file() else None
        for path in sorted((self.root / "snapshots").glob("*.log")):
            held = self._scope(path.stem)
            records, held.snapshot_log.end = read_records(path, _parse_snapshot)
            cursor = 0
            try:  # a record that frames but does not decode
                for header, changed in records:
                    if "seq" not in header:
                        cursor = int(header["distilled_through"])
                        continue
                    held.snapshots.append({key: header[key] for key in ("seq", "digest", "notes")})
                    _fold_layers(held.last_snapshot, changed)
                held.memory_text = held.last_snapshot.get(f"memory/{path.stem}.json")
                if held.memory_text is not None:
                    held.memory = MemoryState.from_dict(json.loads(held.memory_text))
            except (KeyError, TypeError, ValueError, AttributeError, RecursionError, ContractError) as exc:
                raise LogError(f"{path}: a record does not decode: {exc!r}") from None
            if cursor > held.memory.distilled_through:  # the last publish took no snapshot
                held.memory.distilled_through = cursor
                held.memory_text = json_dumps(held.memory.to_dict(), sort_keys=True) + "\n"
        for path in sorted((self.root / "notes").glob("*.md")):
            held = self._scope(path.stem)
            records, held.notes_log.end = _read_notes(self.root, path.stem, held.memory.distilled_through)
            held.note_count = len(records)
            held.pending = [note for _, note, _ in records if note is not None and note.eval_evidence]
            for _, _, tools in records:
                self.ledger.record(path.stem, tools)
        # a shard that lost notes its memory distilled would number its next
        # note as one the memory's evidence already names
        for scope, held in self._scopes.items():
            if held.note_count < held.memory.distilled_through:
                raise ContractError(
                    f"{self.root / 'notes' / f'{scope}.md'} holds {held.note_count} notes, "
                    f"but its memory is distilled through note {held.memory.distilled_through}"
                )

    def _lay_out(self) -> None:
        """Write ``soul.md`` before the store's first write. Each log makes
        its directory at its first append."""
        if self._soul is None:
            with self._publish:
                if self._soul is None:
                    self.root.mkdir(parents=True, exist_ok=True)
                    write_atomic(self.root / "soul.md", DEFAULT_SOUL)
                    self._soul = DEFAULT_SOUL

    def _scope(self, scope: str) -> _Scope:
        held = self._scopes.get(scope)
        if held is None:
            with self._scopes_guard:
                held = self._scopes.get(scope)
                if held is None:
                    held = self._scopes[scope] = _Scope(
                        AppendLog(self.root / "notes" / f"{scope}.md"),
                        AppendLog(self.root / "snapshots" / f"{scope}.log"),
                    )
        return held

    def close(self) -> None:
        """Release the descriptors of the notes shards and snapshot logs."""
        for _name, held in self._sorted_scopes():
            with held.lock, self._publish:
                held.close()

    # -- layers -----------------------------------------------------------

    def soul_text(self) -> str:
        return self._soul if self._soul is not None else DEFAULT_SOUL

    def memory_state(self, scope: str) -> MemoryState:
        """The scope's published memory; shared, so callers must not mutate it."""
        held = self._scopes.get(scope)
        return held.memory if held is not None else MemoryState()

    def scopes(self) -> list[str]:
        return [name for name, held in self._sorted_scopes() if held.note_count]

    def _sorted_scopes(self) -> list[tuple[str, _Scope]]:
        with self._scopes_guard:
            return sorted(self._scopes.items())

    # -- notes ------------------------------------------------------------

    def notes(self, scope: str) -> list[LearningNote]:
        """Every committed note of the scope, parsed from its shard."""
        return [note for _, note, _ in _read_notes(self.root, scope)[0]]

    def commit_note(self, note: LearningNote) -> LearningNote:
        """Append one note to its scope shard and count its ``tools`` in
        :attr:`ledger`, under the scope's lock. Only a note with evaluation
        evidence is distilled. Returns the note as stored."""
        self._lay_out()
        held = self._scope(note.scope)
        with held.lock:
            seq = held.note_count + 1
            block = {key: json_dumps(getattr(note, attr), sort_keys=True) for key, attr, _ in _NOTE_FIELDS}
            lines = [
                f"<!-- note {seq} -->",
                *(f"{key}: {value}" for key, value in block.items()),
                f"<!-- end note {seq} -->",
                "",
            ]
            held.notes_log.append("\n".join(lines).encode())
            held.note_count = seq
            self.ledger.record(note.scope, note.tools)
            # equal to the note a reopened store decodes from the block
            stored = replace(note, sequence=seq)
            if stored.eval_evidence:
                held.pending.append(stored)
            return stored

    # -- distillation -----------------------------------------------------

    def pending_notes(self, scope: str) -> list[LearningNote]:
        held = self._scopes.get(scope)
        return list(held.pending) if held is not None else []

    def maybe_trigger_distillation(self, scope: str) -> list[str]:
        """Notes -> Memory fires on every DISTILL_EVERY-th pending note; a
        snapshot is taken only when the memory fingerprint changed."""
        return self._distill_batch(scope, DISTILL_EVERY)

    def finalize(self, scope: str) -> list[str]:
        """Flush a shorter-than-batch tail of pending notes. A batch killed
        before its record reached the snapshot log published nothing, so its
        notes are pending again and the flush distills them."""
        return self._distill_batch(scope, 1)

    def _distill_batch(self, scope: str, min_pending: int) -> list[str]:
        """Distill the scope's pending notes, when at least ``min_pending``,
        and publish the memory by appending one record to its snapshot log,
        under one hold of ``_publish``: a snapshot when the memory's content
        fingerprint changed, a cursor record of its ``distilled_through``
        otherwise. A failed append publishes nothing."""
        held = self._scope(scope)
        with held.lock:
            if len(held.pending) < min_pending:
                return []
            # work on a copy and publish it whole, so readers never see a half update
            state = MemoryState.from_dict(held.memory.to_dict())
            for note in held.pending:
                ev = clean(note)
                if ev.has_tool_stance:
                    update_memory(state, ev)
            state.distilled_through = held.pending[-1].sequence
            changed = state.content_fingerprint() != held.memory.content_fingerprint()
            with self._publish:
                self._lay_out()
                published = held.memory, held.memory_text
                held.memory, held.memory_text = state, json_dumps(state.to_dict(), sort_keys=True) + "\n"
                try:
                    if changed:
                        self.snapshot(scope)
                    else:
                        cursor = canonical_json({"distilled_through": state.distilled_through, "layers": {}})
                        held.snapshot_log.append(cursor.encode() + b"\n")
                except BaseException:
                    held.memory, held.memory_text = published
                    raise
                held.selections.clear()
            held.pending = []
            return ["notes_to_memory", "snapshot"] if changed else ["notes_to_memory"]

    def record_episode(
        self, outcome: EpisodeOutcome, instance: TaskInstance, fp: SampleFingerprint, tools: Sequence[str]
    ) -> tuple[LearningNote, list[str]]:
        """The episode handoff: summarize the episode into one note that
        lists ``tools``, the substantive tools it ran without error, commit
        it, and run any due distillation. Every episode commits its note; one
        without evaluation evidence is never distilled."""
        note = self.commit_note(summarize_episode(outcome, instance, fp, tools))
        return note, self.maybe_trigger_distillation(note.scope)

    # -- retrieval ----------------------------------------------------------

    def retrieve(self, scope: str, fp: SampleFingerprint) -> Selection:
        """The injectable rules of the scope's published memory that match
        the fingerprint.

        ``match`` reads only ``fp.fields()``, so the result is memoized per
        published memory, keyed by those fields' values: samples that agree
        on them share one read-only Selection until the scope's memory is
        published again."""
        key = tuple(fp.fields().values())
        with self._publish:
            held = self._scopes.get(scope)
            if held is None:
                return _select(MemoryState(), fp)
            selection = held.selections.get(key)
            if selection is None:
                selection = held.selections[key] = _select(held.memory, fp)
            return selection

    # -- snapshots and audit ------------------------------------------------

    def snapshot(self, scope: str) -> str:
        """Record the scope's layers, the soul and the published memory (a
        layer named ``memory/<scope>.json``, though no such file exists), as
        one record appended to ``snapshots/<scope>.log``. The record holds
        only the layers that differ from the scope's previous snapshot; the
        digest covers them all. The notes are append-only, so the snapshot
        cites their count instead of copying them: its notes are the shard's
        first ``notes`` blocks."""
        with self._publish:
            self._lay_out()
            held = self._scope(scope)
            content = {"soul.md": self.soul_text()}
            if held.memory_text is not None:
                content[f"memory/{scope}.json"] = held.memory_text
            entry = {
                "seq": len(held.snapshots) + 1,
                "digest": digest_obj({"notes": held.note_count, "layers": list(content.items())}, 16),
                "notes": held.note_count,
            }
            changed = {rel: text.encode() for rel, text in content.items() if held.last_snapshot.get(rel) != text}
            changed.update((rel, None) for rel in held.last_snapshot if rel not in content)
            header = canonical_json({**entry, "layers": {rel: b if b is None else len(b) for rel, b in changed.items()}})
            body = b"".join(changed[rel] or b"" for rel in sorted(changed))
            held.snapshot_log.append(header.encode() + b"\n" + body)
            held.snapshots.append(entry)
            held.last_snapshot = content
            return entry["digest"]

    def snapshot_timeline(self, scope: str) -> list[dict[str, Any]]:
        held = self._scopes.get(scope)
        return [dict(entry) for entry in held.snapshots] if held is not None else []

    def snapshot_layers(self, scope: str, seq: int) -> dict[str, str]:
        """Every layer text of the scope's snapshot ``seq``, rebuilt from its log."""
        with self._publish:
            if not 1 <= seq <= len(self.snapshot_timeline(scope)):
                raise ContractError(f"scope {scope} has no snapshot {seq}")
            records, _ = read_records(self.root / "snapshots" / f"{scope}.log", _parse_snapshot)
        layers: dict[str, str] = {}
        for changed in [changed for header, changed in records if "seq" in header][:seq]:
            _fold_layers(layers, changed)
        return layers

    def _tree(self) -> Iterator[tuple[str, os.DirEntry[str]]]:
        """Every entry under the store with its relative path: children
        sorted by name, each directory's entries right after its name, the
        order of ``sorted(root.rglob("*"))``, which sorts by parts."""

        def walk(directory: str, prefix: str) -> Iterator[tuple[str, os.DirEntry[str]]]:
            with os.scandir(directory) as it:
                entries = sorted(it, key=lambda e: e.name)
            for entry in entries:
                rel = prefix + entry.name
                yield rel, entry
                if entry.is_dir(follow_symlinks=False):
                    yield from walk(entry.path, rel + "/")

        if self.root.is_dir():
            yield from walk(str(self.root), "")

    def listing(self) -> list[tuple[str, int, int, int, int, int]]:
        """Every file and directory under the store, in :meth:`tree_digest`'s
        order, each with its relative path, its type (``S_IFMT`` of its
        mode), ``st_size``, ``st_mtime_ns``, ``st_ctime_ns`` and ``st_ino``:
        one ``lstat`` per entry, no byte read. Equal listings before and
        after a command are its ``store_untouched`` check: a write that keeps
        a file's size, mtime, ctime and inode is not seen, and no process can
        set a ctime back."""
        return [
            (rel, stat.S_IFMT(st.st_mode), st.st_size, st.st_mtime_ns, st.st_ctime_ns, st.st_ino)
            for rel, entry in self._tree()
            for st in (entry.stat(follow_symlinks=False),)
        ]

    def tree_digest(self) -> str:
        """SHA-256 over every file's relative path and bytes, in sorted path
        order: equal digests mean byte-identical store trees."""
        h = hashlib.sha256()
        for rel, entry in self._tree():
            if entry.is_file():
                with open(entry.path, "rb") as fh:
                    data = fh.read()
                # length prefixes keep bytes from shifting across a file boundary
                for part in (rel.encode(), data):
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
