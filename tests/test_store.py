from __future__ import annotations

import hashlib
import json
import math
import random
import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, replace
from pathlib import Path

import pytest

from timeclaw.core import CandidateExecution, EpisodeOutcome, EvidenceClass
from timeclaw.errors import ContractError, LogError
from timeclaw.gateway import DeclaredTools
from timeclaw.prompts import build_inference_prompt, fingerprint, render_memory_rules
from timeclaw import store as store_module
from timeclaw.store import (
    CONFIDENCE_INIT,
    DEFAULT_SOUL,
    DISTILL_EVERY,
    MEMORY_CAP,
    CleanEvidence,
    ExperienceStore,
    LearningNote,
    MemoryState,
    _NOTE_FIELDS,
    clean,
    summarize_episode,
    update_memory,
)
from timeclaw.util import AppendLog, canonical_json, json_dumps, stable_rng

SCOPE = "synth_forecast_short"


def _note(
    seq=1,
    winner=("seasonal_naive",),
    losers=("naive",),
    evidence_class="comparative",
    chi=None,
    scope=SCOPE,
    tools=(),
    eval_evidence=True,
):
    return LearningNote(
        scope=scope,
        instance_id="inst42",
        winner_tools=tuple(winner),
        loser_tools=tuple(losers),
        metrics={},
        evidence_class=evidence_class,
        applicability=chi or {"task_subtype": "forecast", "seasonal": True},
        eval_evidence=eval_evidence,
        tools=tuple(tools),
        sequence=seq,
    )


def _twelve_field_shard(notes):
    """A notes shard as an older version wrote it: each block also held the
    prompt's digest, the trace log's name and the insight and recommendation
    of the summary the model once ended each episode with."""
    blocks = []
    for seq, note in enumerate(notes, 1):
        value = {attr: json_dumps(getattr(note, attr), sort_keys=True) for _, attr, _ in _NOTE_FIELDS}
        blocks.append("\n".join([
            f"<!-- note {seq} -->",
            f"instance: {value['instance_id']}",
            'prompt_digest: "46a017ea6592fa25"',
            f"evidence_class: {value['evidence_class']}",
            f"winner_tools: {value['winner_tools']}",
            f"loser_tools: {value['loser_tools']}",
            f"tools: {value['tools']}",
            f"applicability: {value['applicability']}",
            f"metrics: {value['metrics']}",
            f'trace: ["{SCOPE}.jsonl"]',
            f"eval_evidence: {value['eval_evidence']}",
            'insight: "seasonal_naive tracked the cycle best"',
            'recommendation: "prefer seasonal_naive"',
            f"<!-- end note {seq} -->",
            "",
        ]))
    return "".join(blocks)


def _evidence(prefer=("seasonal_naive",), avoid=(), kind="tool_preference", chi=None, ref="n1"):
    return CleanEvidence(
        kind=kind,
        applicability=chi if chi is not None else {"task_subtype": "forecast", "seasonal": True},
        preferred_tools=tuple(prefer),
        avoided_tools=tuple(avoid),
        note_ref=ref,
    )


class TestSummarizeEpisode:
    def _outcome(self, evidence_class, winner, candidates, reports=None):
        return EpisodeOutcome(
            instance_id="i1",
            candidates=candidates,
            winner=winner,
            evidence_class=evidence_class,
            trace_path="traces/synth_forecast_short.jsonl",
            eval_evidence=reports is not None,
            eval_reports=reports or {},
        )

    def _cand(self, branch, slot, chain, valid=True, quality=None):
        return CandidateExecution(
            branch_id=branch,
            slot=slot,
            final_answer=[1.0],
            valid=valid,
            quality=quality,
            substantive_chain=chain,
        )

    def test_comparative_note_names_winner_and_loser(self, seasonal_instance):
        candidates = [
            self._cand("b0", 0, ("seasonal_naive",), quality=-1.585),
            self._cand("b1", 1, ("naive",), quality=-1.821),
        ]
        outcome = self._outcome(EvidenceClass.COMPARATIVE, "b0", candidates, reports={"b0": {}, "b1": {}})
        note = summarize_episode(outcome, seasonal_instance, fingerprint(seasonal_instance))
        assert note.winner_tools == ("seasonal_naive",)
        assert note.loser_tools == ("naive",)
        assert note.evidence_class == "comparative"

    def test_the_note_does_not_depend_on_where_the_trace_is(self, seasonal_instance):
        # notes name no file, so store trees stay path-independent
        candidates = [
            self._cand("b0", 0, ("seasonal_naive",), quality=-1.585),
            self._cand("b1", 1, ("naive",), quality=-1.821),
        ]
        fp = fingerprint(seasonal_instance)
        here = self._outcome(EvidenceClass.COMPARATIVE, "b0", candidates, reports={"b0": {}, "b1": {}})
        there = replace(here, trace_path="/elsewhere/traces/other.jsonl")
        assert summarize_episode(here, seasonal_instance, fp) == summarize_episode(there, seasonal_instance, fp)

    def test_failure_note_has_no_winner_chain(self, seasonal_instance):
        candidates = [self._cand("b0", 0, ("naive",), valid=False)]
        outcome = self._outcome(EvidenceClass.FAILURE, None, candidates)
        note = summarize_episode(outcome, seasonal_instance, fingerprint(seasonal_instance))
        assert note.winner_tools == ()
        assert note.evidence_class == "failure"
        assert not note.eval_evidence

    def test_single_execution_note_flags_non_comparative(self, seasonal_instance):
        candidates = [self._cand("b0", 0, ("ses",), quality=-2.0)]
        outcome = self._outcome(
            EvidenceClass.SINGLE_EXECUTION, "b0", candidates, reports={"b0": {}}
        )
        note = summarize_episode(outcome, seasonal_instance, fingerprint(seasonal_instance))
        assert note.evidence_class == "single_execution"


class TestClean:
    def test_stance_derivation(self):
        comparative = clean(_note())
        assert comparative.kind == "tool_preference"
        assert comparative.preferred_tools == ("seasonal_naive",)
        assert comparative.avoided_tools == ("naive",)
        single = clean(_note(evidence_class="single_execution"))
        assert single.avoided_tools == ()
        failure = clean(_note(evidence_class="failure", winner=(), losers=("naive", "ses")))
        assert failure.kind == "avoidance"
        assert failure.avoided_tools == ("naive", "ses")
        assert failure.preferred_tools == ()


class TestUpdateMemory:
    def test_append_initializes_confidence(self):
        state = MemoryState()
        action = update_memory(state, _evidence())
        assert action == "append"
        assert len(state.rules) == 1
        assert state.rules[0].confidence == CONFIDENCE_INIT
        assert state.rules[0].injectable

    def test_agreeing_evidence_strengthens(self):
        state = MemoryState()
        update_memory(state, _evidence())
        action = update_memory(state, _evidence(ref="n2"))
        assert action == "strengthen"
        assert len(state.rules) == 1
        assert state.rules[0].confidence == pytest.approx(0.6)
        assert state.rules[0].evidence == ("n1", "n2")

    def test_overlapping_new_tools_merge(self):
        state = MemoryState()
        update_memory(state, _evidence(prefer=("seasonal_naive",)))
        action = update_memory(state, _evidence(prefer=("seasonal_naive", "ses"), ref="n2"))
        assert action == "merge"
        assert state.rules[0].preferred_tools == ("seasonal_naive", "ses")

    def test_contradiction_registers_conflict(self):
        state = MemoryState()
        update_memory(state, _evidence(prefer=("holt",)))
        action = update_memory(state, _evidence(prefer=(), avoid=("holt",), kind="avoidance", ref="n2"))
        assert action == "conflict"
        assert len(state.rules) == 2
        assert all(not r.injectable for r in state.rules)
        assert len([c for c in state.conflicts if c.open]) == 1

    def test_conflict_resolution_after_two_supporting_evidences(self):
        state = MemoryState()
        update_memory(state, _evidence(prefer=("holt",)))
        update_memory(state, _evidence(prefer=(), avoid=("holt",), kind="avoidance", ref="n2"))
        assert update_memory(state, _evidence(prefer=("holt",), ref="n3")) == "strengthen"
        # one supporting evidence: still unresolved, still non-injectable
        assert all(not r.injectable for r in state.rules)
        update_memory(state, _evidence(prefer=("holt",), ref="n4"))
        prefer_rule = state.rule("r0001")
        avoid_rule = state.rule("r0002")
        assert not any(c.open for c in state.conflicts)
        assert prefer_rule.injectable
        assert not avoid_rule.injectable
        assert avoid_rule.confidence == pytest.approx(CONFIDENCE_INIT / 2)
        assert avoid_rule.demoted

    def test_contradictory_rules_never_simultaneously_injectable(self):
        state = MemoryState()
        evidences = [
            _evidence(prefer=("holt",)),
            _evidence(prefer=(), avoid=("holt",), kind="avoidance", ref="n2"),
            _evidence(prefer=("holt",), ref="n3"),
            _evidence(prefer=("holt",), ref="n4"),
            _evidence(prefer=("holt",), ref="n5"),
        ]
        for ev in evidences:
            update_memory(state, ev)
            injectable = [r for r in state.rules if r.injectable]
            for a in injectable:
                for b in injectable:
                    assert not (
                        set(a.preferred_tools) & set(b.avoided_tools)
                        and a.applicability == b.applicability
                    )

    def test_cap_evicts_lowest_confidence(self):
        state = MemoryState()
        for i in range(MEMORY_CAP):
            update_memory(state, _evidence(prefer=(f"tool_{i:02d}",), ref=f"n{i}"))
        assert len(state.rules) == MEMORY_CAP
        # strengthen one rule so it is clearly not the eviction victim
        update_memory(state, _evidence(prefer=("tool_00",), ref="nx"))
        update_memory(state, _evidence(prefer=("brand_new",), ref="ny"))
        assert len(state.rules) == MEMORY_CAP
        assert any(r.preferred_tools == ("brand_new",) for r in state.rules)
        assert any(r.preferred_tools == ("tool_00",) for r in state.rules)

    def test_no_stance_is_contract_error(self):
        with pytest.raises(ContractError):
            update_memory(MemoryState(), _evidence(prefer=(), avoid=()))

    def test_cap_holds_under_random_streams(self):
        tools = [f"t{i}" for i in range(12)]
        for stream in range(20):
            rng = stable_rng("stream", stream)
            state = MemoryState()
            for step in range(100):
                prefer = tuple(rng.sample(tools, rng.randint(1, 2)))
                avoid = tuple(t for t in rng.sample(tools, rng.randint(0, 2)) if t not in prefer)
                chi = {"seasonal": rng.random() < 0.5, "task_subtype": "forecast"}
                kind = "tool_preference" if prefer else "avoidance"
                update_memory(state, _evidence(prefer=prefer, avoid=avoid, kind=kind, chi=chi, ref=f"n{step}"))
                assert len(state.rules) <= MEMORY_CAP


class TestRuleFormat:
    def test_rendered_memory_is_one_line_per_rule_and_names_merged_tools(self):
        state = MemoryState()
        update_memory(state, _evidence(prefer=("seasonal_naive",)))
        update_memory(state, _evidence(prefer=("holt",), chi={"task_subtype": "trend"}, ref="n2"))
        assert update_memory(state, _evidence(prefer=("seasonal_naive", "ses"), ref="n3")) == "merge"
        lines = render_memory_rules(state.rules).splitlines()
        assert len(lines) == len(state.rules) == 2
        assert lines[0] == (
            "- [r0001|tool_preference|c=0.60] prefer: seasonal_naive, ses; avoid: -; "
            'when: {"seasonal": true, "task_subtype": "forecast"}'
        )

    def test_a_logged_memory_with_summary_and_rationale_opens_and_loses_them_on_the_next_publish(
        self, tmp_path, seasonal_instance
    ):
        # memories once held each rule's templated summary and the text of
        # its first note as rationale, indented, and a snapshot record held
        # the same text
        store = ExperienceStore(tmp_path)
        _commit_and_distill(store, [_note(seq=None) for _ in range(10)])
        store.close()
        fp = fingerprint(seasonal_instance)
        rules = [r.to_dict() for r in store.retrieve(SCOPE, fp).rules]
        layers = store.snapshot_layers(SCOPE, 1)
        old = json.loads(layers[f"memory/{SCOPE}.json"])
        for rule in old["rules"]:
            rule["summary"] = 'Prefer seasonal_naive for samples with seasonal=true, task_subtype="forecast".'
            rule["rationale"] = "seasonal_naive tracked the cycle best prefer seasonal_naive"
        layers[f"memory/{SCOPE}.json"] = json.dumps(old, sort_keys=True, indent=1) + "\n"
        digest = store.snapshot_timeline(SCOPE)[0]["digest"]
        (tmp_path / "snapshots" / f"{SCOPE}.log").write_bytes(_log_record(layers, notes=10, seq=1, digest=digest))
        reopened = ExperienceStore(tmp_path)
        assert reopened.memory_state(SCOPE) == store.memory_state(SCOPE)
        assert rules and [r.to_dict() for r in reopened.retrieve(SCOPE, fp).rules] == rules
        _commit_and_distill(reopened, [_note(seq=None) for _ in range(10)])
        rewritten = json.loads(reopened.snapshot_layers(SCOPE, 2)[f"memory/{SCOPE}.json"])["rules"]
        assert rewritten and all("summary" not in r and "rationale" not in r for r in rewritten)


class TestStoreNotes:
    def test_commit_assigns_gapless_sequences(self, tmp_path):
        store = ExperienceStore(tmp_path)
        for i in range(3):
            store.commit_note(_note(seq=None))
        notes = store.notes(SCOPE)
        assert [n.sequence for n in notes] == [1, 2, 3]

    def test_a_note_without_eval_evidence_is_committed_marked_and_never_pending(self, tmp_path):
        store = ExperienceStore(tmp_path)
        committed = store.commit_note(_note(seq=None, eval_evidence=False))
        assert store.notes(SCOPE) == [committed] and not committed.eval_evidence
        assert "eval_evidence: false" in (tmp_path / "notes" / f"{SCOPE}.md").read_text(encoding="utf-8")
        assert store.pending_notes(SCOPE) == ExperienceStore(tmp_path).pending_notes(SCOPE) == []

    def test_committed_notes_are_never_mutated(self, tmp_path):
        store = ExperienceStore(tmp_path)
        store.commit_note(_note())
        before = (tmp_path / "notes" / f"{SCOPE}.md").read_text(encoding="utf-8")
        store.commit_note(_note())
        after = (tmp_path / "notes" / f"{SCOPE}.md").read_text(encoding="utf-8")
        assert after.startswith(before)

    def test_round_trip_preserves_fields(self, tmp_path):
        store = ExperienceStore(tmp_path)
        original = replace(_note(tools=("naive", "naive")), metrics={"b0": {"failure_reason": 'tricky "quoted"\ntext'}})
        assert store.commit_note(original) == original
        assert store.notes(SCOPE) == ExperienceStore(tmp_path).notes(SCOPE) == [original]

    def test_every_note_field_but_scope_and_sequence_is_stored(self):
        # a field missing from the block would be dropped silently on commit
        stored = {attr for _, attr, _ in _NOTE_FIELDS}
        assert stored == {f.name for f in fields(LearningNote)} - {"scope", "sequence"}


    def test_a_shard_in_the_twelve_field_format_opens_as_the_eight_field_one(self, tmp_path):
        # notes once also held the prompt's digest, the trace log's name and
        # the text of the model's closing summary: a shard written so opens
        # with the same notes, usage counts and distilled memory
        notes = [
            replace(_note(seq=None, winner=(f"tool_{i % 3}",), tools=(f"tool_{i % 3}", "naive")),
                    metrics={"b0": {"quality": -1.5 - i, "valid": True}})
            for i in range(13)
        ]
        new = ExperienceStore(tmp_path / "new")
        for note in notes:
            new.commit_note(note)
        old_shard = _twelve_field_shard(notes)
        dropped = ("prompt_digest: ", "trace: ", "insight: ", "recommendation: ")
        new_shard = (tmp_path / "new" / "notes" / f"{SCOPE}.md").read_text(encoding="utf-8")
        assert new_shard.splitlines() == [line for line in old_shard.splitlines() if not line.startswith(dropped)]
        (tmp_path / "old" / "notes").mkdir(parents=True)
        (tmp_path / "old" / "soul.md").write_text(DEFAULT_SOUL, encoding="utf-8")
        (tmp_path / "old" / "notes" / f"{SCOPE}.md").write_text(old_shard, encoding="utf-8")
        old = ExperienceStore(tmp_path / "old")
        assert old.notes(SCOPE) == new.notes(SCOPE) == [replace(n, sequence=i) for i, n in enumerate(notes, 1)]
        assert old.ledger.counts(SCOPE) == new.ledger.counts(SCOPE) == {"naive": 13, "tool_0": 5, "tool_1": 4, "tool_2": 4}
        assert old.pending_notes(SCOPE) == new.pending_notes(SCOPE)
        old.finalize(SCOPE)
        new.finalize(SCOPE)
        assert old.memory_state(SCOPE).rules
        assert old.memory_state(SCOPE) == new.memory_state(SCOPE)
        assert _tree(tmp_path / "old" / "snapshots") == _tree(tmp_path / "new" / "snapshots")

    def test_a_twelve_field_shard_takes_new_notes_after_its_own(self, tmp_path):
        # an older store is appended to in the eight-field format, its own
        # blocks left as they were written
        old_notes = [_note(seq=None, winner=(f"tool_{i}",), tools=(f"tool_{i}",)) for i in range(3)]
        shard = tmp_path / "notes" / f"{SCOPE}.md"
        shard.parent.mkdir(parents=True)
        (tmp_path / "soul.md").write_text(DEFAULT_SOUL, encoding="utf-8")
        shard.write_text(_twelve_field_shard(old_notes), encoding="utf-8")
        before = shard.read_bytes()
        store = ExperienceStore(tmp_path)
        added = store.commit_note(_note(seq=None, tools=("naive",)))
        assert added.sequence == 4
        after = shard.read_bytes()
        assert after.startswith(before)
        assert b"insight" not in after[len(before):] and b"prompt_digest" not in after[len(before):]
        expected = [replace(n, sequence=i) for i, n in enumerate(old_notes, 1)] + [added]
        assert store.notes(SCOPE) == ExperienceStore(tmp_path).notes(SCOPE) == expected
        assert ExperienceStore(tmp_path).ledger.counts(SCOPE) == {"tool_0": 1, "tool_1": 1, "tool_2": 1, "naive": 1}

    def test_a_block_without_a_key_reads_that_key_s_default(self, tmp_path):
        shard = tmp_path / "notes" / f"{SCOPE}.md"
        shard.parent.mkdir(parents=True)
        shard.write_text('<!-- note 1 -->\ninstance: "inst7"\n<!-- end note 1 -->\n', encoding="utf-8")
        (note,) = ExperienceStore(tmp_path).notes(SCOPE)
        assert note == LearningNote(
            scope=SCOPE, instance_id="inst7", winner_tools=(), loser_tools=(), metrics={},
            evidence_class="failure", applicability={}, eval_evidence=False, tools=(), sequence=1,
        )

    def test_torn_last_block_is_dropped_then_cut_off(self, tmp_path, caplog):
        store = ExperienceStore(tmp_path)
        for _ in range(5):
            store.commit_note(_note(seq=None))
        shard = tmp_path / "notes" / f"{SCOPE}.md"
        full = shard.read_bytes()
        shard.write_bytes(full[:-30])
        reopened = ExperienceStore(tmp_path)
        line = full.count(b"\n", 0, full.index(b"<!-- note 5 -->")) + 1
        assert f"{shard}: line {line}: dropped a torn last record" in caplog.text
        assert [n.sequence for n in reopened.pending_notes(SCOPE)] == [1, 2, 3, 4]
        reopened.commit_note(_note(seq=None))
        caplog.clear()
        again = ExperienceStore(tmp_path)
        assert not caplog.text
        assert [n.sequence for n in again.notes(SCOPE)] == [1, 2, 3, 4, 5]
        assert shard.read_bytes() == full  # the same note, committed again

    def test_bad_block_before_the_last_names_file_and_line(self, tmp_path):
        store = ExperienceStore(tmp_path)
        for _ in range(3):
            store.commit_note(_note(seq=None))
        shard = tmp_path / "notes" / f"{SCOPE}.md"
        full = shard.read_bytes()
        second = full.index(b"<!-- note 2 -->")
        shard.write_bytes(full.replace(b"instance: ", b"instance= ", 2).replace(b"instance= ", b"instance: ", 1))
        line = full.count(b"\n", 0, second) + 1
        with pytest.raises(LogError, match=re.escape(f"{shard}: line {line}: bad record")):
            ExperienceStore(tmp_path)

    def test_bad_value_in_a_distilled_note_surfaces_when_notes_reads_it(self, tmp_path):
        _commit_and_distill(ExperienceStore(tmp_path), [_note(seq=None) for _ in range(12)])
        shard = tmp_path / "notes" / f"{SCOPE}.md"
        full = shard.read_bytes()
        second = full.index(b"<!-- note 2 -->")
        metrics = full.index(b"metrics: {}", second)
        shard.write_bytes(full[:metrics] + b"metrics: {bad" + full[metrics + len(b"metrics: {}") :])
        reopened = ExperienceStore(tmp_path)  # note 2 is distilled: framed at open, not decoded
        assert [n.sequence for n in reopened.pending_notes(SCOPE)] == [11, 12]
        line = full.count(b"\n", 0, second) + 1
        with pytest.raises(LogError, match=re.escape(f"{shard}: line {line}: bad record")):
            reopened.notes(SCOPE)

    def test_gapped_shard_is_refused(self, tmp_path):
        store = ExperienceStore(tmp_path)
        for _ in range(3):
            store.commit_note(_note(seq=None))
        shard = tmp_path / "notes" / f"{SCOPE}.md"
        shard.write_text(shard.read_text(encoding="utf-8").replace("note 2 -->", "note 7 -->"), encoding="utf-8")
        with pytest.raises(ContractError, match="non-gapless"):
            store.notes(SCOPE)
        with pytest.raises(ContractError, match="non-gapless"):
            ExperienceStore(tmp_path)

    @pytest.mark.parametrize("kept", [9, 0], ids=["torn", "gone"])
    def test_a_shard_shorter_than_its_distilled_memory_is_refused(self, tmp_path, kept):
        _commit_and_distill(ExperienceStore(tmp_path), [_note(seq=None) for _ in range(10)])
        shard = tmp_path / "notes" / f"{SCOPE}.md"
        full = shard.read_bytes()
        if kept:
            shard.write_bytes(full[: full.index(b"<!-- note 10 -->")])
        else:
            shard.unlink()
        with pytest.raises(ContractError, match=re.escape(f"{shard} holds {kept} notes, but its memory is distilled through note 10")):
            ExperienceStore(tmp_path)


class TestDistillationTriggers:
    def _commit_n(self, store, n, start=0):
        stages_log = []
        for i in range(n):
            store.commit_note(_note(seq=None, winner=(f"tool_{(start + i) % 3}",)))
            stages_log.append(store.maybe_trigger_distillation(SCOPE))
        return stages_log

    def test_fires_exactly_on_tenth_note(self, tmp_path):
        store = ExperienceStore(tmp_path)
        stages_log = self._commit_n(store, 25)
        fired = [i + 1 for i, stages in enumerate(stages_log) if stages]
        assert fired == [10, 20]
        assert DISTILL_EVERY == 10

    def test_finalize_flushes_short_tail(self, tmp_path):
        store = ExperienceStore(tmp_path)
        self._commit_n(store, 3)
        stages = store.finalize(SCOPE)
        assert "notes_to_memory" in stages
        assert store.pending_notes(SCOPE) == []
        assert store.finalize(SCOPE) == []

    def test_downstream_rebuild_iff_fingerprint_changed(self, tmp_path):
        store = ExperienceStore(tmp_path)
        # first batch creates rules -> full pipeline
        self._commit_n(store, 10)
        state = store.memory_state(SCOPE)
        assert state.rules
        # a batch with no tool stance leaves memory untouched -> downstream skipped
        for _ in range(10):
            store.commit_note(_note(seq=None, winner=(), losers=(), evidence_class="single_execution"))
        stages = store.maybe_trigger_distillation(SCOPE)
        assert stages == ["notes_to_memory"]

    def test_full_pipeline_stage_list(self, tmp_path, seasonal_instance):
        store = ExperienceStore(tmp_path)
        for _ in range(9):
            store.commit_note(_note(seq=None))
            assert store.maybe_trigger_distillation(SCOPE) == []
        store.commit_note(_note(seq=None))
        stages = store.maybe_trigger_distillation(SCOPE)
        assert stages == ["notes_to_memory", "snapshot"]
        selection = store.retrieve(SCOPE, fingerprint(seasonal_instance))
        assert [(r.preferred_tools, r.avoided_tools) for r in selection.rules] == [(("seasonal_naive",), ("naive",))]
        assert not (tmp_path / "skills").exists() and not (tmp_path / "tools").exists()


class TestRetrieve:
    def test_injectable_and_matching_only(self, tmp_path, seasonal_instance):
        store = ExperienceStore(tmp_path)
        for _ in range(10):
            store.commit_note(_note(seq=None))
        store.maybe_trigger_distillation(SCOPE)
        fp = fingerprint(seasonal_instance)
        selection = store.retrieve(SCOPE, fp)
        assert selection.rules
        assert all(r.injectable for r in selection.rules)
        assert "seasonal_naive" in selection.rules[0].preferred_tools

    def test_non_matching_fingerprint_excluded(self, tmp_path, trend_instance):
        store = ExperienceStore(tmp_path)
        for _ in range(10):
            store.commit_note(_note(seq=None))
        store.maybe_trigger_distillation(SCOPE)
        fp = fingerprint(trend_instance)  # task_subtype=trend does not match
        assert store.retrieve(SCOPE, fp).rules == ()

    def test_missing_scope_is_empty_selection(self, tmp_path, seasonal_instance):
        store = ExperienceStore(tmp_path)
        selection = store.retrieve("nowhere", fingerprint(seasonal_instance))
        assert selection.rules == ()

    def test_non_injectable_rules_are_excluded(self, tmp_path, seasonal_instance):
        store = ExperienceStore(tmp_path)
        store.commit_note(_note(seq=None, winner=("holt",), losers=()))
        store.commit_note(_note(seq=None, winner=(), losers=("holt",), evidence_class="failure"))
        store.finalize(SCOPE)
        rules = store.memory_state(SCOPE).rules
        assert len(rules) == 2 and all(not r.injectable for r in rules)  # open conflict
        assert store.retrieve(SCOPE, fingerprint(seasonal_instance)).rules == ()

    def test_ordering_confidence_desc_then_seq(self, tmp_path, seasonal_instance):
        store = ExperienceStore(tmp_path)
        for winner in ("a", "b", "b"):  # the second b strengthens b
            store.commit_note(_note(seq=None, winner=(winner,), losers=()))
        store.finalize(SCOPE)
        selection = store.retrieve(SCOPE, fingerprint(seasonal_instance))
        assert [r.preferred_tools for r in selection.rules] == [("b",), ("a",)]

    def test_fingerprints_with_the_same_fields_share_one_selection(self, tmp_path, seasonal_instance):
        store = ExperienceStore(tmp_path)
        _commit_and_distill(store, [_note(seq=None) for _ in range(10)])
        fp = fingerprint(seasonal_instance)
        other = replace(fp, mean=fp.mean + 1.0, std=fp.std * 2.0, n_anomalies=fp.n_anomalies + 3)
        assert other != fp and other.fields() == fp.fields()
        selection = store.retrieve(SCOPE, fp)
        assert selection.rules
        assert store.retrieve(SCOPE, other) is selection
        assert store.retrieve(SCOPE, replace(fp, trend_class="nowhere")) is not selection

    def test_a_new_memory_is_retrieved_as_a_reopened_store_retrieves_it(self, tmp_path, seasonal_instance):
        store = ExperienceStore(tmp_path)
        fp = fingerprint(seasonal_instance)
        _commit_and_distill(store, [_note(seq=None) for _ in range(10)])
        before = store.retrieve(SCOPE, fp)
        # holt wins from now on: the memory and its matching rules change
        stages = store.finalize(SCOPE) or []
        for _ in range(10):
            store.commit_note(_note(seq=None, winner=("holt",), losers=("seasonal_naive",)))
            stages += store.maybe_trigger_distillation(SCOPE)
        assert "snapshot" in stages
        after, reopened = store.retrieve(SCOPE, fp), ExperienceStore(tmp_path).retrieve(SCOPE, fp)
        assert [r.to_dict() for r in after.rules] == [r.to_dict() for r in reopened.rules]
        assert [r.to_dict() for r in after.rules] != [r.to_dict() for r in before.rules]
        assert "holt" in after.rules[0].preferred_tools

    def test_retrievals_racing_distillations_end_on_the_published_memory(self, tmp_path, seasonal_instance):
        store = ExperienceStore(tmp_path)
        fp = fingerprint(seasonal_instance)
        stop = threading.Event()

        def render(selection):
            return build_inference_prompt(seasonal_instance, fp, selection, DeclaredTools(), soul=store.soul_text()).system_text

        def reader():
            while not stop.is_set():
                render(store.retrieve(SCOPE, fp))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, so a stale memo shows
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                readers = [pool.submit(reader) for _ in range(4)]
                try:
                    for winner in ("seasonal_naive", "holt", "drift"):
                        _commit_and_distill(store, [_note(seq=None, winner=(winner,)) for _ in range(10)])
                finally:
                    stop.set()
                for future in readers:
                    future.result(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        after, reopened = store.retrieve(SCOPE, fp), ExperienceStore(tmp_path).retrieve(SCOPE, fp)
        assert [r.to_dict() for r in after.rules] == [r.to_dict() for r in reopened.rules]
        assert render(after) == render(reopened)


class TestSnapshots:
    def test_identical_content_identical_digest(self, tmp_path):
        store = ExperienceStore(tmp_path)
        store.commit_note(_note(seq=None))
        d1 = store.snapshot(SCOPE)
        d2 = store.snapshot(SCOPE)
        assert d1 == d2
        timeline = store.snapshot_timeline(SCOPE)
        assert [s["seq"] for s in timeline] == [1, 2]

    def test_write_changes_digest(self, tmp_path):
        store = ExperienceStore(tmp_path)
        store.commit_note(_note(seq=None))
        d1 = store.snapshot(SCOPE)
        store.commit_note(_note(seq=None))
        d2 = store.snapshot(SCOPE)
        assert d1 != d2

    def test_snapshot_sequence_reconstructs_memory_history(self, tmp_path):
        store = ExperienceStore(tmp_path)
        seen_states = []
        for i in range(30):
            store.commit_note(_note(seq=None, winner=(f"tool_{i % 4}",)))
            store.maybe_trigger_distillation(SCOPE)
            seen_states.append(store.memory_state(SCOPE).content_fingerprint())
        timeline = store.snapshot_timeline(SCOPE)
        assert timeline  # distillation snapshots happened
        for entry in timeline:
            layers = store.snapshot_layers(SCOPE, entry["seq"])
            assert f"memory/{SCOPE}.json" in layers
            state = MemoryState.from_dict(json.loads(layers[f"memory/{SCOPE}.json"]))
            assert state.content_fingerprint() in seen_states

    def test_snapshots_cite_the_notes_count_and_read_no_files(self, tmp_path, monkeypatch):
        store = ExperienceStore(tmp_path)

        def refuse(*args, **kwargs):
            raise AssertionError("the store re-read its own files")

        monkeypatch.setattr(Path, "read_text", refuse)
        for i in range(30):
            store.commit_note(_note(seq=None, winner=(f"tool_{i % 4}",)))
            store.maybe_trigger_distillation(SCOPE)
        monkeypatch.undo()
        timeline = store.snapshot_timeline(SCOPE)
        assert [entry["notes"] for entry in timeline] == [10, 20, 30]
        for entry in timeline:
            layers = store.snapshot_layers(SCOPE, entry["seq"])
            memory = MemoryState.from_dict(json.loads(layers[f"memory/{SCOPE}.json"]))
            assert memory.distilled_through == entry["notes"]
            assert not [rel for rel in layers if rel.startswith("notes/")]

    def test_soul_is_static_configuration(self, tmp_path):
        store = ExperienceStore(tmp_path)
        soul_before = store.soul_text()
        for _ in range(10):
            store.commit_note(_note(seq=None))
        store.maybe_trigger_distillation(SCOPE)
        assert store.soul_text() == soul_before


def _tree(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _commit_and_distill(store, notes):
    for note in notes:
        store.commit_note(note)
        store.maybe_trigger_distillation(note.scope)


class TestLayout:
    def test_opening_writes_nothing(self, tmp_path):
        store = ExperienceStore(tmp_path / "store")
        assert store.soul_text() == DEFAULT_SOUL
        assert store.report() == {}
        assert not (tmp_path / "store").exists()

    def test_first_write_lays_the_store_out(self, tmp_path):
        # soul.md is written once, at the first write; each log makes its
        # directory at its first append
        store = ExperienceStore(tmp_path)
        store.commit_note(_note(seq=None))
        assert {p.name for p in tmp_path.iterdir()} == {"soul.md", "notes"}
        assert (tmp_path / "soul.md").read_text(encoding="utf-8") == DEFAULT_SOUL
        store.finalize(SCOPE)
        assert {p.name for p in tmp_path.iterdir()} == {"soul.md", "notes", "snapshots"}


class TestInMemoryState:
    def test_reopened_store_matches_one_that_never_closed(self, tmp_path):
        notes = [_note(seq=None, winner=(f"tool_{i % 3}",)) for i in range(25)]
        whole = ExperienceStore(tmp_path / "whole")
        _commit_and_distill(whole, notes)
        _commit_and_distill(ExperienceStore(tmp_path / "split"), notes[:13])
        split = ExperienceStore(tmp_path / "split")  # reopened between the two distillations
        _commit_and_distill(split, notes[13:])
        assert _tree(tmp_path / "split") == _tree(tmp_path / "whole")
        assert len(whole.snapshot_timeline(SCOPE)) == 2
        assert split.memory_state(SCOPE) == whole.memory_state(SCOPE)
        assert split.pending_notes(SCOPE) == whole.pending_notes(SCOPE) == whole.notes(SCOPE)[20:]

    def test_every_append_is_read_by_a_fresh_store(self, tmp_path):
        store = ExperienceStore(tmp_path)
        for n in range(1, 4):
            note = store.commit_note(_note(seq=None))
            notes = ExperienceStore(tmp_path).notes(SCOPE)
            assert len(notes) == n and notes[-1] == note
            store.snapshot(SCOPE)
            assert ExperienceStore(tmp_path).snapshot_timeline(SCOPE) == store.snapshot_timeline(SCOPE)
        store.close()

    def test_a_store_closed_after_each_note_appends_as_one_never_closed(self, tmp_path):
        notes = [_note(seq=None, winner=(f"tool_{i % 3}",)) for i in range(25)]
        _commit_and_distill(ExperienceStore(tmp_path / "whole"), notes)
        closing = ExperienceStore(tmp_path / "closing")
        for note in notes:
            _commit_and_distill(closing, [note])
            closing.close()  # the next append opens its log again
        assert _tree(tmp_path / "closing") == _tree(tmp_path / "whole")

    def test_open_decodes_only_the_pending_notes(self, tmp_path, monkeypatch):
        """A store killed with 3 pending notes decodes those 3 at open, and
        its pending notes and a resumed finalize are those of a store that
        never closed; once finalized, a store decodes none at open."""
        notes = [_note(seq=None, winner=(f"tool_{i % 3}",)) for i in range(23)]
        whole = ExperienceStore(tmp_path / "whole")
        _commit_and_distill(whole, notes)
        _commit_and_distill(ExperienceStore(tmp_path / "killed"), notes)
        committed = whole.notes(SCOPE)
        decoded = []

        def counted(scope, seq, block):
            decoded.append(seq)
            return note_from_block(scope, seq, block)

        note_from_block = store_module._note_from_block
        monkeypatch.setattr(store_module, "_note_from_block", counted)
        killed = ExperienceStore(tmp_path / "killed")
        assert decoded == [21, 22, 23]
        assert killed.pending_notes(SCOPE) == whole.pending_notes(SCOPE) == committed[20:]
        assert killed.finalize(SCOPE) == whole.finalize(SCOPE)
        assert _tree(tmp_path / "killed") == _tree(tmp_path / "whole")
        decoded.clear()
        finalized = ExperienceStore(tmp_path / "killed")
        assert decoded == [] and finalized.pending_notes(SCOPE) == []
        assert finalized.notes(SCOPE) == committed and len(decoded) == 23

    def test_distill_and_retrieve_read_no_files_after_open(self, tmp_path, seasonal_instance, monkeypatch):
        _commit_and_distill(ExperienceStore(tmp_path), [_note(seq=None) for _ in range(10)])
        store = ExperienceStore(tmp_path)
        for _ in range(10):
            store.commit_note(_note(seq=None, winner=("holt",), losers=()))
        fp = fingerprint(seasonal_instance)

        def refuse(*args, **kwargs):
            raise AssertionError("the store re-read its own files")

        monkeypatch.setattr(Path, "read_text", refuse)
        monkeypatch.setattr(json, "loads", refuse)
        stages = store.maybe_trigger_distillation(SCOPE)
        selection = store.retrieve(SCOPE, fp)
        monkeypatch.undo()
        assert "snapshot" in stages
        assert [r.to_dict() for r in selection.rules] == [r.to_dict() for r in ExperienceStore(tmp_path).retrieve(SCOPE, fp).rules]
        assert {"holt", "seasonal_naive"} <= {tool for r in selection.rules for tool in r.preferred_tools}

    def test_distillation_leaves_a_held_selection_unchanged(self, tmp_path, seasonal_instance):
        store = ExperienceStore(tmp_path)
        _commit_and_distill(store, [_note(seq=None) for _ in range(10)])
        fp = fingerprint(seasonal_instance)
        selection = store.retrieve(SCOPE, fp)
        held = [rule.to_dict() for rule in selection.rules]
        _commit_and_distill(store, [_note(seq=None) for _ in range(10)])  # strengthens the same rule
        assert [rule.to_dict() for rule in selection.rules] == held
        assert store.retrieve(SCOPE, fp).rules[0].confidence > selection.rules[0].confidence

    @pytest.mark.parametrize("snapshotted", [0, 10])
    def test_a_reopened_store_keeps_the_cursor_of_a_batch_that_took_no_snapshot(self, tmp_path, snapshotted):
        head = [_note(seq=None, winner=(f"tool_{i % 3}",)) for i in range(snapshotted)]
        stanceless = [_note(seq=None, winner=(), losers=(), evidence_class="single_execution") for _ in range(10)]
        tail = [_note(seq=None, winner=("holt",), losers=()) for _ in range(10)]
        never, closed = ExperienceStore(tmp_path / "never"), ExperienceStore(tmp_path / "closed")
        for store in (never, closed):
            _commit_and_distill(store, head)
            for note in stanceless:
                store.commit_note(note)
            assert store.maybe_trigger_distillation(SCOPE) == ["notes_to_memory"]
        closed.close()
        log = tmp_path / "closed" / "snapshots" / f"{SCOPE}.log"
        cursor = b'{"distilled_through":%d,"layers":{}}\n' % (snapshotted + 10)
        assert log.read_bytes().endswith(cursor)
        reopened = ExperienceStore(tmp_path / "closed")
        assert reopened.memory_state(SCOPE).distilled_through == snapshotted + 10
        assert reopened.memory_state(SCOPE) == never.memory_state(SCOPE)
        assert reopened.pending_notes(SCOPE) == []
        assert reopened.snapshot_timeline(SCOPE) == never.snapshot_timeline(SCOPE)
        assert len(never.snapshot_timeline(SCOPE)) == (1 if snapshotted else 0)

        def fired(store):
            at = []
            for i, note in enumerate(tail, 1):
                store.commit_note(note)
                if store.maybe_trigger_distillation(SCOPE):
                    at.append(i)
            return at

        assert fired(reopened) == fired(never) == [10]
        assert log.read_bytes() == (tmp_path / "never" / "snapshots" / f"{SCOPE}.log").read_bytes()
        seq = len(never.snapshot_timeline(SCOPE))
        assert ExperienceStore(tmp_path / "closed").snapshot_layers(SCOPE, seq) == _held_layers(never, SCOPE)


def _held_layers(store, scope):
    """The layers a snapshot of ``scope`` covers, as ``store`` holds them
    now: the soul, and the published memory as one line of sorted-key JSON."""
    memory = json_dumps(store.memory_state(scope).to_dict(), sort_keys=True) + "\n"
    return {"soul.md": store.soul_text(), f"memory/{scope}.json": memory}


def _log_record(layers, notes, seq, digest="0" * 16):
    """A snapshot record holding ``layers`` whole, as older versions wrote it."""
    header = {"digest": digest, "layers": {rel: len(text.encode()) for rel, text in layers.items()}, "notes": notes, "seq": seq}
    return canonical_json(header).encode() + b"\n" + "".join(layers[rel] for rel in sorted(layers)).encode()


def _memory(scope, layers):
    """The memory among ``layers``."""
    return MemoryState.from_dict(json.loads(layers[f"memory/{scope}.json"]))


def _injectable_tools(memory):
    """Every tool an injectable rule of ``memory`` prefers or avoids."""
    return sorted({tool for r in memory.rules if r.injectable for tool in (*r.preferred_tools, *r.avoided_tools)})


# Two scopes whose distillations add the tools their injectable rules name
# and, once memory is full and evicts, remove them.
OTHER = "synth_other_short"
CHURN = [_note(seq=None, winner=(f"t{i:02d}",), losers=()) for i in range(70)]
CHURN[2::3] = [_note(seq=None, scope=OTHER, winner=(f"t{i % 5:02d}",), losers=()) for i in range(len(CHURN[2::3]))]


class TestScopeLocalLayers:
    def test_a_distillation_leaves_other_scopes_and_repeats_no_line(self, tmp_path, seasonal_instance):
        store = ExperienceStore(tmp_path)
        store.commit_note(_note(seq=None, scope=OTHER, winner=("b",), losers=("a",)))
        store.finalize(OTHER)
        fp = fingerprint(seasonal_instance)
        selection, digest = store.retrieve(OTHER, fp), store.snapshot(OTHER)
        assert [(r.preferred_tools, r.avoided_tools) for r in selection.rules] == [(("b",), ("a",))]
        # SCOPE's rules name OTHER's tools too; its second and third rules
        # both prefer b at confidence 0.50, the third in a conflict
        for winner, loser in (("d", "c"), ("b", "a"), ("b", "d")):
            store.commit_note(_note(seq=None, winner=(winner,), losers=(loser,)))
            assert "snapshot" in store.finalize(SCOPE)
        assert store.retrieve(OTHER, fp) == selection
        assert store.snapshot(OTHER) == digest
        memories = [_memory(scope, _held_layers(store, scope)) for scope in (OTHER, SCOPE)]
        # only SCOPE's second rule is injectable, so it names a and b too
        assert [_injectable_tools(memory) for memory in memories] == [["a", "b"], ["a", "b"]]
        for scope in (OTHER, SCOPE):
            prompt = build_inference_prompt(seasonal_instance, fp, store.retrieve(scope, fp), DeclaredTools())
            lines = [line for line in (prompt.system_text + prompt.user_text).splitlines() if line]
            assert len(lines) == len(set(lines)), prompt.system_text


class Killed(BaseException):
    """Stands in for the process dying."""


class TestPublishedMemory:
    @pytest.mark.parametrize("kill", ["before", "after"])
    def test_a_store_killed_around_its_snapshot_append_ends_as_one_never_killed(
        self, tmp_path, seasonal_instance, monkeypatch, kill
    ):
        first = [_note(seq=None) for _ in range(10)]
        second = [_note(seq=None, winner=("holt",), losers=("seasonal_naive",)) for _ in range(10)]
        whole = ExperienceStore(tmp_path / "whole")
        _commit_and_distill(whole, first + second)
        assert whole.finalize(SCOPE) == []  # nothing pending, the timeline in step
        killed = ExperienceStore(tmp_path / "killed")
        _commit_and_distill(killed, first)
        for note in second:
            killed.commit_note(note)
        log = tmp_path / "killed" / "snapshots" / f"{SCOPE}.log"
        append = AppendLog.append

        def append_and_die(self, record):
            if self.path != log:
                return append(self, record)
            if kill == "after":
                append(self, record)
            raise Killed

        monkeypatch.setattr(AppendLog, "append", append_and_die)
        with pytest.raises(Killed):
            killed.maybe_trigger_distillation(SCOPE)
        monkeypatch.undo()
        reopened = ExperienceStore(tmp_path / "killed")
        if kill == "before":  # nothing published: the batch is pending again
            assert [(e["seq"], e["notes"]) for e in reopened.snapshot_timeline(SCOPE)] == [(1, 10)]
            assert reopened.finalize(SCOPE) == ["notes_to_memory", "snapshot"]
        else:
            assert reopened.finalize(SCOPE) == []
        fp = fingerprint(seasonal_instance)
        retrieved, expected = reopened.retrieve(SCOPE, fp), whole.retrieve(SCOPE, fp)
        assert [r.to_dict() for r in retrieved.rules] == [r.to_dict() for r in expected.rules]
        assert "holt" in retrieved.rules[0].preferred_tools
        assert reopened.snapshot_timeline(SCOPE) == whole.snapshot_timeline(SCOPE)
        last = reopened.snapshot_layers(SCOPE, 2)[f"memory/{SCOPE}.json"]
        assert MemoryState.from_dict(json.loads(last)).content_fingerprint() == (
            reopened.memory_state(SCOPE).content_fingerprint()
        )
        for rel in (f"snapshots/{SCOPE}.log", f"notes/{SCOPE}.md"):
            assert (tmp_path / "killed" / rel).read_bytes() == (tmp_path / "whole" / rel).read_bytes()
        assert ExperienceStore(tmp_path / "killed").finalize(SCOPE) == []

    def test_an_older_store_whose_memory_file_ran_ahead_of_its_log_ends_as_one_never_killed(
        self, tmp_path, seasonal_instance
    ):
        # Older versions published a memory by rewriting memory/<scope>.json
        # (indented, each rule with a summary and a rationale) and then
        # snapshotting it; one killed between the two left the file a batch
        # ahead of the log. The store reads the memory from the log and
        # leaves the file as it found it.
        first = [_note(seq=None) for _ in range(10)]
        second = [_note(seq=None, winner=("holt",), losers=("seasonal_naive",)) for _ in range(10)]
        whole = ExperienceStore(tmp_path / "whole")
        _commit_and_distill(whole, first + second)
        root = tmp_path / "old"
        old = ExperienceStore(root)
        _commit_and_distill(old, first)
        for note in second:
            old.commit_note(note)
        old.close()
        memory = whole.memory_state(SCOPE).to_dict()
        for rule in memory["rules"]:
            rule["summary"] = "Prefer holt for samples with seasonal=true."
            rule["rationale"] = "holt tracked the level best"
        (root / "memory").mkdir()
        (root / "memory" / f"{SCOPE}.json").write_text(json.dumps(memory, sort_keys=True, indent=1) + "\n", encoding="utf-8")
        found = _tree(root / "memory")
        reopened = ExperienceStore(root)
        assert reopened.memory_state(SCOPE).distilled_through == 10
        assert reopened.pending_notes(SCOPE) == whole.notes(SCOPE)[10:]
        # re-distilling the killed batch gives what the never-killed store holds
        assert reopened.finalize(SCOPE) == ["notes_to_memory", "snapshot"]
        fp = fingerprint(seasonal_instance)
        retrieved, expected = reopened.retrieve(SCOPE, fp), whole.retrieve(SCOPE, fp)
        assert [r.to_dict() for r in retrieved.rules] == [r.to_dict() for r in expected.rules]
        assert reopened.memory_state(SCOPE) == whole.memory_state(SCOPE)
        assert reopened.snapshot_timeline(SCOPE) == whole.snapshot_timeline(SCOPE)
        for rel in (f"snapshots/{SCOPE}.log", f"notes/{SCOPE}.md"):
            assert (root / rel).read_bytes() == (tmp_path / "whole" / rel).read_bytes()
        assert _tree(root / "memory") == found
        assert ExperienceStore(root).finalize(SCOPE) == []

    def test_a_store_that_kept_cards_and_skills_retrieves_its_memory_and_drops_them_from_its_snapshots(
        self, tmp_path, seasonal_instance
    ):
        # A store as older versions wrote it: a skills file and tool cards
        # beside the memory, and a snapshot record that lists them.
        root, notes = tmp_path / "old", [_note(seq=None) for _ in range(10)]
        _commit_and_distill(old := ExperienceStore(root), notes)
        old.close()
        stale = {
            f"skills/{SCOPE}.md": f"# Procedures: {SCOPE}\n\n- When {{}}: prefer naive (stale).\n",
            f"tools/{SCOPE}/naive.md": "# Tool notes: naive\n- preferred (stale)\n",
            f"tools/{SCOPE}/seasonal_naive.md": "# Tool notes: seasonal_naive\n- avoided (stale)\n",
        }
        for rel, text in stale.items():
            (root / rel).parent.mkdir(parents=True, exist_ok=True)
            (root / rel).write_text(text, encoding="utf-8")
        layers = {**old.snapshot_layers(SCOPE, 1), **stale}
        log = root / "snapshots" / f"{SCOPE}.log"
        log.write_bytes(_log_record(layers, notes=10, seq=1))
        first_record = log.stat().st_size

        fp = fingerprint(seasonal_instance)
        fresh = ExperienceStore(tmp_path / "fresh")
        _commit_and_distill(fresh, notes)
        store = ExperienceStore(root)
        digest = store.tree_digest()
        selection, expected = store.retrieve(SCOPE, fp), fresh.retrieve(SCOPE, fp)
        assert [r.to_dict() for r in selection.rules] == [r.to_dict() for r in expected.rules]
        prompt = build_inference_prompt(seasonal_instance, fp, selection, DeclaredTools(), soul=store.soul_text())
        assert "(stale)" not in prompt.system_text + prompt.user_text
        assert store.tree_digest() == digest  # retrieval wrote nothing
        assert store.snapshot_layers(SCOPE, 1) == layers

        holt = [_note(seq=None, winner=("holt",), losers=()) for _ in range(10)]
        _commit_and_distill(store, holt)
        _commit_and_distill(fresh, holt)
        second_header = json.loads(log.read_bytes()[first_record:].split(b"\n", 1)[0])
        assert {rel: size for rel, size in second_header["layers"].items() if size is None} == dict.fromkeys(stale)
        assert store.snapshot_layers(SCOPE, 1) == layers
        assert store.snapshot_layers(SCOPE, 2) == _held_layers(store, SCOPE)
        reopened, expected = ExperienceStore(root).retrieve(SCOPE, fp), fresh.retrieve(SCOPE, fp)
        assert [r.to_dict() for r in reopened.rules] == [r.to_dict() for r in expected.rules]


class TestSnapshotLog:
    def test_snapshot_layers_equal_the_layers_held_when_taken(self, tmp_path, seasonal_instance):
        store = ExperienceStore(tmp_path)
        fp = fingerprint(seasonal_instance)
        held, retrieved = {}, {}
        for note in CHURN:
            _commit_and_distill(store, [note])
            timeline = store.snapshot_timeline(SCOPE)
            if timeline and timeline[-1]["seq"] not in held:
                held[timeline[-1]["seq"]] = _held_layers(store, SCOPE)
                retrieved[timeline[-1]["seq"]] = store.retrieve(SCOPE, fp)
        assert list(held) == [1, 2, 3, 4]
        rebuilt = {seq: store.snapshot_layers(SCOPE, seq) for seq in held}
        assert rebuilt == held
        assert ExperienceStore(tmp_path).snapshot_layers(SCOPE, 2) == held[2]
        memories = {seq: _memory(SCOPE, layers) for seq, layers in rebuilt.items()}
        for seq, selection in retrieved.items():
            expected = store_module._select(memories[seq], fp)
            assert [r.to_dict() for r in selection.rules] == [r.to_dict() for r in expected.rules]
        assert set(_injectable_tools(memories[3])) - set(_injectable_tools(memories[4]))  # a named tool went away

    def test_reopened_store_appends_the_same_log_bytes(self, tmp_path):
        _commit_and_distill(ExperienceStore(tmp_path / "whole"), CHURN)
        for i in range(0, len(CHURN), 7):
            _commit_and_distill(ExperienceStore(tmp_path / "split"), CHURN[i : i + 7])
        for scope in (SCOPE, OTHER):
            log = f"snapshots/{scope}.log"
            assert (tmp_path / "split" / log).read_bytes() == (tmp_path / "whole" / log).read_bytes()

    def test_a_record_holds_only_the_changed_layers(self, tmp_path):
        store = ExperienceStore(tmp_path)
        store.commit_note(_note(seq=None))
        digest = store.snapshot(SCOPE)
        log = tmp_path / "snapshots" / f"{SCOPE}.log"
        size = log.stat().st_size
        assert store.snapshot(SCOPE) == digest
        header = {"digest": digest, "layers": {}, "notes": 1, "seq": 2}
        assert log.read_bytes()[size:] == json.dumps(header, separators=(",", ":")).encode() + b"\n"

    @staticmethod
    def _three_snapshots(root):
        store = ExperienceStore(root)
        _commit_and_distill(store, [_note(seq=None, winner=(f"tool_{i % 4}",)) for i in range(30)])
        return store

    @pytest.mark.parametrize("keep", [1, 40, -1])
    def test_torn_last_record_is_dropped_then_cut_off(self, tmp_path, caplog, keep):
        whole = self._three_snapshots(tmp_path / "whole")
        log = tmp_path / "whole" / "snapshots" / f"{SCOPE}.log"
        full = log.read_bytes()
        last = full.index(b'{"digest":"' + whole.snapshot_timeline(SCOPE)[2]["digest"].encode())
        log.write_bytes(full[: last + keep] if keep > 0 else full[:keep])
        store = ExperienceStore(tmp_path / "whole")
        line = full.count(b"\n", 0, last) + 1
        assert f"{log}: line {line}: dropped a torn last record" in caplog.text
        assert store.snapshot_timeline(SCOPE) == whole.snapshot_timeline(SCOPE)[:2]
        assert store.snapshot_layers(SCOPE, 2) == whole.snapshot_layers(SCOPE, 2)
        # the torn record published nothing: its batch is pending again
        assert store.memory_state(SCOPE).distilled_through == 20 and len(store.pending_notes(SCOPE)) == 10
        store.snapshot(SCOPE)
        assert log.read_bytes()[:last] == full[:last]
        caplog.clear()
        reopened = ExperienceStore(tmp_path / "whole")
        assert not caplog.text
        assert [entry["seq"] for entry in reopened.snapshot_timeline(SCOPE)] == [1, 2, 3]
        assert reopened.snapshot_layers(SCOPE, 3) == _held_layers(store, SCOPE)

    def test_bad_record_before_the_last_names_file_and_line(self, tmp_path):
        self._three_snapshots(tmp_path)
        log = tmp_path / "snapshots" / f"{SCOPE}.log"
        log.write_bytes(b"X" + log.read_bytes()[1:])
        with pytest.raises(LogError, match=re.escape(f"{log}: line 1: bad record")):
            ExperienceStore(tmp_path)


class TestAtomicRewrites:
    def test_a_failed_publish_keeps_the_previous_memory(self, tmp_path, monkeypatch):
        notes = [_note(seq=None) for _ in range(10)] + [_note(seq=None, winner=("holt",), losers=()) for _ in range(10)]
        _commit_and_distill(ExperienceStore(tmp_path / "whole"), notes)
        store = ExperienceStore(tmp_path / "failed")
        _commit_and_distill(store, notes[:10])
        log = tmp_path / "failed" / "snapshots" / f"{SCOPE}.log"
        before = log.read_bytes()
        for note in notes[10:]:
            store.commit_note(note)
        append = AppendLog.append

        def write_half_then_fail(self, record):
            if self.path != log:
                return append(self, record)
            with open(self.path, "ab") as fh:
                fh.write(record[: len(record) // 2])
            raise OSError("no space left on device")

        monkeypatch.setattr(AppendLog, "append", write_half_then_fail)
        with pytest.raises(OSError):
            store.maybe_trigger_distillation(SCOPE)
        monkeypatch.undo()
        assert log.read_bytes().startswith(before) and log.read_bytes() != before  # a torn record
        assert store.memory_state(SCOPE).distilled_through == 10  # nothing published
        assert len(store.pending_notes(SCOPE)) == 10
        assert ExperienceStore(tmp_path / "failed").memory_state(SCOPE).distilled_through == 10
        assert not [p for p in tmp_path.rglob("*") if p.name.endswith(".tmp")]
        # the retry cuts the torn record off first
        assert store.maybe_trigger_distillation(SCOPE) == ["notes_to_memory", "snapshot"]
        assert log.read_bytes() == (tmp_path / "whole" / "snapshots" / f"{SCOPE}.log").read_bytes()

    def test_rewrites_leave_no_temp_files(self, tmp_path):
        store = ExperienceStore(tmp_path)
        for _ in range(10):
            store.commit_note(_note(seq=None, tools=("seasonal_naive",)))
        assert store.maybe_trigger_distillation(SCOPE)
        assert (tmp_path / "snapshots" / f"{SCOPE}.log").exists()
        assert not [p for p in tmp_path.rglob("*") if p.name.endswith(".tmp")]


class TestToolUsageLedger:
    """The store's tool-usage ledger: each commit counts its note's tools,
    and a reopened store replays every note's tools, in shard order."""

    RECORDS = [("s", ["a", "b"]), ("s", ["a"]), ("s", ["c", "a"])]

    @staticmethod
    def _commit(store, records, **note_fields):
        for scope, used in records:
            store.commit_note(_note(seq=None, scope=scope, tools=used, **note_fields))
            store.maybe_trigger_distillation(scope)

    def _written(self, root, records):
        self._commit(ExperienceStore(root), records)
        return (root / "notes" / "s.md").read_bytes()

    def test_round_trip_exactly(self, tmp_path):
        store = ExperienceStore(tmp_path)
        self._commit(store, [("s1", ["a", "b", "b"]), ("s2", ["c"])])
        reloaded = ExperienceStore(tmp_path)
        assert reloaded.ledger.counts("s1") == {"a": 1, "b": 2}
        assert reloaded.ledger.counts("s2") == {"c": 1}
        assert reloaded.ledger.entropy_history("s1") == store.ledger.entropy_history("s1")

    def test_a_committed_note_is_counted_by_a_fresh_store(self, tmp_path):
        store = ExperienceStore(tmp_path)
        self._commit(store, [("s", ["a", "b", "a"])])
        assert ExperienceStore(tmp_path).ledger.counts("s") == {"a": 2, "b": 1}
        self._commit(store, [("s", ["b"])])
        assert ExperienceStore(tmp_path).ledger.counts("s") == {"a": 2, "b": 2}
        store.close()

    @pytest.mark.parametrize("seed", range(8))
    def test_reopened_ledger_matches_one_that_never_closed(self, tmp_path, seed):
        # 24 notes over two scopes, so a batch distils on either side of the
        # cut: a distilled note's tools are replayed too
        rng = random.Random(seed)
        tools = ["t5", "t3", "t0", "t4", "t1", "t2"]
        records = [
            (rng.choice(["s1", "s2"]), [rng.choice(tools) for _ in range(rng.randint(1, 3))])
            for _ in range(24)
        ]
        whole = ExperienceStore(tmp_path / "whole")
        self._commit(whole, records)
        cut = rng.randint(1, len(records) - 1)
        self._commit(ExperienceStore(tmp_path / "split"), records[:cut])
        split = ExperienceStore(tmp_path / "split")
        self._commit(split, records[cut:])
        reopened = ExperienceStore(tmp_path / "split")
        for store in (split, reopened):
            for scope in ("s1", "s2"):
                assert store.ledger.counts(scope) == whole.ledger.counts(scope)
                assert store.ledger.entropy_history(scope) == whole.ledger.entropy_history(scope)

    def test_a_note_lists_its_tools_and_one_with_none_counts_nothing(self, tmp_path):
        store = ExperienceStore(tmp_path)
        self._commit(store, [("s", ["b", "a"]), ("s", []), ("t", ["a"])])
        assert re.findall(r"^tools: .*$", (tmp_path / "notes" / "s.md").read_text(encoding="utf-8"), re.M) == [
            'tools: ["b", "a"]',
            "tools: []",
        ]
        assert ExperienceStore(tmp_path).ledger.entropy_history("s") == store.ledger.entropy_history("s") == [math.log(2)]

    @pytest.mark.parametrize("cut", [1, 10, 24])
    def test_torn_last_note_is_dropped_then_cut_off(self, tmp_path, caplog, cut):
        full = self._written(tmp_path / "full", self.RECORDS)
        shard = tmp_path / "notes" / "s.md"
        shard.parent.mkdir()
        shard.write_bytes(full[:-cut])
        store = ExperienceStore(tmp_path)
        line = full.count(b"\n", 0, full.index(b"<!-- note 3 -->")) + 1
        assert f"{shard}: line {line}: dropped a torn last record" in caplog.text
        assert shard.read_bytes() == full[:-cut]  # opening writes nothing
        assert store.ledger.counts("s") == {"a": 2, "b": 1}
        assert store.ledger.entropy_history("s") == ExperienceStore(tmp_path / "full").ledger.entropy_history("s")[:2]
        self._commit(store, [("s", ["d"])])
        assert shard.read_bytes() == self._written(tmp_path / "ref", [*self.RECORDS[:2], ("s", ["d"])])

    @pytest.mark.parametrize("bad", [b'tools: ["a"', b'tools: "a"', b"tools: [1]"])
    def test_bad_tools_before_the_last_note_name_file_and_line(self, tmp_path, bad):
        # note 2 of 12 is distilled, so open decodes only its tools
        full = self._written(tmp_path, [("s", ["a"])] * 12)
        shard = tmp_path / "notes" / "s.md"
        second = full.index(b"<!-- note 2 -->")
        tools = full.index(b'tools: ["a"]', second)
        shard.write_bytes(full[:tools] + bad + full[tools + len(b'tools: ["a"]') :])
        line = full.count(b"\n", 0, second) + 1
        with pytest.raises(LogError, match=re.escape(f"{shard}: line {line}: bad record")):
            ExperienceStore(tmp_path)

    def test_notes_without_evaluation_evidence_count_and_leave_batches_at_every_tenth_evidence_note(self, tmp_path):
        store = ExperienceStore(tmp_path)
        fired = []
        for i in range(25):
            store.commit_note(_note(seq=None, tools=("a",), eval_evidence=False))
            store.commit_note(_note(seq=None, winner=(f"tool_{i % 3}",), tools=("b",)))
            fired.append(bool(store.maybe_trigger_distillation(SCOPE)))
        assert [i + 1 for i, f in enumerate(fired) if f] == [10, 20]
        assert all(n.eval_evidence for n in store.pending_notes(SCOPE))
        assert len(store.pending_notes(SCOPE)) == 5
        reopened = ExperienceStore(tmp_path)
        assert reopened.pending_notes(SCOPE) == store.pending_notes(SCOPE)
        assert reopened.ledger.counts(SCOPE) == store.ledger.counts(SCOPE) == {"a": 25, "b": 25}
        evidence = [n.note_ref() for n in store.notes(SCOPE) if n.eval_evidence]
        assert {ref for r in store.memory_state(SCOPE).rules for ref in r.evidence} <= set(evidence)


class TestTreeDigest:
    @staticmethod
    def _digest(root, files):
        store = ExperienceStore(root)
        root.mkdir()  # opening a store writes nothing, not even its root
        for rel, text in files.items():
            (root / rel).write_text(text, encoding="utf-8")
        return store.tree_digest()

    def test_equal_trees_equal_digests(self, tmp_path):
        files = {"a": "xy", "b": ""}
        assert self._digest(tmp_path / "1", files) == self._digest(tmp_path / "2", files)

    def test_byte_moved_across_a_file_boundary_changes_digest(self, tmp_path):
        assert self._digest(tmp_path / "1", {"a": "xy", "b": ""}) != self._digest(tmp_path / "2", {"a": "x", "b": "y"})

    def test_renamed_file_changes_digest(self, tmp_path):
        assert self._digest(tmp_path / "1", {"a": "xy"}) != self._digest(tmp_path / "2", {"c": "xy"})

    @staticmethod
    def _pairs_digest(pairs):
        h = hashlib.sha256()
        for rel, data in pairs:
            for part in (rel.encode(), data):
                h.update(len(part).to_bytes(8, "big"))
                h.update(part)
        return h.hexdigest()[:32]

    def _rglob_digest(self, root):
        """The digest as ``sorted(root.rglob("*"))`` orders the files."""
        files = [p for p in sorted(root.rglob("*")) if p.is_file()]
        return self._pairs_digest((p.relative_to(root).as_posix(), p.read_bytes()) for p in files)

    def test_order_is_sorted_rglob_order(self, tmp_path):
        # as strings "a-b" < "a/b", but by path parts the directory "a" and
        # everything under it come before the sibling "a-b"
        (tmp_path / "a" / "b").mkdir(parents=True)
        (tmp_path / "a" / "b" / "c").write_bytes(b"1")
        (tmp_path / "a" / "b-c").write_bytes(b"2")
        (tmp_path / "a-b").write_bytes(b"3")
        (tmp_path / "a.b").write_bytes(b"4")
        (tmp_path / "empty").mkdir()
        digest = ExperienceStore(tmp_path).tree_digest()
        assert digest == self._rglob_digest(tmp_path)
        assert digest == self._pairs_digest([("a/b/c", b"1"), ("a/b-c", b"2"), ("a-b", b"3"), ("a.b", b"4")])

    def test_matches_rglob_order_on_a_written_store(self, tmp_path):
        store = ExperienceStore(tmp_path)
        _commit_and_distill(store, [_note(seq=None, winner=(f"tool_{i % 3}",)) for i in range(DISTILL_EVERY)])
        assert store.tree_digest() == self._rglob_digest(tmp_path)

    def test_absent_root_digests_like_an_empty_one(self, tmp_path):
        (tmp_path / "empty").mkdir()
        assert ExperienceStore(tmp_path / "absent").tree_digest() == ExperienceStore(tmp_path / "empty").tree_digest()
