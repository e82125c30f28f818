from __future__ import annotations

import json
from pathlib import Path

import pytest

from timeclaw.core import (
    CandidateExecution,
    EpisodeOutcome,
    EvidenceClass,
    LearningSummaryText,
)
from timeclaw.errors import ContractError
from timeclaw.prompts import fingerprint
from timeclaw.registry import ToolUsageLedger
from timeclaw.store import (
    CONFIDENCE_INIT,
    DISTILL_EVERY,
    MEMORY_CAP,
    CleanEvidence,
    ExperienceStore,
    LearningNote,
    MemoryState,
    clean,
    summarize_episode,
    update_memory,
)
from timeclaw.util import stable_rng

SCOPE = "synth_forecast_short"


def _note(
    seq=1,
    winner=("seasonal_naive",),
    losers=("naive",),
    evidence_class="comparative",
    chi=None,
    insight="seasonal_naive tracked the cycle best",
    recommendation="prefer seasonal_naive",
    sensitive=(),
    scope=SCOPE,
):
    return LearningNote(
        scope=scope,
        instance_id="inst42",
        prompt_digest="d" * 16,
        winner_tools=tuple(winner),
        loser_tools=tuple(losers),
        metrics={},
        evidence_class=evidence_class,
        insight=insight,
        recommendation=recommendation,
        trace_refs=(),
        applicability=chi or {"task_subtype": "forecast", "seasonal": True},
        sensitive=tuple(sensitive),
        eval_evidence=True,
        sequence=seq,
    )


def _evidence(prefer=("seasonal_naive",), avoid=(), kind="tool_preference", chi=None, ref="n1"):
    return CleanEvidence(
        scope=SCOPE,
        kind=kind,
        applicability=chi if chi is not None else {"task_subtype": "forecast", "seasonal": True},
        preferred_tools=tuple(prefer),
        avoided_tools=tuple(avoid),
        summary="s",
        rationale="r",
        note_ref=ref,
    )


class TestSummarizeEpisode:
    def _outcome(self, evidence_class, winner, candidates, reports=None):
        return EpisodeOutcome(
            instance_id="i1",
            candidates=candidates,
            winner=winner,
            evidence_class=evidence_class,
            learning_summary=LearningSummaryText(insight="", recommendation=""),
            eval_evidence=reports is not None,
            eval_reports=reports or {},
        )

    def _cand(self, branch, slot, chain, valid=True, quality=None):
        return CandidateExecution(
            branch_id=branch,
            slot=slot,
            tool_calls=(),
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
        assert "seasonal_naive" in note.insight
        assert note.evidence_class == "comparative"

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
        assert "no comparative signal" in note.insight


class TestClean:
    def test_ground_truth_array_is_redacted(self):
        gt = "[26.1, 25.0, 24.9, 24.3]"
        note = _note(insight=f"the truth was {gt} exactly", sensitive=(gt,))
        ev = clean(note)
        assert gt not in ev.rationale
        assert "[redacted]" in ev.rationale

    def test_numeric_arrays_are_redacted_even_unhinted(self):
        note = _note(insight="prediction [1.0, 2.0, 3.0, 4.0, 5.0] was close")
        ev = clean(note)
        assert "[1.0, 2.0" not in ev.rationale
        assert "[numbers redacted]" in ev.rationale

    def test_orchestration_vocabulary_is_stripped(self):
        note = _note(
            insight="spawn_subagent created branches and evaluate_against_gt scored sub-agent 1"
        )
        ev = clean(note)
        assert "spawn_subagent" not in ev.rationale
        assert "evaluate_against_gt" not in ev.rationale
        assert "sub-agent 1" not in ev.rationale

    def test_instance_ids_are_generalized(self):
        note = _note(insight="on inst42 the slot 0 branch inst42#b0 won")
        ev = clean(note)
        assert "inst42" not in ev.rationale
        assert "slot 0" not in ev.rationale

    def test_tool_names_and_metrics_survive(self):
        note = _note(insight="seasonal_naive beat naive with MAE 1.585 vs 1.821")
        ev = clean(note)
        assert "seasonal_naive" in ev.rationale
        assert "1.585" in ev.rationale

    def test_idempotent(self):
        note = _note(
            insight="spawn_subagent on inst42 slot 1 gave [1.0, 2.0, 3.0, 4.0]",
            sensitive=("[9.0, 9.0, 9.0, 9.0]",),
        )
        first = clean(note)
        renote = _note(insight=first.rationale, sensitive=note.sensitive)
        second = clean(renote)
        # rationale doubles insight+recommendation; compare the cleaned insight half
        assert second.rationale.startswith(first.rationale.split(" prefer seasonal_naive")[0][:40])
        assert clean(renote).rationale == clean(renote).rationale

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


class TestStoreNotes:
    def test_commit_assigns_gapless_sequences(self, tmp_path):
        store = ExperienceStore(tmp_path)
        for i in range(3):
            store.commit_note(_note(seq=None))
        notes = store.notes(SCOPE)
        assert [n.sequence for n in notes] == [1, 2, 3]

    def test_commit_requires_eval_evidence(self, tmp_path):
        store = ExperienceStore(tmp_path)
        bad = _note()
        bad.eval_evidence = False
        with pytest.raises(ContractError):
            store.commit_note(bad)

    def test_committed_notes_are_never_mutated(self, tmp_path):
        store = ExperienceStore(tmp_path)
        store.commit_note(_note())
        before = (tmp_path / "notes" / f"{SCOPE}.md").read_text()
        store.commit_note(_note())
        after = (tmp_path / "notes" / f"{SCOPE}.md").read_text()
        assert after.startswith(before)

    def test_round_trip_preserves_fields(self, tmp_path):
        store = ExperienceStore(tmp_path)
        original = _note(insight='tricky "quoted" text\nwith newline')
        store.commit_note(original)
        loaded = store.notes(SCOPE)[0]
        assert loaded.insight == original.insight
        assert loaded.winner_tools == original.winner_tools
        assert loaded.applicability == original.applicability


class TestDistillationTriggers:
    def _commit_n(self, store, n, start=0):
        stages_log = []
        for i in range(n):
            store.commit_note(_note(seq=None, winner=(f"tool_{(start + i) % 3}",)))
            stages_log.append(store.maybe_trigger_distillation(SCOPE))
        return stages_log

    def test_fires_exactly_on_tenth_note(self, tmp_path):
        store = ExperienceStore(tmp_path, auto_snapshot=False)
        stages_log = self._commit_n(store, 25)
        fired = [i + 1 for i, stages in enumerate(stages_log) if stages]
        assert fired == [10, 20]
        assert DISTILL_EVERY == 10

    def test_finalize_flushes_short_tail(self, tmp_path):
        store = ExperienceStore(tmp_path, auto_snapshot=False)
        self._commit_n(store, 3)
        stages = store.finalize(SCOPE)
        assert "notes_to_memory" in stages
        assert store.pending_notes(SCOPE) == []
        assert store.finalize(SCOPE) == []

    def test_downstream_rebuild_iff_fingerprint_changed(self, tmp_path):
        store = ExperienceStore(tmp_path, auto_snapshot=False)
        # first batch creates rules -> full pipeline
        self._commit_n(store, 10)
        state = store.memory_state(SCOPE)
        assert state.rules
        # a batch with no tool stance leaves memory untouched -> downstream skipped
        for _ in range(10):
            store.commit_note(_note(seq=None, winner=(), losers=(), evidence_class="single_execution"))
        stages = store.maybe_trigger_distillation(SCOPE)
        assert stages == ["notes_to_memory"]

    def test_full_pipeline_stage_list(self, tmp_path):
        store = ExperienceStore(tmp_path, auto_snapshot=False)
        for _ in range(9):
            store.commit_note(_note(seq=None))
            assert store.maybe_trigger_distillation(SCOPE) == []
        store.commit_note(_note(seq=None))
        stages = store.maybe_trigger_distillation(SCOPE)
        assert stages == [
            "notes_to_memory",
            "memory_to_tool_notes",
            "memory_to_skills",
            "memory_to_skills_decision",
        ]
        assert (tmp_path / "skills" / f"{SCOPE}.md").exists()
        assert (tmp_path / "tools" / "seasonal_naive.md").exists()


class TestRetrieve:
    def test_injectable_and_matching_only(self, tmp_path, seasonal_instance):
        store = ExperienceStore(tmp_path, auto_snapshot=False)
        for _ in range(10):
            store.commit_note(_note(seq=None))
        store.maybe_trigger_distillation(SCOPE)
        fp = fingerprint(seasonal_instance)
        selection = store.retrieve(SCOPE, fp)
        assert selection.rules
        assert all(r.injectable for r in selection.rules)
        assert "seasonal_naive" in selection.tool_notes

    def test_non_matching_fingerprint_excluded(self, tmp_path, trend_instance):
        store = ExperienceStore(tmp_path, auto_snapshot=False)
        for _ in range(10):
            store.commit_note(_note(seq=None))
        store.maybe_trigger_distillation(SCOPE)
        fp = fingerprint(trend_instance)  # task_subtype=trend does not match
        assert store.retrieve(SCOPE, fp).rules == []

    def test_missing_scope_is_empty_selection(self, tmp_path, seasonal_instance):
        store = ExperienceStore(tmp_path)
        selection = store.retrieve("nowhere", fingerprint(seasonal_instance))
        assert selection.rules == []
        assert selection.skills_text == ""

    def test_non_injectable_rules_are_excluded(self, tmp_path, seasonal_instance):
        store = ExperienceStore(tmp_path, auto_snapshot=False)
        state = MemoryState()
        update_memory(state, _evidence(prefer=("holt",)))
        update_memory(state, _evidence(prefer=(), avoid=("holt",), kind="avoidance", ref="n2"))
        assert all(not r.injectable for r in state.rules)  # open conflict
        store._write_memory(SCOPE, state)
        assert store.retrieve(SCOPE, fingerprint(seasonal_instance)).rules == []

    def test_ordering_confidence_desc_then_seq(self, tmp_path, seasonal_instance):
        store = ExperienceStore(tmp_path, auto_snapshot=False)
        state = MemoryState()
        update_memory(state, _evidence(prefer=("a",)))
        update_memory(state, _evidence(prefer=("b",), ref="n2"))
        update_memory(state, _evidence(prefer=("b",), ref="n3"))  # strengthen b
        store._write_memory(SCOPE, state)
        selection = store.retrieve(SCOPE, fingerprint(seasonal_instance))
        assert [r.preferred_tools for r in selection.rules] == [("b",), ("a",)]


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
        store = ExperienceStore(tmp_path, auto_snapshot=True)
        seen_states = []
        for i in range(30):
            store.commit_note(_note(seq=None, winner=(f"tool_{i % 4}",)))
            store.maybe_trigger_distillation(SCOPE)
            seen_states.append(store.memory_fingerprint(SCOPE))
        timeline = store.snapshot_timeline(SCOPE)
        assert timeline  # distillation snapshots happened
        for entry in timeline:
            snap_memory = tmp_path / "snapshots" / SCOPE / entry["digest"] / "memory" / f"{SCOPE}.json"
            assert snap_memory.exists()
            state = MemoryState.from_dict(json.loads(snap_memory.read_text()))
            assert state.content_fingerprint() in seen_states

    def test_snapshots_cite_the_notes_count_and_read_no_files(self, tmp_path, monkeypatch):
        store = ExperienceStore(tmp_path, auto_snapshot=True)

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
            snap = tmp_path / "snapshots" / SCOPE / entry["digest"]
            memory = MemoryState.from_dict(json.loads((snap / "memory" / f"{SCOPE}.json").read_text()))
            assert memory.distilled_through == entry["notes"]
            assert not (snap / "notes").exists()

    def test_soul_is_static_configuration(self, tmp_path):
        store = ExperienceStore(tmp_path)
        soul_before = store.soul_text()
        for _ in range(10):
            store.commit_note(_note(seq=None))
        store.maybe_trigger_distillation(SCOPE)
        assert store.soul_text() == soul_before


class TestLeakageInvariant:
    def test_committed_evidence_never_contains_ground_truth(self, tmp_path):
        gt_rendering = "[26.1, 25.0, 24.9, 24.3]"
        store = ExperienceStore(tmp_path, auto_snapshot=False)
        for _ in range(10):
            store.commit_note(
                _note(seq=None, insight=f"truth was {gt_rendering}", sensitive=(gt_rendering,))
            )
        store.maybe_trigger_distillation(SCOPE)
        state = store.memory_state(SCOPE)
        for rule in state.rules:
            assert gt_rendering not in rule.rationale
            assert gt_rendering not in rule.summary


def _tree(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _commit_and_distill(store, notes):
    for note in notes:
        store.commit_note(note)
        store.maybe_trigger_distillation(note.scope)


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

    def test_distill_and_retrieve_read_no_files_after_open(self, tmp_path, seasonal_instance, monkeypatch):
        _commit_and_distill(ExperienceStore(tmp_path, auto_snapshot=False), [_note(seq=None) for _ in range(10)])
        store = ExperienceStore(tmp_path, auto_snapshot=False)
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
        assert "memory_to_tool_notes" in stages
        assert {"holt", "seasonal_naive"} <= set(selection.tool_notes)

    def test_distillation_leaves_a_held_selection_unchanged(self, tmp_path, seasonal_instance):
        store = ExperienceStore(tmp_path, auto_snapshot=False)
        _commit_and_distill(store, [_note(seq=None) for _ in range(10)])
        fp = fingerprint(seasonal_instance)
        selection = store.retrieve(SCOPE, fp)
        held = [rule.to_dict() for rule in selection.rules]
        _commit_and_distill(store, [_note(seq=None) for _ in range(10)])  # strengthens the same rule
        assert [rule.to_dict() for rule in selection.rules] == held
        assert store.retrieve(SCOPE, fp).rules[0].confidence > selection.rules[0].confidence


class TestAtomicRewrites:
    @staticmethod
    def _fail_midway(monkeypatch):
        real_write = Path.write_text

        def write_half_then_fail(path, text, *args, **kwargs):
            real_write(path, text[: len(text) // 2], *args, **kwargs)
            raise OSError("no space left on device")

        monkeypatch.setattr(Path, "write_text", write_half_then_fail)

    def test_failed_memory_rewrite_keeps_previous_file(self, tmp_path, monkeypatch):
        store = ExperienceStore(tmp_path, auto_snapshot=False)
        _commit_and_distill(store, [_note(seq=None) for _ in range(10)])
        memory_path = tmp_path / "memory" / f"{SCOPE}.json"
        before = memory_path.read_text()
        for _ in range(10):
            store.commit_note(_note(seq=None, winner=("holt",), losers=()))
        self._fail_midway(monkeypatch)
        with pytest.raises(OSError):
            store.maybe_trigger_distillation(SCOPE)
        monkeypatch.undo()
        assert memory_path.read_text() == before
        assert store.memory_state(SCOPE).distilled_through == 10  # nothing published
        assert len(store.pending_notes(SCOPE)) == 10
        assert ExperienceStore(tmp_path).memory_state(SCOPE).distilled_through == 10
        assert not [p for p in tmp_path.rglob("*") if p.name.endswith(".tmp")]

    def test_rewrites_leave_no_temp_files(self, tmp_path):
        store = ExperienceStore(tmp_path)
        ledger = ToolUsageLedger(tmp_path / "ledger.jsonl")
        for _ in range(10):
            store.commit_note(_note(seq=None))
            ledger.record(SCOPE, ["seasonal_naive"])
        assert store.maybe_trigger_distillation(SCOPE)
        assert (tmp_path / "snapshots" / SCOPE / "index.json").exists()
        assert (tmp_path / "ledger.jsonl").exists()
        assert not [p for p in tmp_path.rglob("*") if p.name.endswith(".tmp")]


class TestTreeDigest:
    @staticmethod
    def _digest(root, files):
        store = ExperienceStore(root)
        for rel, text in files.items():
            (root / rel).write_text(text)
        return store.tree_digest()

    def test_equal_trees_equal_digests(self, tmp_path):
        files = {"a": "xy", "b": ""}
        assert self._digest(tmp_path / "1", files) == self._digest(tmp_path / "2", files)

    def test_byte_moved_across_a_file_boundary_changes_digest(self, tmp_path):
        assert self._digest(tmp_path / "1", {"a": "xy", "b": ""}) != self._digest(tmp_path / "2", {"a": "x", "b": "y"})

    def test_renamed_file_changes_digest(self, tmp_path):
        assert self._digest(tmp_path / "1", {"a": "xy"}) != self._digest(tmp_path / "2", {"c": "xy"})
