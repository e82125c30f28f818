from __future__ import annotations

import gc
import itertools
import json
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import pytest

from timeclaw import __version__, prompts, seriesops
from timeclaw.core import EvidenceClass, SealedAnswer, TaskInstance, TaskType
from timeclaw.corpus import generate_sample
from timeclaw.errors import ContractError, GatewayError, ScriptMissError
from timeclaw.gateway import (
    AssistantReply, DeclaredTools, Gateway, PolicyGateway, RemoteGateway, ScriptedGateway, ToolCallRequest,
)
from timeclaw.orchestrator import (
    EVALUATE_TOOL,
    BranchSlot,
    EpisodeDeps,
    ExplorationConfig,
    TRACE_KINDS,
    TraceLog,
    TraceWriter,
    _EpisodeRunner,
    assign_branch_slots,
    enforce_exploration_contract,
    read_trace,
    run_exploration_episode,
    run_inference,
)
from timeclaw.policy import offline_policy, policy_gateway
from timeclaw.registry import ArgSpec, ToolCategory, ToolDescriptor, ToolRegistry
from timeclaw.replay import lint, replay
from timeclaw.store import ExperienceStore, LearningNote
from timeclaw.toolkit import ORIGINAL_INPUT, ArtifactKind, ToolError, builtin_toolkit
from timeclaw.util import canonical_json, digest_text, json_dumps


def _instance(series=None, horizon=3, gt=None, task_type=TaskType.FORECAST, labels=None, iid="e1"):
    series = series or [float(v) for v in range(1, 13)]
    return TaskInstance(
        id=iid,
        series=tuple(series),
        task_type=task_type,
        horizon=horizon,
        scope="synth_forecast_short" if task_type == TaskType.FORECAST else "synth_trend_short",
        label_space=tuple(labels) if labels else None,
        ground_truth=SealedAnswer(gt) if gt is not None else None,
    )


def _deps(tmp_path, gateway, with_store=True):
    toolkit = builtin_toolkit()
    store = ExperienceStore(tmp_path / "store") if with_store else None
    return EpisodeDeps(
        toolkit=toolkit,
        gateway=gateway,
        store=store,
        trace_dir=tmp_path / "traces",
    )


def _scripted_branch_policy(branch_answers):
    """Build a deterministic policy that forces specific branch behavior.

    branch_answers: slot -> (tool or None, final answer payload)
    """

    def fn(exchange):
        first_user = next(m.content for m in exchange.messages if m.role == "user")
        slot = int(first_user.split("- slot = ")[1].split("\n")[0])
        tool, answer = branch_answers[slot]
        last = exchange.messages[-1]
        if tool is not None and last.role != "tool":
            horizon = int(first_user.split("- horizon = ")[1].split("\n")[0])
            return AssistantReply(
                content="", tool_calls=(ToolCallRequest(tool=tool, args={"horizon": horizon}),)
            )
        return AssistantReply(
            content=json.dumps({"answer_type": "forecast", "answer": answer})
        )

    return PolicyGateway(fn)


def _failing_evaluator(monkeypatch, toolkit):
    """Make the toolkit's evaluate tool return an error artifact."""

    def fail(args, inputs, ctx):
        raise ToolError("contract", "the evaluator is down")

    monkeypatch.setitem(toolkit._fns, EVALUATE_TOOL, fail)


def _edited_trace(path, tmp_path, edit):
    """A copy of a one-block trace log with ``edit(event)`` applied to each
    event: it returns the event to keep, or None to drop it."""
    header, *events = [json.loads(line) for line in Path(path).read_text(encoding="utf-8").splitlines()]
    kept = [e for e in (edit(e) for e in events) if e is not None]
    edited = tmp_path / "edited.jsonl"
    edited.write_text("".join(canonical_json(r) + "\n" for r in [header, *kept]), encoding="utf-8")
    return edited


class TestEpisodeOutcomes:
    def test_comparative_outcome_with_hand_checked_quality(self, tmp_path):
        # branch 0 answers MAE 1.0 away, branch 1 MAE 2.0 away
        inst = _instance(gt=[13.0, 13.0, 13.0])
        gw = _scripted_branch_policy({0: (None, [14.0, 14.0, 14.0]), 1: (None, [15.0, 15.0, 15.0])})
        outcome = run_exploration_episode(inst, ExplorationConfig(seed=3), _deps(tmp_path, gw))
        assert outcome.evidence_class == EvidenceClass.COMPARATIVE
        assert outcome.winner == f"{inst.id}#b0"
        q = {c.branch_id: c.quality for c in outcome.candidates}
        assert q[f"{inst.id}#b0"] == pytest.approx(-1.0)
        assert q[f"{inst.id}#b1"] == pytest.approx(-2.0)

    def test_a_main_agent_cannot_score_answers_in_place_of_the_branches(self, tmp_path):
        # a main agent that, asked to request the evaluation, would send a
        # swapped map, with branch 1's answer (50 against a truth of 13)
        # under branch 0's id: the engine asks it nothing and scores each
        # branch's own answer, so branch 0 wins
        inst = _instance(gt=[13.0, 13.0, 13.0])
        branches = _scripted_branch_policy({0: (None, [14.0] * 3), 1: (None, [50.0] * 3)})
        swapped = {f"{inst.id}#b0": [50.0] * 3, f"{inst.id}#b1": [14.0] * 3}

        def spoofing(exchange):
            if "## Candidates Ready" in exchange.messages[-1].content:
                call = ToolCallRequest(tool="evaluate_batch_against_gt", args={"candidates": swapped})
                return AssistantReply(content="", tool_calls=(call,))
            return branches.complete(exchange)

        outcome = run_exploration_episode(inst, ExplorationConfig(seed=3), _deps(tmp_path, PolicyGateway(spoofing)))
        assert outcome.winner == f"{inst.id}#b0"
        q = {c.branch_id: c.quality for c in outcome.candidates}
        assert q == {f"{inst.id}#b0": pytest.approx(-1.0), f"{inst.id}#b1": pytest.approx(-37.0)}
        [report] = lint(outcome.trace_path)
        assert report.clean

    def test_single_valid_candidate_is_single_execution(self, tmp_path):
        inst = _instance(gt=[13.0, 13.0, 13.0])
        gw = _scripted_branch_policy({0: (None, [14.0, 14.0, 14.0]), 1: (None, "garbage")})
        outcome = run_exploration_episode(inst, ExplorationConfig(seed=3), _deps(tmp_path, gw))
        assert outcome.evidence_class == EvidenceClass.SINGLE_EXECUTION
        assert outcome.winner == f"{inst.id}#b0"

    def test_two_malformed_answers_is_failure_with_no_winner(self, tmp_path):
        inst = _instance(gt=[13.0, 13.0, 13.0])
        gw = _scripted_branch_policy({0: (None, "bad"), 1: (None, "also bad")})
        outcome = run_exploration_episode(inst, ExplorationConfig(seed=3), _deps(tmp_path, gw))
        assert outcome.evidence_class == EvidenceClass.FAILURE
        assert outcome.winner is None
        assert not outcome.eval_evidence

    @pytest.mark.parametrize(
        "branches, evaluator_fails, tools",
        [
            ({0: (None, "bad"), 1: (None, "also bad")}, False, {}),
            ({0: ("naive", [13.0] * 3), 1: ("drift", [14.0] * 3)}, True, {"naive": 1, "drift": 1}),
        ],
        ids=["failure", "unevaluated"],
    )
    def test_an_episode_without_eval_evidence_commits_a_note_never_distilled(
        self, tmp_path, monkeypatch, branches, evaluator_fails, tools
    ):
        inst = _instance(gt=[13.0, 13.0, 13.0])
        deps = _deps(tmp_path, _scripted_branch_policy(branches))
        if evaluator_fails:
            _failing_evaluator(monkeypatch, deps.toolkit)
        assert not run_exploration_episode(inst, ExplorationConfig(seed=3), deps).eval_evidence
        [note] = deps.store.notes(inst.scope)
        assert not note.eval_evidence and sorted(note.tools) == sorted(tools)
        reopened = ExperienceStore(tmp_path / "store")
        assert deps.store.pending_notes(inst.scope) == reopened.pending_notes(inst.scope) == []
        assert reopened.ledger.counts(inst.scope) == deps.store.ledger.counts(inst.scope) == tools

    def test_winner_quality_is_exact_argmax(self, tmp_path):
        inst = _instance(gt=[13.0, 13.0, 13.0])
        gw = _scripted_branch_policy({0: (None, [10.0, 10.0, 10.0]), 1: (None, [12.5, 12.5, 12.5])})
        outcome = run_exploration_episode(inst, ExplorationConfig(seed=3), _deps(tmp_path, gw))
        winner_q = outcome.winning_candidate().quality
        assert all(winner_q >= c.quality for c in outcome.candidates if c.quality is not None)
        assert outcome.winner == f"{inst.id}#b1"

    def test_winner_tie_broken_by_shorter_chain_then_slot(self, tmp_path):
        inst = _instance(gt=[13.0, 13.0, 13.0])
        # identical answers but slot 1 uses a tool (longer substantive chain)
        gw = _scripted_branch_policy(
            {0: (None, [13.0, 13.0, 13.0]), 1: ("naive", [13.0, 13.0, 13.0])}
        )
        outcome = run_exploration_episode(inst, ExplorationConfig(seed=3), _deps(tmp_path, gw))
        assert outcome.winner == f"{inst.id}#b0"

    def test_gateway_error_on_every_branch_degrades_to_failure(self, tmp_path):
        class Down(Gateway):
            def complete(self, exchange):
                raise GatewayError("backend went away")

        inst = _instance(gt=[13.0, 13.0, 13.0])
        outcome = run_exploration_episode(inst, ExplorationConfig(seed=3), _deps(tmp_path, Down()))  # must not raise
        assert outcome.evidence_class == EvidenceClass.FAILURE
        assert outcome.winner is None
        assert [c.failure_reason for c in outcome.candidates] == ["gateway_error: backend went away"] * 2

    def test_a_plain_answer_to_an_episode_s_first_prompt_is_a_branch_candidate(self, tmp_path):
        # a backend that answers each prompt at once, with no tool call: the
        # episode's first prompt is branch 0's, so its answer is a candidate
        answers = iter([[14.0] * 3, [15.0] * 3])

        def answering(exchange):
            return AssistantReply(content=json.dumps({"answer_type": "forecast", "answer": next(answers)}))

        inst = _instance(gt=[13.0, 13.0, 13.0])
        outcome = run_exploration_episode(inst, ExplorationConfig(seed=3), _deps(tmp_path, PolicyGateway(answering)))
        assert outcome.evidence_class == EvidenceClass.COMPARATIVE
        assert [(c.branch_id, c.valid) for c in outcome.candidates] == [(f"{inst.id}#b0", True), (f"{inst.id}#b1", True)]
        assert outcome.winner == f"{inst.id}#b0" and outcome.gateway_calls == 2

    def test_ground_truth_required(self, tmp_path):
        inst = _instance(gt=None)
        with pytest.raises(ContractError):
            run_exploration_episode(
                inst, ExplorationConfig(), _deps(tmp_path, policy_gateway("exploration"))
            )

    def test_indicator_episode_scores_mse_over_fields(self, tmp_path):
        inst = TaskInstance(
            id="ind_ep",
            series=tuple(10.0 + (i % 4) for i in range(24)),
            task_type=TaskType.INDICATOR,
            horizon=8,
            scope="synth_indicator_short",
            ground_truth=SealedAnswer({"max": 13.0, "min": 10.0, "diff": 3.0}),
        )
        outcome = run_exploration_episode(
            inst, ExplorationConfig(seed=2), _deps(tmp_path, policy_gateway("exploration"))
        )
        assert outcome.winner is not None
        winner = outcome.winning_candidate()
        assert set(winner.final_answer) == {"max", "min", "diff"}
        assert winner.quality is not None and winner.quality <= 0.0

    def test_usage_recorded_for_substantive_tools_only(self, tmp_path):
        inst = _instance(gt=[13.0, 13.0, 13.0])
        gw = _scripted_branch_policy({0: ("naive", [13.0] * 3), 1: ("drift", [14.0] * 3)})
        deps = _deps(tmp_path, gw)
        run_exploration_episode(inst, ExplorationConfig(seed=3), deps)
        counts = deps.store.ledger.counts(inst.scope)
        assert counts == {"naive": 1, "drift": 1}

    def test_dropout_reads_the_counts_of_the_stores_notes(self, tmp_path):
        # one note records heavy use of naive in the scope: keep(naive) is
        # 1/1001 there, so a reopened store's episodes hide it from every
        # branch, while a fresh scope shows every branch the whole set
        scope = "synth_forecast_short"
        store = ExperienceStore(tmp_path / "store")
        store.commit_note(
            LearningNote(
                scope=scope, instance_id="prior", winner_tools=(), loser_tools=(), metrics={},
                evidence_class="failure", applicability={}, tools=("naive",) * 1000,
            )
        )
        store.close()

        def branch_lists(deps, seed):
            outcome = run_exploration_episode(_instance(gt=[13.0] * 3, iid=f"e{seed}"), ExplorationConfig(seed=seed), deps)
            *_, block = read_trace(outcome.trace_path)
            return [
                e["payload"]["tools"]
                for e in block.events
                if e["kind"] == "gateway_request" and e["branch"] is not None and "tools" in e["payload"]
            ]

        deps = _deps(tmp_path, policy_gateway("exploration"))
        assert deps.store.ledger.counts(scope) == {"naive": 1000}
        listed = [tools for seed in range(4) for tools in branch_lists(deps, seed)]
        assert len(listed) == 8 and not any("naive" in tools for tools in listed)
        fresh = branch_lists(_deps(tmp_path / "fresh", policy_gateway("exploration")), 0)
        assert len(fresh) == 2 and all("naive" in tools for tools in fresh)

    @pytest.mark.parametrize("protected", [True, False])
    def test_a_tool_protected_in_the_scope_is_shown_to_every_branch(self, tmp_path, protected):
        # a forecasting tool registered through the Python API with a
        # protected_in glob that matches the scope, and the store's notes
        # counting it 1000 times: dropout would hide it from every branch,
        # as it does the same tool unprotected, but protection keeps it
        scope = "synth_forecast_short"
        store = ExperienceStore(tmp_path / "store")
        store.commit_note(
            LearningNote(
                scope=scope, instance_id="prior", winner_tools=(), loser_tools=(), metrics={},
                evidence_class="failure", applicability={}, tools=("last_value",) * 1000,
            )
        )
        store.close()
        toolkit = builtin_toolkit()
        toolkit.register(
            ToolDescriptor(
                tool_id="last_value",
                category=ToolCategory.FORECASTING,
                arg_schema={"horizon": ArgSpec("integer", required=True)},
                protected_in=("synth_*",) if protected else (),
            ),
            lambda args, inputs, ctx: (ArtifactKind.SERIES, {"values": [inputs[0].payload["values"][-1]] * args["horizon"]}),
        )
        deps = EpisodeDeps(
            toolkit=toolkit,
            gateway=policy_gateway("exploration"),
            store=ExperienceStore(tmp_path / "store"),
            trace_dir=tmp_path / "traces",
        )
        assert deps.store.ledger.counts(scope) == {"last_value": 1000}
        for seed in range(6):
            run_exploration_episode(_instance(gt=[13.0] * 3, iid=f"e{seed}"), ExplorationConfig(seed=seed), deps)
        deps.close()
        listed = [
            e["payload"]["tools"]
            for block in read_trace(tmp_path / "traces" / f"{scope}.jsonl")
            for e in block.events
            if e["kind"] == "gateway_request" and e["branch"] is not None and "tools" in e["payload"]
        ]
        assert len(listed) == 12
        assert [("last_value" in tools) for tools in listed] == [protected] * 12


def _branch_loop_policy(branch_fn):
    """Each branch turn goes to branch_fn(slot, exchange)."""

    def fn(exchange):
        first_user = next(m.content for m in exchange.messages if m.role == "user")
        return branch_fn(int(first_user.split("- slot = ")[1].split("\n")[0]), exchange)

    return PolicyGateway(fn)


def _forecast_reply(answer):
    return AssistantReply(content=json.dumps({"answer_type": "forecast", "answer": answer}))


class TestBranchLoop:
    def _run(self, tmp_path, branch_fn, monkeypatch=None, visible=None):
        deps = _deps(tmp_path, _branch_loop_policy(branch_fn))
        if visible is not None:
            monkeypatch.setattr(
                deps.toolkit, "sample_visible_subset", lambda *a, **k: frozenset(visible)
            )
        outcome = run_exploration_episode(_instance(gt=[13.0] * 3), ExplorationConfig(seed=3), deps)
        [block] = read_trace(outcome.trace_path)
        return outcome, block.events

    @pytest.mark.parametrize(
        "tool, error",
        [
            ("evaluate_batch_against_gt", "not_available_in_branch"),
            ("spawn_subagent", "tool_not_visible"),
            ("holt", "tool_not_visible"),
        ],
    )
    def test_rejected_request_gets_feedback_not_execution(self, tmp_path, monkeypatch, tool, error):
        feedback = []

        def branch_fn(slot, exchange):
            last = exchange.messages[-1]
            if last.role == "user":
                return AssistantReply(content="", tool_calls=(ToolCallRequest(tool=tool, args={}, id=f"call_{slot}"),))
            feedback.append((last.content, last.tool_call_id))
            return _forecast_reply([13.0] * 3)

        outcome, events = self._run(tmp_path, branch_fn, monkeypatch, visible={"naive", "drift"})
        expected = json.dumps({"error": error, "tool": tool}, separators=(",", ":"))
        assert feedback == [(expected, "call_0"), (expected, "call_1")]  # one per branch, answering its call
        assert all(c.valid for c in outcome.candidates)
        called = [e["payload"]["tool"] for e in events if e["kind"] == "tool_call"]
        assert called == ["evaluate_batch_against_gt"]

    @pytest.mark.parametrize("inputs", [5, "abc", ["original_input", 7], {"id": "original_input"}])
    def test_inputs_not_a_list_of_ids_is_a_schema_violation(self, tmp_path, inputs):
        results = []

        def branch_fn(slot, exchange):
            last = exchange.messages[-1]
            if last.role == "user":
                call = ToolCallRequest(tool="naive", args={"horizon": 3, "_inputs": inputs})
                return AssistantReply(content="", tool_calls=(call,))
            results.append(json.loads(last.content))
            return _forecast_reply([13.0] * 3)

        outcome, events = self._run(tmp_path, branch_fn)
        assert [r["payload"]["error"] for r in results] == ["schema_violation"] * 2
        assert all(r["payload"]["message"] == "argument _inputs must be an array of artifact ids" for r in results)
        assert all(c.valid for c in outcome.candidates)
        assert replay(outcome.trace_path, [_instance(gt=[13.0] * 3)])[0].clean

    def test_inputs_list_of_ids_names_the_input_artifacts(self, tmp_path):
        results = []

        def branch_fn(slot, exchange):
            last = exchange.messages[-1]
            if last.role == "user":
                call = ToolCallRequest(tool="naive", args={"horizon": 3, "_inputs": ["nowhere"]})
                return AssistantReply(content="", tool_calls=(call,))
            results.append(json.loads(last.content))
            return _forecast_reply([13.0] * 3)

        _outcome, events = self._run(tmp_path, branch_fn)
        calls = [e["payload"] for e in events if e["kind"] == "tool_call" and e["payload"]["tool"] == "naive"]
        assert [(c["args"], c["inputs"]) for c in calls] == [({"horizon": 3}, ["nowhere"])] * 2
        assert [r["payload"]["error"] for r in results] == ["contract"] * 2

    @pytest.mark.parametrize(
        "calls, counted",
        [
            ([("naive", {"horizon": 3}), ("naive", {"horizon": 3}), ("drift", {"horizon": 3})], {"naive": 4, "drift": 2}),
            ([("naive", {"horizon": 3, "_inputs": 5}), ("drift", {"horizon": "x"})], {}),
            ([("not_a_tool", {}), ("spawn_subagent", {}), ("evaluate_batch_against_gt", {})], {}),
            ([], {}),
        ],
        ids=["repeats", "errors", "rejected", "none"],
    )
    def test_usage_counts_each_substantive_call_that_ran_without_error(self, tmp_path, monkeypatch, calls, counted):
        # each branch makes the same calls, one per turn, then answers
        def branch_fn(slot, exchange):
            turn = sum(m.role == "assistant" for m in exchange.messages)
            if turn < len(calls):
                tool, args = calls[turn]
                return AssistantReply(content="", tool_calls=(ToolCallRequest(tool=tool, args=args),))
            return _forecast_reply([13.0] * 3)

        deps = _deps(tmp_path, _branch_loop_policy(branch_fn))
        monkeypatch.setattr(deps.toolkit, "sample_visible_subset", lambda *a, **k: frozenset({"naive", "drift"}))
        inst = _instance(gt=[13.0] * 3)
        outcome = run_exploration_episode(inst, ExplorationConfig(seed=3), deps)
        assert all(c.valid for c in outcome.candidates)
        assert deps.store.ledger.counts(inst.scope) == counted
        deps.close()
        assert ExperienceStore(tmp_path / "store").ledger.counts(inst.scope) == counted

    def test_gateway_error_mid_loop_ends_the_branch(self, tmp_path):
        def branch_fn(slot, exchange):
            if exchange.messages[-1].role == "tool":
                raise GatewayError("backend went away")
            return AssistantReply(
                content="", tool_calls=(ToolCallRequest(tool="naive", args={"horizon": 3}),)
            )

        outcome, events = self._run(tmp_path, branch_fn)
        for c in outcome.candidates:
            assert c.failure_reason == "gateway_error: backend went away"
            assert not c.valid
            called = [e["payload"]["tool"] for e in events if e["kind"] == "tool_call" and e["branch"] == c.slot]
            assert called == ["naive"]

    def test_branch_that_never_finishes_hits_the_step_cap(self, tmp_path):
        turns = []

        def branch_fn(slot, exchange):
            turns.append(slot)
            return AssistantReply(content="still thinking")

        outcome, _events = self._run(tmp_path, branch_fn)
        assert [c.failure_reason for c in outcome.candidates] == ["step_cap", "step_cap"]
        assert turns == [0] * 6 + [1] * 6  # ExplorationConfig.max_steps turns per branch


def _answer_from_reply(tool, args, answer_type="forecast", source=None):
    """One tool call, with the final that answers from ``source``'s artifact
    (the called tool's by default)."""
    final = {"answer_type": answer_type, "answer_from": source or tool, "reasoning": f"{tool} says"}
    return AssistantReply(content=json.dumps(final), tool_calls=(ToolCallRequest(tool=tool, args=args),))


def _answer_from_calls(calls, source, answer_type="forecast"):
    """The (tool, args) ``calls`` in one reply, with ids ``call_0``, ...,
    and the final that answers from ``source``'s artifact."""
    final = {"answer_type": answer_type, "answer_from": source, "reasoning": f"{source} says"}
    requests = tuple(ToolCallRequest(tool=tool, args=args, id=f"call_{i}") for i, (tool, args) in enumerate(calls))
    return AssistantReply(content=json.dumps(final), tool_calls=requests)


def _indicator_instance():
    return TaskInstance(
        id="ind1",
        series=tuple(10.0 + (i % 4) for i in range(24)),
        task_type=TaskType.INDICATOR,
        horizon=8,
        scope="synth_indicator_short",
        ground_truth=SealedAnswer({"max": 13.0, "min": 10.0, "diff": 3.0}),
    )


class TestAnswerFrom:
    """A reply may carry tool calls and a final that answers from the
    artifact of one of them: the branch or inference ends after that one
    gateway call, every call of the reply run in order."""

    TREND = dict(series=[1.0 + 0.5 * i for i in range(12)], task_type=TaskType.TREND,
                 labels=("decreasing", "increasing", "stable"), gt="increasing", horizon=2)

    def _explore(self, tmp_path, monkeypatch, branch_fn, inst):
        deps = _deps(tmp_path, _branch_loop_policy(branch_fn))
        monkeypatch.setattr(
            deps.toolkit, "sample_visible_subset", lambda *a, **k: frozenset({"naive", "drift", "detect_trend"})
        )
        outcome = run_exploration_episode(inst, ExplorationConfig(seed=3), deps)
        [block] = read_trace(outcome.trace_path)
        return outcome, block.events

    @pytest.mark.parametrize(
        "tool, args, answer_type, field",
        [("naive", {"horizon": 3}, "forecast", "values"), ("detect_trend", {}, "trend", "label")],
        ids=["forecast", "label"],
    )
    def test_a_branch_ends_after_one_call_with_its_artifacts_answer(
        self, tmp_path, monkeypatch, tool, args, answer_type, field
    ):
        inst = _instance(gt=[13.0] * 3) if answer_type == "forecast" else _instance(**self.TREND)
        turns = []

        def branch_fn(slot, exchange):
            turns.append(slot)
            return _answer_from_reply(tool, args, answer_type)

        outcome, events = self._explore(tmp_path, monkeypatch, branch_fn, inst)
        assert turns == [0, 1] and outcome.gateway_calls == 2
        results = [e["payload"]["artifact"] for e in events if e["kind"] == "tool_result" and e["branch"] is not None]
        assert [c.final_answer for c in outcome.candidates] == [r["payload"][field] for r in results]
        assert all(c.valid and c.failure_reason is None for c in outcome.candidates)
        assert replay(outcome.trace_path, [inst])[0].clean
        [runtime] = [e["payload"] for e in events if e["kind"] == "verdict" and e["payload"]["type"] == "contract"]
        [report] = lint(outcome.trace_path)
        assert (report.contract.satisfied, list(report.contract.violations)) == (runtime["satisfied"], runtime["violations"])

    def test_the_offline_policy_makes_one_call_per_forecast_branch(self, tmp_path):
        inst = _instance(gt=[13.0] * 3)
        outcome = run_exploration_episode(inst, ExplorationConfig(seed=3), _deps(tmp_path, policy_gateway("exploration")))
        assert outcome.gateway_calls == 2
        assert all(c.valid for c in outcome.candidates)
        [report] = lint(outcome.trace_path)
        assert report.clean and replay(outcome.trace_path, [inst])[0].clean

    def test_an_error_artifact_is_fed_back_and_the_branch_goes_on(self, tmp_path, monkeypatch):
        feedback = []

        def branch_fn(slot, exchange):
            last = exchange.messages[-1]
            if last.role == "user":
                return _answer_from_reply("naive", {"horizon": "three"})
            feedback.append(json.loads(last.content)["payload"]["error"])
            return _answer_from_reply("naive", {"horizon": 3})

        outcome, _events = self._explore(tmp_path, monkeypatch, branch_fn, _instance(gt=[13.0] * 3))
        assert feedback == ["schema_violation"] * 2
        assert outcome.gateway_calls == 4
        assert [c.final_answer for c in outcome.candidates] == [[12.0] * 3] * 2

    @pytest.mark.parametrize(
        "reply, inst, reason",
        [
            (_answer_from_reply("naive", {"horizon": 3}, source="drift"), _instance(gt=[13.0] * 3),
             "answer_from_other_tool"),
            (AssistantReply(content=json.dumps({"answer_type": "forecast", "answer_from": "naive"})),
             _instance(gt=[13.0] * 3), "answer_from_other_tool"),
            (_answer_from_reply("naive", {"horizon": 8}, "indicator"), _indicator_instance(), "answer_from_indicator"),
            (_answer_from_calls([("naive", {"horizon": 3}), ("naive", {"horizon": 2})], "naive"),
             _instance(gt=[13.0] * 3), "answer_from_ambiguous"),
        ],
        ids=["another-tool", "no-call", "indicator", "named-twice"],
    )
    def test_an_answer_from_it_cannot_serve_is_an_invalid_candidate(self, tmp_path, monkeypatch, reply, inst, reason):
        outcome, _events = self._explore(tmp_path, monkeypatch, lambda slot, exchange: reply, inst)
        assert outcome.gateway_calls == 2
        assert [(c.valid, c.final_answer, c.failure_reason) for c in outcome.candidates] == [(False, None, reason)] * 2

    def test_a_reply_answers_from_its_second_call_after_running_both(self, tmp_path, monkeypatch):
        inst = _instance(gt=[13.0] * 3)
        reply = _answer_from_calls([("naive", {"horizon": 3}), ("drift", {"horizon": 3})], "drift")
        outcome, events = self._explore(tmp_path, monkeypatch, lambda slot, exchange: reply, inst)
        assert outcome.gateway_calls == 2
        ran = [(e["branch"], e["payload"]["call_id"], e["payload"]["tool"]) for e in events
               if e["kind"] == "tool_call" and e["branch"] is not None]
        assert ran == [(0, "c001", "naive"), (0, "c002", "drift"), (1, "c003", "naive"), (1, "c004", "drift")]
        assert [(c.final_answer, c.substantive_chain) for c in outcome.candidates] == [
            ([13.0, 14.0, 15.0], ("naive", "drift"))
        ] * 2
        assert replay(outcome.trace_path, [inst])[0].clean
        [runtime] = [e["payload"] for e in events if e["kind"] == "verdict" and e["payload"]["type"] == "contract"]
        [report] = lint(outcome.trace_path)
        assert list(report.contract.violations) == runtime["violations"] == ["no_distinct_pair"]

    @pytest.mark.parametrize(
        "second, args, named, answer",
        [
            ("holt", {"horizon": 3}, "holt", {"error": "tool_not_visible", "tool": "holt"}),
            ("drift", {"horizon": "three"}, "drift", "schema_violation"),
            # a reply that called no call of the named tool answers from all of them
            ("holt", {"horizon": 3}, "drift", {"error": "tool_not_visible", "tool": "holt"}),
        ],
        ids=["rejected", "error-artifact", "another-tool-rejected"],
    )
    def test_a_named_call_that_cannot_answer_feeds_back_every_tool_message(
        self, tmp_path, monkeypatch, second, args, named, answer
    ):
        feedback = []

        def branch_fn(slot, exchange):
            if exchange.messages[-1].role == "user":
                return _answer_from_calls([("naive", {"horizon": 3}), (second, args)], named)
            assistant, *answers = exchange.messages[2:]
            assert [c.id for c in assistant.tool_calls] == ["call_0", "call_1"]
            feedback.append([(m.role, m.tool_call_id, json.loads(m.content)) for m in answers])
            return _forecast_reply([13.0] * 3)

        outcome, _events = self._explore(tmp_path, monkeypatch, branch_fn, _instance(gt=[13.0] * 3))
        assert outcome.gateway_calls == 4
        for first, second in feedback:
            assert first[:2] == ("tool", "call_0") and first[2]["payload"]["values"] == [12.0] * 3
            assert second[:2] == ("tool", "call_1")
            assert (second[2] if "error" in second[2] else second[2]["payload"]["error"]) == answer
        assert len(feedback) == 2
        assert [c.final_answer for c in outcome.candidates] == [[13.0] * 3] * 2

    def test_lint_reads_each_branchs_answer_from_its_recorded_artifact(self, tmp_path, monkeypatch):
        # the same tool on both branches: only the resolved answers, three
        # values against two, tell the pair apart
        horizons = {0: 3, 1: 2}
        outcome, events = self._explore(
            tmp_path, monkeypatch,
            lambda slot, exchange: _answer_from_reply("naive", {"horizon": horizons[slot]}),
            _instance(gt=[13.0] * 3),
        )
        [runtime] = [e["payload"] for e in events if e["kind"] == "verdict" and e["payload"]["type"] == "contract"]
        [report] = lint(outcome.trace_path)
        assert runtime["satisfied"] and report.contract.satisfied

    def test_inference_makes_one_call_per_forecast_sample(self, tmp_path):
        deps = _deps(tmp_path, PolicyGateway(offline_policy), with_store=False)
        result = run_inference(_instance(gt=[13.0] * 3), deps)
        assert (result.gateway_calls, result.prediction, result.degraded) == (1, [12.0] * 3, False)
        assert result.execution_context.splitlines()[-1] == "2. final: naive continuation"

    @pytest.mark.parametrize(
        "labels, calls",
        [(("decreasing", "increasing", "stable"), 1), (("decreasing", "flat", "increasing"), 2)],
        ids=["trend-labels", "another-space"],
    )
    def test_a_label_answers_from_detect_trend_where_its_space_holds_every_label_it_gives(self, tmp_path, labels, calls):
        inst = _instance(**{**self.TREND, "labels": labels})
        result = run_inference(inst, _deps(tmp_path, PolicyGateway(offline_policy), with_store=False))
        assert (result.gateway_calls, result.prediction) == (calls, "increasing")
        [block] = read_trace(result.trace_path)
        first = next(e["payload"]["reply"] for e in block.events if e["kind"] == "gateway_response")
        assert first["tool_calls"] == [{"tool": "detect_trend", "args": {}}]
        expected = {"answer_type": "trend", "answer_from": "detect_trend", "reasoning": "detect_trend label"}
        assert (json.loads(first["content"]) if first["content"] else None) == (expected if calls == 1 else None)

    @pytest.mark.parametrize(
        "visible, labels, calls, chains",
        [
            ({"basic_stats", "detect_trend", "naive"}, TREND["labels"], [1, 1],
             [("basic_stats", "detect_trend"), ("detect_trend",)]),
            ({"basic_stats", "detect_trend", "naive"}, ("decreasing", "flat", "increasing"), [2, 2],
             [("basic_stats", "detect_trend"), ("detect_trend",)]),
            ({"basic_stats", "stationarity_check", "naive"}, TREND["labels"], [2, 2],
             [("basic_stats",), ("stationarity_check",)]),
        ],
        ids=["detect_trend-visible", "another-space", "detect_trend-hidden"],
    )
    def test_a_label_branch_hinted_at_an_analysis_tool_calls_detect_trend_in_its_first_reply(
        self, tmp_path, monkeypatch, visible, labels, calls, chains
    ):
        # slot 0 is hinted at basic_stats: with detect_trend visible it calls
        # both in one reply and answers from detect_trend, in that reply where
        # the label space holds every label detect_trend gives, else in the
        # next; with it hidden it reads basic_stats' artifact before it answers
        inst = _instance(**{**self.TREND, "labels": labels})
        deps = _deps(tmp_path, policy_gateway("exploration"))
        monkeypatch.setattr(deps.toolkit, "sample_visible_subset", lambda *a, **k: frozenset(visible))
        outcome = run_exploration_episode(inst, ExplorationConfig(seed=3), deps)
        [block] = read_trace(outcome.trace_path)
        assert [sum(e["kind"] == "gateway_request" and e["branch"] == slot for e in block.events) for slot in (0, 1)] == calls
        assert [c.substantive_chain for c in outcome.candidates] == chains
        assert all(c.valid for c in outcome.candidates)
        assert replay(outcome.trace_path, [inst])[0].clean and lint(outcome.trace_path)[0].clean

    def test_an_indicator_keeps_two_calls_and_a_plain_answer(self, tmp_path):
        result = run_inference(_indicator_instance(), _deps(tmp_path, PolicyGateway(offline_policy), with_store=False))
        assert (result.gateway_calls, result.degraded) == (2, False)
        [block] = read_trace(result.trace_path)
        replies = [e["payload"]["reply"] for e in block.events if e["kind"] == "gateway_response"]
        assert "answer" in json.loads(replies[-1]["content"]) and not replies[-1]["tool_calls"]


class TestContractVerdicts:
    def _run_and_lint(self, tmp_path, gw, inst=None):
        inst = inst or _instance(gt=[13.0, 13.0, 13.0])
        deps = _deps(tmp_path, gw)
        outcome = run_exploration_episode(inst, ExplorationConfig(seed=3), deps)
        [block] = read_trace(outcome.trace_path)
        return enforce_exploration_contract(block.header, block.events)

    def test_compliant_trace_passes(self, tmp_path):
        gw = _scripted_branch_policy({0: (None, [14.0] * 3), 1: ("naive", [15.0] * 3)})
        verdict = self._run_and_lint(tmp_path, gw)
        assert verdict.satisfied
        assert verdict.violations == ()

    def test_identical_branches_flag_no_distinct_pair(self, tmp_path):
        gw = _scripted_branch_policy({0: (None, [14.0] * 3), 1: (None, [14.0] * 3)})
        verdict = self._run_and_lint(tmp_path, gw)
        assert verdict.violations == ("no_distinct_pair",)

    def _compliant_trace(self, tmp_path):
        gw = _scripted_branch_policy({0: (None, [14.0] * 3), 1: ("naive", [15.0] * 3)})
        outcome = run_exploration_episode(_instance(gt=[13.0] * 3), ExplorationConfig(seed=3), _deps(tmp_path, gw))
        [report] = lint(outcome.trace_path)
        assert report.clean
        return outcome.trace_path

    def test_skipped_evaluation_flags_no_comparison(self, tmp_path):
        # a trace whose evaluate call and result are cut out
        path = self._compliant_trace(tmp_path)
        [evaluate] = [
            e["payload"]["call_id"]
            for block in read_trace(path)
            for e in block.events
            if e["kind"] == "tool_call" and e["payload"]["tool"] == EVALUATE_TOOL
        ]
        edited = _edited_trace(
            path, tmp_path,
            lambda e: None if e["kind"] in ("tool_call", "tool_result") and e["payload"]["call_id"] == evaluate else e,
        )
        [report] = lint(edited)
        assert report.contract.violations == ("no_comparison",)

    def test_answers_differing_within_tolerance_are_not_distinct(self, tmp_path):
        gw = _scripted_branch_policy(
            {0: (None, [14.0, 14.0, 14.0]), 1: (None, [14.0, 14.0, 14.0 + 1e-12])}
        )
        verdict = self._run_and_lint(tmp_path, gw)
        assert "no_distinct_pair" in verdict.violations

    def test_an_evaluation_that_failed_is_no_comparison_at_runtime_and_under_lint(self, tmp_path, monkeypatch):
        # the evaluate tool returns an error artifact, so no branch was
        # evaluated: the runtime verdict says so, and lint agrees
        gw = _scripted_branch_policy({0: (None, [14.0] * 3), 1: ("naive", [15.0] * 3)})
        deps = _deps(tmp_path / "run", gw)
        _failing_evaluator(monkeypatch, deps.toolkit)
        outcome = run_exploration_episode(_instance(gt=[13.0] * 3), ExplorationConfig(seed=3), deps)
        assert not outcome.eval_evidence
        [block] = read_trace(outcome.trace_path)
        [runtime] = [e["payload"] for e in block.events if e["kind"] == "verdict" and e["payload"]["type"] == "contract"]
        linted = enforce_exploration_contract(block.header, block.events)
        assert runtime["violations"] == ["no_comparison"]
        assert (linted.satisfied, list(linted.violations)) == (runtime["satisfied"], runtime["violations"])
        [report] = lint(outcome.trace_path)
        assert report.contract == linted

        # a compliant trace whose evaluate artifact is edited into an error
        error = {"artifact_id": "0" * 12, "kind": "text", "payload": {"error": "contract", "message": "down"}}

        def failed(e):
            if e["kind"] == "tool_result" and e["branch"] is None:
                return {**e, "payload": {**e["payload"], "artifact": error}}
            return e

        [report] = lint(_edited_trace(self._compliant_trace(tmp_path / "compliant"), tmp_path, failed))
        assert report.contract.violations == ("no_comparison",)


class TestBranchSlots:
    def _registry(self, tmp_path):
        return builtin_toolkit()

    def test_fresh_scope_distinct_hints(self, tmp_path):
        inst = _instance(gt=[13.0] * 3)
        slots = assign_branch_slots(
            inst, ExplorationConfig(seed=1), False, self._registry(tmp_path), {}, None, episode_seed=5
        )
        assert len(slots) == 2
        assert slots[0].hint != slots[1].hint

    def test_prior_guides_slot_zero_and_alternative_differs(self, tmp_path):
        from timeclaw.store import MemoryRule, Selection

        rule = MemoryRule(
            rule_id="r0001",
            kind="tool_preference",
            applicability={},
            preferred_tools=("ses",),
            avoided_tools=(),
            evidence=("n",),
            confidence=0.8,
            injectable=True,
            seq=1,
        )
        inst = _instance(gt=[13.0] * 3)
        slots = assign_branch_slots(
            inst,
            ExplorationConfig(seed=1),
            True,
            self._registry(tmp_path),
            {},
            Selection(rules=[rule]),
            episode_seed=5,
        )
        assert slots[0].prior_guided and slots[0].hint == "ses"
        assert slots[1].alternative and slots[1].hint != "ses"

    def test_hints_drawn_from_visible_subset(self, tmp_path):
        inst = _instance(gt=[13.0] * 3)
        registry = self._registry(tmp_path)
        for seed in range(10):
            for slot in assign_branch_slots(
                inst, ExplorationConfig(seed=seed), False, registry, {}, None, episode_seed=seed
            ):
                assert slot.hint in slot.visible_tools

    def test_exactly_two_competitors_pigeonhole(self):
        registry = ToolRegistry(
            [
                ToolDescriptor(tool_id="naive", category=ToolCategory.FORECASTING),
                ToolDescriptor(tool_id="drift", category=ToolCategory.FORECASTING),
            ]
        )
        inst = _instance(gt=[13.0] * 3)
        for seed in range(20):
            slots = assign_branch_slots(
                inst, ExplorationConfig(seed=seed), False, registry, {}, None, episode_seed=seed
            )
            assert {slots[0].hint, slots[1].hint} == {"naive", "drift"}


class TestInference:
    def test_empty_store_baseline_forecast(self, tmp_path):
        inst = _instance(gt=[13.0] * 3)
        deps = _deps(tmp_path, PolicyGateway(offline_policy), with_store=False)
        result = run_inference(inst, deps)
        assert not result.degraded
        assert len(result.prediction) == inst.horizon
        assert result.tool_chain == ("naive",)

    def test_trend_answer_always_in_label_space(self, tmp_path):
        inst = _instance(
            series=[5.0, 5.1, 4.9, 5.0, 5.2, 5.0],
            task_type=TaskType.TREND,
            labels=("decreasing", "increasing", "stable"),
            gt="stable",
            horizon=2,
        )
        deps = _deps(tmp_path, PolicyGateway(offline_policy), with_store=False)
        result = run_inference(inst, deps)
        assert result.prediction in inst.label_space

    def test_degraded_fallback_on_unusable_gateway(self, tmp_path):
        gw = PolicyGateway(lambda ex: AssistantReply(content="I refuse to answer properly"))
        inst = _instance(gt=[13.0] * 3)
        result = run_inference(inst, _deps(tmp_path, gw, with_store=False))
        assert result.degraded
        assert result.prediction == [12.0, 12.0, 12.0]  # naive fallback

    def test_degraded_fallback_label_is_first_alphabetical(self, tmp_path):
        gw = PolicyGateway(lambda ex: AssistantReply(content="nope"))
        inst = _instance(
            series=[1.0, 2.0, 3.0],
            task_type=TaskType.TREND,
            labels=("stable", "increasing", "decreasing"),
            gt="increasing",
            horizon=1,
        )
        result = run_inference(inst, _deps(tmp_path, gw, with_store=False))
        assert result.degraded
        assert result.prediction == "decreasing"

    def test_indicator_answers_named_scalars(self, tmp_path):
        inst = TaskInstance(
            id="ind1",
            series=tuple(10.0 + (i % 4) for i in range(24)),
            task_type=TaskType.INDICATOR,
            horizon=8,
            scope="synth_indicator_short",
            ground_truth=SealedAnswer({"max": 13.0, "min": 10.0, "diff": 3.0}),
        )
        deps = _deps(tmp_path, PolicyGateway(offline_policy), with_store=False)
        result = run_inference(inst, deps)
        assert not result.degraded
        assert set(result.prediction) == {"max", "min", "diff"}

    def test_mcqa_answer_is_a_legal_option(self, tmp_path):
        inst = TaskInstance(
            id="mc1",
            series=(1.0, 2.0, 3.0, 4.0),
            task_type=TaskType.MCQA,
            horizon=1,
            scope="synth_mcqa_short",
            label_space=("option_a", "option_b", "option_c", "option_d"),
            ground_truth=SealedAnswer("option_b"),
        )
        deps = _deps(tmp_path, PolicyGateway(offline_policy), with_store=False)
        result = run_inference(inst, deps)
        assert result.prediction in inst.label_space

    def test_no_store_or_ledger_writes(self, tmp_path):
        inst = _instance(gt=[13.0] * 3)
        deps = _deps(tmp_path, PolicyGateway(offline_policy), with_store=True)
        digest_before = deps.store.tree_digest()
        run_inference(inst, deps)
        assert deps.store.tree_digest() == digest_before
        assert deps.store.ledger.counts(inst.scope) == {}

    @pytest.mark.parametrize("inputs", [5, "abc"])
    def test_bad_inputs_come_back_as_a_schema_violation(self, tmp_path, inputs):
        feedback = []

        def fn(exchange):
            if exchange.messages[-1].role == "user":
                call = ToolCallRequest(tool="naive", args={"horizon": 3, "_inputs": inputs})
                return AssistantReply(content="", tool_calls=(call,))
            feedback.append(json.loads(exchange.messages[-1].content))
            return AssistantReply(content=json.dumps({"answer_type": "forecast", "answer": [1.0, 1.0, 1.0]}))

        result = run_inference(_instance(), _deps(tmp_path, PolicyGateway(fn), with_store=False))
        assert [f["payload"]["error"] for f in feedback] == ["schema_violation"]
        assert result.prediction == [1.0, 1.0, 1.0]

    def test_exploration_only_tool_requests_get_feedback_not_execution(self, tmp_path):
        calls = {"n": 0}
        feedback = []

        def fn(exchange):
            calls["n"] += 1
            if calls["n"] == 1:
                return AssistantReply(
                    content="",
                    tool_calls=(ToolCallRequest(tool="evaluate_batch_against_gt", args={}),),
                )
            feedback.append(exchange.messages[-1].content)
            return AssistantReply(
                content=json.dumps({"answer_type": "forecast", "answer": [1.0, 1.0, 1.0]})
            )

        inst = _instance(gt=[13.0] * 3)
        result = run_inference(inst, _deps(tmp_path, PolicyGateway(fn), with_store=False))
        [block] = read_trace(result.trace_path)
        tool_events = [e for e in block.events if e["kind"] == "tool_call"]
        assert tool_events == []  # the forbidden request never became a tool event
        assert feedback == ['{"error":"tool_not_available","tool":"evaluate_batch_against_gt"}']
        assert result.prediction == [1.0, 1.0, 1.0]


class TestRemoteReplies:
    def test_a_reply_with_a_lone_surrogate_fails_the_episode_not_the_run(self, tmp_path, stub_server):
        stub_server.mode = "reply"
        stub_server.body = {"choices": [{"message": {"content": "\ud800 thinking"}}]}
        deps = _deps(tmp_path, RemoteGateway(base_url=stub_server.url))
        assert run_inference(_instance(), deps).degraded
        outcome = run_exploration_episode(_instance(gt=[13.0] * 3), ExplorationConfig(seed=9), deps)
        assert outcome.evidence_class == EvidenceClass.FAILURE and outcome.gateway_calls == 0
        # both blocks were written whole
        blocks = read_trace(tmp_path / "traces" / "synth_forecast_short.jsonl")
        assert [block.header["mode"] for block in blocks] == ["inference", "exploration"]

    @pytest.mark.parametrize("arguments", ["[1, 2]", "null"], ids=["a-list", "null"])
    def test_tool_call_arguments_that_are_no_object_fail_the_episode_not_the_run(self, tmp_path, stub_server, arguments):
        call = {"function": {"name": "seasonal_naive", "arguments": arguments}}
        stub_server.mode = "reply"
        stub_server.body = {"choices": [{"message": {"content": None, "tool_calls": [call]}}]}
        deps = _deps(tmp_path, RemoteGateway(base_url=stub_server.url))
        assert run_inference(_instance(), deps).degraded
        outcome = run_exploration_episode(_instance(gt=[13.0] * 3), ExplorationConfig(seed=9), deps)
        assert outcome.evidence_class == EvidenceClass.FAILURE and outcome.gateway_calls == 0
        blocks = read_trace(tmp_path / "traces" / "synth_forecast_short.jsonl")
        assert [block.header["mode"] for block in blocks] == ["inference", "exploration"]
        deps.close()


class TestToolExposure:
    def test_exploration_minus_inference_is_exactly_the_special_categories(self, tmp_path):
        toolkit = builtin_toolkit()
        registered = set(toolkit._tools)
        inference = set(toolkit.inference_visible())
        special = {
            t
            for t in registered
            if toolkit.descriptor(t).category == ToolCategory.EXPLORATION_ONLY
        }
        assert registered - inference == special == {EVALUATE_TOOL}

    def test_the_main_branch_holds_only_the_evaluation_the_verdict_and_the_outcome(self, tmp_path):
        # every gateway exchange of an episode is a branch's
        deps = _deps(tmp_path, policy_gateway("exploration"))
        outcome = run_exploration_episode(_instance(gt=[13.0] * 3), ExplorationConfig(seed=3), deps)
        [block] = read_trace(outcome.trace_path)
        main = [e for e in block.events if e["branch"] is None]
        assert [e["kind"] for e in main] == ["tool_call", "tool_result", "verdict", "outcome"]
        assert (main[0]["payload"]["tool"], main[0]["payload"]["args"]) == (EVALUATE_TOOL, {})
        assert main[2]["payload"]["type"] == "contract"
        requests = [e for e in block.events if e["kind"] == "gateway_request"]
        assert requests and all(e["branch"] is not None for e in requests)
        assert outcome.gateway_calls == len(requests)

    def test_inference_trace_never_contains_ground_truth(self, tmp_path):
        gt = [13.577, 14.211, 15.903]
        inst = _instance(gt=gt)
        deps = _deps(tmp_path, PolicyGateway(offline_policy), with_store=False)
        result = run_inference(inst, deps)
        trace_text = Path(result.trace_path).read_text(encoding="utf-8")
        for needle in ("13.577", "14.211", "15.903"):
            assert needle not in trace_text


class TestReinjectOncePerMemory:
    """Inference reads one memoized Selection for samples whose fingerprints
    have the same predicate fields, and one system message rendered from it."""

    def test_one_store_answers_and_traces_as_a_fresh_store_per_sample(self, tmp_path, seasonal_family):
        family = replace(seasonal_family, learn_count=10, eval_count=8)
        explore = _deps(tmp_path / "explore", policy_gateway("exploration"))
        for i in range(family.learn_count):
            run_exploration_episode(generate_sample(family, "learning", i, 11)[0], ExplorationConfig(seed=5), explore)
        evals = [generate_sample(family, "evaluation", i, 11)[0] for i in range(family.eval_count)]
        fields = prompts.fingerprint(evals[0]).fields()
        same = [inst for inst in evals if prompts.fingerprint(inst).fields() == fields]
        assert len(same) >= 3
        systems = []

        def spy(exchange):
            systems.append(exchange.messages[0])
            return offline_policy(exchange)

        def deps(trace_dir):
            toolkit = builtin_toolkit()
            store = ExperienceStore(tmp_path / "explore" / "store")
            return EpisodeDeps(
                toolkit=toolkit,
                gateway=PolicyGateway(spy),
                store=store,
                trace_dir=trace_dir,
            )

        shared = deps(tmp_path / "shared")
        assert shared.store.retrieve(same[0].scope, prompts.fingerprint(same[0])).rules
        together = [run_inference(inst, shared).to_dict() for inst in same]
        assert len(systems) >= len(same) and all(m is systems[0] for m in systems)
        apart = [run_inference(inst, deps(tmp_path / f"apart{i}")).to_dict() for i, inst in enumerate(same)]
        assert together == apart
        log = f"{same[0].scope}.jsonl"
        assert (tmp_path / "shared" / log).read_bytes() == b"".join(
            (tmp_path / f"apart{i}" / log).read_bytes() for i in range(len(same))
        )


class TestTraceDeterminism:
    def test_byte_identical_traces_across_runs(self, tmp_path):
        inst = _instance(gt=[13.0] * 3)
        texts = []
        for run in ("a", "b"):
            deps = _deps(tmp_path / run, policy_gateway("exploration"))
            outcome = run_exploration_episode(inst, ExplorationConfig(seed=9), deps)
            texts.append(Path(outcome.trace_path).read_text(encoding="utf-8"))
        assert texts[0] == texts[1]

    def test_a_raising_run_closes_its_trace(self, tmp_path):
        inst = _instance(gt=[13.0] * 3)
        deps = _deps(tmp_path, ScriptedGateway({}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ScriptMissError):
                run_exploration_episode(inst, ExplorationConfig(seed=9), deps)
            with pytest.raises(ScriptMissError):
                run_inference(inst, deps)
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
        # an episode that raises appends no block, so no log holds half an episode
        assert not (tmp_path / "traces").exists()


class TestTraceLog:
    def test_concurrent_appends_never_interleave_or_lose_a_block(self, tmp_path):
        # more writers than cores, switching threads as often as possible
        log = TraceLog(tmp_path)
        def write(worker: int) -> None:
            for n in range(40):
                header = {"version": __version__, "mode": "exploration", "episode": f"w{worker}.{n}", "sample": "0" * 16}
                with TraceWriter(log, "s", header) as trace:
                    for _ in range(3):
                        trace.event("gateway_request", {"digest": "d"})
                    trace.event("outcome", {})

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                for future in [pool.submit(write, w) for w in range(6)]:
                    future.result(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        blocks = list(read_trace(tmp_path / "s.jsonl"))
        assert sorted(b.header["episode"] for b in blocks) == sorted(f"w{w}.{n}" for w in range(6) for n in range(40))
        assert all(len(b.events) == 4 for b in blocks)

    @pytest.mark.parametrize("mode", ["exploration", "inference"])
    def test_a_block_is_read_back_once_its_writer_exits(self, tmp_path, mode):
        log = TraceLog(tmp_path)
        for n in range(4):
            header = {"version": __version__, "mode": mode, "episode": f"e{n}", "sample": "0" * 16}
            with TraceWriter(log, "s", header) as trace:
                trace.event("outcome", {})
            episodes = [block.header["episode"] for block in read_trace(tmp_path / "s.jsonl")]
            assert episodes == [f"e{k}" for k in range(n + 1)]
            if n == 1:
                log.close()  # the next append opens the log again, where it ended
        log.close()

    # a tool call's arguments that spell an outcome event's envelope
    OUTCOME_ARGS = {"kind": "outcome", "payload": {}}

    @classmethod
    def _explore(cls, tmp_path, monkeypatch, n):
        """One episode, run by a fresh EpisodeDeps, so its trace log is framed
        anew: an explore onto the log the earlier ones left. Branch 0 first
        calls a tool with OUTCOME_ARGS."""

        def branch_fn(slot, exchange):
            if slot == 0 and exchange.messages[-1].role == "user":
                return AssistantReply(content="", tool_calls=(ToolCallRequest(tool="naive", args=cls.OUTCOME_ARGS),))
            return _forecast_reply([13.0 + slot] * 3)

        deps = _deps(tmp_path, _branch_loop_policy(branch_fn))
        monkeypatch.setattr(deps.toolkit, "sample_visible_subset", lambda *a, **k: frozenset({"naive", "drift"}))
        try:
            run_exploration_episode(_instance(gt=[13.0] * 3, iid=f"e{n}"), ExplorationConfig(seed=n), deps)
        finally:
            deps.close()
        return tmp_path / "traces" / "synth_forecast_short.jsonl"

    def test_a_block_whose_arguments_spell_an_outcome_reads_back_whole(self, tmp_path, monkeypatch):
        path = self._explore(tmp_path, monkeypatch, 1)
        first = path.read_bytes()
        assert b'"args":{"kind":"outcome","payload":{}}' in first
        [block] = read_trace(path)
        self._explore(tmp_path, monkeypatch, 2)
        assert path.read_bytes().startswith(first)
        blocks = list(read_trace(path))
        assert blocks[0] == block and [b.header["episode"] for b in blocks] == ["e1", "e2"]

    def test_a_block_cut_before_its_outcome_line_is_dropped_then_cut_off(self, tmp_path, monkeypatch, caplog):
        path = self._explore(tmp_path, monkeypatch, 1)
        kept = path.read_bytes()
        full = self._explore(tmp_path, monkeypatch, 2).read_bytes()
        cut = full[: full.rindex(b"\n", 0, len(full) - 1) + 1]
        assert json.loads(full[len(cut) :])["kind"] == "outcome"
        path.write_bytes(cut)
        line = kept.count(b"\n") + 1
        self._explore(tmp_path, monkeypatch, 3)
        assert f"{path}: line {line}: dropped a torn last record" in caplog.text
        assert path.read_bytes().startswith(kept)
        caplog.clear()
        assert [b.header["episode"] for b in read_trace(path)] == ["e1", "e3"]
        assert not caplog.text


    def test_a_block_cut_inside_its_outcome_line_is_dropped_then_cut_off(self, tmp_path, monkeypatch, caplog):
        path = self._explore(tmp_path, monkeypatch, 1)
        kept = path.read_bytes()
        full = self._explore(tmp_path, monkeypatch, 2).read_bytes()
        outcome_line = full.rindex(b"\n", 0, len(full) - 1) + 1
        assert json.loads(full[outcome_line:])["kind"] == "outcome"
        path.write_bytes(full[: outcome_line + 30])  # the outcome line's envelope, cut with no newline
        line = kept.count(b"\n") + 1
        self._explore(tmp_path, monkeypatch, 3)
        assert f"{path}: line {line}: dropped a torn last record" in caplog.text
        assert path.read_bytes().startswith(kept)
        caplog.clear()
        assert [b.header["episode"] for b in read_trace(path)] == ["e1", "e3"]
        assert not caplog.text

class TestToolListsPerRun:
    def test_racing_branches_share_one_list_per_tool_set(self, tmp_path):
        # more threads than cores, switching as often as possible: each tool
        # set still maps to one list, equal to a fresh build of its schemas
        deps = _deps(tmp_path, policy_gateway("exploration"))
        tools = sorted(deps.toolkit.inference_visible())
        sets = [frozenset(c) for c in itertools.combinations(tools, 3)]

        start = threading.Barrier(6)

        def build(_worker: int) -> list[DeclaredTools]:
            start.wait(timeout=60)
            return [deps.branch_tools(s) for _ in range(2) for s in sets]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                built = [future.result(timeout=60) for future in [pool.submit(build, w) for w in range(6)]]
        finally:
            sys.setswitchinterval(interval)
        for n, s in enumerate(sets):
            lists = {id(lists[k]) for lists in built for k in range(n, len(lists), len(sets))}
            assert len(lists) == 1
            assert deps.branch_tools(s) == tuple(deps.toolkit.tool_schema(t) for t in sorted(s))


class TestTraceLines:
    @pytest.mark.parametrize("kind", sorted(TRACE_KINDS))
    @pytest.mark.parametrize("branch", [None, 0, 7])
    @pytest.mark.parametrize("encoded", [False, True], ids=["dict", "pre-encoded"])
    def test_an_event_line_is_the_canonical_json_of_its_event(self, tmp_path, kind, branch, encoded):
        payload = {"z": [1.5, None, -0.0, 1e300], "digest": "d\u00e9\u2028\"", "a": {"y": True, "b": {}}}
        header = {"version": __version__, "mode": "inference", "episode": "e", "sample": "0" * 16}
        with TraceWriter(TraceLog(tmp_path), "s", header) as trace:
            trace.event(kind, canonical_json(payload) if encoded else payload, branch=branch)
        lines = (tmp_path / "s.jsonl").read_text(encoding="utf-8").split("\n")
        assert lines == [canonical_json(header), canonical_json({"branch": branch, "kind": kind, "payload": payload}), ""]

    def test_an_unknown_kind_is_refused(self, tmp_path):
        with pytest.raises(ContractError, match="unknown trace event kind"):
            TraceWriter(TraceLog(tmp_path), "s", {"mode": "inference"}).event("gossip", {})


def _count_calls(monkeypatch, names):
    calls: list[str] = []
    for name in names:
        original = getattr(seriesops, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(seriesops, name, counted)
    return calls


def _count_profiled(monkeypatch):
    """The ids each ``prompts.fingerprints`` call profiles, one list per call."""
    batches: list[list[str]] = []
    batched = prompts.fingerprints

    def counted(instances, *args, **kwargs):
        batches.append([inst.id for inst in instances])
        return batched(instances, *args, **kwargs)

    monkeypatch.setattr(prompts, "fingerprints", counted)
    return batches


def _trace_bytes(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted((root / "traces").iterdir())}


class TestProfileOnce:
    """Every profile goes through the batched entry, prompts.fingerprints:
    a caller that passes no fingerprint gets a batch of one, and a caller
    that passes one (the CLI, see tests/test_cli.py) gets no profiling."""

    def test_exploration_episode_profiles_once(self, tmp_path, monkeypatch):
        inst = _instance(gt=[13.0] * 3)
        fp = prompts.fingerprint(inst)
        batches = _count_profiled(monkeypatch)
        calls = _count_calls(monkeypatch, ["dominant_period"])
        outcome = run_exploration_episode(inst, ExplorationConfig(seed=9), _deps(tmp_path / "a", policy_gateway("exploration")))
        assert len(outcome.candidates) == 2  # both branch prompts were built
        assert batches == [["e1"]] and calls == []
        given = run_exploration_episode(inst, ExplorationConfig(seed=9), _deps(tmp_path / "b", policy_gateway("exploration")), fp)
        assert batches == [["e1"]]
        assert given.candidates == outcome.candidates
        assert _trace_bytes(tmp_path / "b") == _trace_bytes(tmp_path / "a")

    def test_inference_profiles_once(self, tmp_path, monkeypatch):
        inst = _instance()
        fp = prompts.fingerprint(inst)
        batches = _count_profiled(monkeypatch)
        calls = _count_calls(monkeypatch, ["dominant_period"])
        result = run_inference(inst, _deps(tmp_path / "a", PolicyGateway(offline_policy)))
        assert batches == [["e1"]] and calls == []
        given = run_inference(inst, _deps(tmp_path / "b", PolicyGateway(offline_policy)), fp=fp)
        assert batches == [["e1"]]
        assert given.prediction == result.prediction
        assert _trace_bytes(tmp_path / "b") == _trace_bytes(tmp_path / "a")

    def test_no_second_period_scan(self, monkeypatch):
        """fingerprint takes period_r from the batched scan, which settles
        its lags row-wise: one scan, no per-lag lagged_correlation, and the r
        is lagged_correlation's own."""
        correlation = seriesops.lagged_correlation
        calls = _count_calls(monkeypatch, ["dominant_periods", "dominant_period", "lagged_correlation"])
        series = [float(t % 4) for t in range(24)]
        fp = prompts.fingerprint(_instance(series=series))
        assert calls == ["dominant_periods"]
        assert fp.dominant_period == 4 and fp.period_r == correlation(series, 4)[0]

    def test_prompts_only_format_the_profile(self, monkeypatch):
        inst = _instance(gt=[13.0] * 3)
        fp = prompts.fingerprint(inst)
        calls = _count_calls(
            monkeypatch,
            ["dominant_period", "trend_label", "zscores", "split_half_stationarity", "lagged_correlation"],
        )
        slot = BranchSlot(slot=0, goal="g", hint="naive", visible_tools=frozenset({"naive"}))
        tools = DeclaredTools([{"name": "naive", "description": ""}])
        prompts.build_exploration_prompt(inst, fp, None, [slot], [tools])
        prompts.build_branch_prompt(inst, fp, slot, tools)
        prompts.build_inference_prompt(inst, fp, None, tools)
        assert calls == []


class _EncodingCounter(dict):
    """A mapping that counts its JSON encodings: the encoder asks a dict
    subclass for its items each time it encodes one."""

    encodings = 0

    def items(self):
        self.encodings += 1
        return super().items()


def _count_prompt_helpers(monkeypatch, names):
    calls: list[str] = []
    for name in names:
        original = getattr(prompts, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(prompts, name, counted)
    return calls


class TestEncodeAndRenderOnce:
    def test_an_episode_renders_its_observation_and_preview_once(self, tmp_path, monkeypatch):
        calls = _count_prompt_helpers(monkeypatch, ["_series_preview", "_fingerprint_lines", "_profiling_lines"])
        deps = _deps(tmp_path, policy_gateway("exploration"))
        outcome = run_exploration_episode(_instance(gt=[13.0] * 3), ExplorationConfig(seed=9), deps)
        assert len(outcome.candidates) == 2  # both branch prompts were built
        assert sorted(calls) == ["_fingerprint_lines", "_profiling_lines", "_series_preview"]

    def test_a_prompt_from_a_rendered_sample_reads_as_from_a_fresh_one(self):
        inst = _instance(gt=[13.0] * 3)
        fp = prompts.fingerprint(inst)
        slot = BranchSlot(slot=0, goal="g", hint="naive", visible_tools=frozenset({"naive"}))
        tools = DeclaredTools([{"name": "naive", "description": ""}])
        first = prompts.build_branch_prompt(inst, fp, slot, tools).user_text
        assert fp.rendered  # the sample's sections are kept on its fingerprint
        assert prompts.build_branch_prompt(inst, fp, slot, tools).user_text == first
        assert prompts.build_branch_prompt(inst, replace(fp), slot, tools).user_text == first
        assert "- series_preview = [1.0, 2.0, 3.0, 4.0, 5.0, ..., 8.0, 9.0, 10.0, 11.0, 12.0]" in first

    def test_each_call_s_arguments_are_encoded_once(self, tmp_path):
        deps = _deps(tmp_path, policy_gateway("exploration"))
        runner = _EpisodeRunner(_instance(gt=[13.0] * 3), deps, ExplorationConfig(seed=9))
        probe = _EncodingCounter(values=[0.1, 2.5])
        with runner.trace:
            artifact = runner.invoke_tool("naive", {"horizon": 3, "probe": probe}, [ORIGINAL_INPUT], branch=0)
            runner.trace.event("outcome", {})
        assert probe.encodings == 1
        assert artifact.payload["error"] == "schema_violation"
        args = {"horizon": 3, "probe": {"values": [0.1, 2.5]}}
        identity = {"tool": "naive", "args": args, "parents": [ORIGINAL_INPUT], "payload": artifact.payload}
        assert artifact.artifact_id == digest_text(canonical_json(identity))[:12]
        (block,) = read_trace(tmp_path / "traces" / f"{runner.instance.scope}.jsonl")
        assert block.events[0]["payload"] == {"call_id": "c001", "tool": "naive", "args": args, "inputs": [ORIGINAL_INPUT]}

    def test_a_reply_that_states_the_truth_leaves_it_in_no_note_or_snapshot(self, tmp_path):
        # a note holds what the comparison measured and no model text: the
        # text beside a branch's tool request is kept only in the episode's trace
        truth = [13.0, 13.5, 12.0]
        renderings = {json.dumps(truth), canonical_json(truth), json_dumps(truth)}

        def quoting(exchange):
            reply = offline_policy(exchange)
            if reply.tool_calls:
                text = f"the truth was {json.dumps(truth)}, not {canonical_json(truth)}"
                return AssistantReply(content=text, tool_calls=reply.tool_calls)
            return reply

        deps = _deps(tmp_path, PolicyGateway(quoting))
        inst = _instance(gt=truth)
        outcome = run_exploration_episode(inst, ExplorationConfig(seed=9), deps)
        assert outcome.eval_evidence
        assert json.dumps(truth).encode() in Path(outcome.trace_path).read_bytes()
        deps.store.finalize(inst.scope)
        assert deps.store.memory_state(inst.scope).rules
        root = tmp_path / "store"
        stored = [p for layer in ("notes", "snapshots") for p in sorted((root / layer).rglob("*")) if p.is_file()]
        assert len(stored) == 2
        for path in stored:
            text = path.read_text(encoding="utf-8")
            assert not any(r in text for r in renderings), path

    def test_the_note_is_the_same_whatever_a_branch_says(self, tmp_path):
        # the note is built from the evaluated outcome alone, not from the
        # text beside a branch's tool request
        def saying(text):
            def policy(exchange):
                reply = offline_policy(exchange)
                if reply.tool_calls:
                    return AssistantReply(content=text, tool_calls=reply.tool_calls)
                return reply
            return policy

        shards = []
        for run, gateway in (("plain", policy_gateway("exploration")), ("said", PolicyGateway(saying("prefer naive")))):
            deps = _deps(tmp_path / run, gateway)
            inst = _instance(gt=[13.0, 13.5, 12.0])
            outcome = run_exploration_episode(inst, ExplorationConfig(seed=9), deps)
            assert outcome.eval_evidence
            deps.store.close()
            shards.append((tmp_path / run / "store" / "notes" / f"{inst.scope}.md").read_bytes())
        assert shards[0] == shards[1]
