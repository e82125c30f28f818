from __future__ import annotations

import gc
import json
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import pytest

from timeclaw import __version__, prompts, seriesops
from timeclaw.core import EvidenceClass, SealedAnswer, TaskInstance, TaskType
from timeclaw.corpus import generate_sample
from timeclaw.errors import ContractError, GatewayError, ScriptMissError
from timeclaw.gateway import AssistantReply, Gateway, PolicyGateway, ScriptedGateway, ToolCallRequest
from timeclaw.orchestrator import (
    BranchSlot,
    EpisodeDeps,
    ExplorationConfig,
    TraceLog,
    TraceWriter,
    _EpisodeRunner,
    assign_branch_slots,
    enforce_exploration_contract,
    read_trace,
    run_exploration_episode,
    run_inference,
)
from timeclaw.policy import exploration_policy, inference_policy, policy_gateway
from timeclaw.registry import ToolRegistry, ToolUsageLedger
from timeclaw.replay import lint, replay
from timeclaw.store import ExperienceStore
from timeclaw.toolkit import ORIGINAL_INPUT, builtin_toolkit
from timeclaw.util import canonical_json, digest_text


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
    registry = ToolRegistry(toolkit.descriptors(), ledger=ToolUsageLedger(tmp_path / "ledger.json"))
    store = ExperienceStore(tmp_path / "store") if with_store else None
    return EpisodeDeps(
        registry=registry,
        toolkit=toolkit,
        gateway=gateway,
        store=store,
        trace_dir=tmp_path / "traces",
    )


def _scripted_branch_policy(branch_answers, final_type="learning_summary", evaluate=True, eval_args=None):
    """Build a deterministic policy that forces specific branch behavior.

    branch_answers: slot -> (tool or None, final answer payload)
    eval_args: the arguments of the main agent's evaluate_batch_against_gt call
    """

    def fn(exchange):
        first_user = next(m.content for m in exchange.messages if m.role == "user")
        last_user = [m.content for m in exchange.messages if m.role == "user"][-1]
        if "### Branch Goal" in first_user:
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
        if "## Comparison Result" in last_user:
            return AssistantReply(
                content=json.dumps(
                    {
                        "answer_type": final_type,
                        "answer": {"insight": "i", "recommendation": "r"},
                    }
                )
            )
        if "## Candidates Ready" in last_user:
            if evaluate:
                return AssistantReply(
                    content="",
                    tool_calls=(ToolCallRequest(tool="evaluate_batch_against_gt", args=eval_args or {}),),
                )
            return AssistantReply(content="skipping evaluation")
        return AssistantReply(
            content="", tool_calls=(ToolCallRequest(tool="spawn_subagent", args={"n_tasks": 2}),)
        )

    return PolicyGateway(fn)


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

    def test_failure_episode_commits_no_note(self, tmp_path):
        inst = _instance(gt=[13.0, 13.0, 13.0])
        gw = _scripted_branch_policy({0: (None, "bad"), 1: (None, "also bad")})
        deps = _deps(tmp_path, gw)
        run_exploration_episode(inst, ExplorationConfig(seed=3), deps)
        assert deps.store.notes(inst.scope) == []

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

    def test_gateway_error_on_main_exchange_degrades_to_failure(self, tmp_path):
        class Down(Gateway):
            def complete(self, exchange):
                raise GatewayError("backend went away")

        inst = _instance(gt=[13.0, 13.0, 13.0])
        outcome = run_exploration_episode(inst, ExplorationConfig(seed=3), _deps(tmp_path, Down()))  # must not raise
        assert outcome.evidence_class == EvidenceClass.FAILURE
        assert outcome.winner is None

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
        counts = deps.registry.ledger.counts(inst.scope)
        assert counts == {"naive": 1, "drift": 1}


def _branch_loop_policy(branch_fn):
    """The built-in exploration policy for the main exchanges; branch turns
    go to branch_fn(slot, exchange)."""

    def fn(exchange):
        first_user = next(m.content for m in exchange.messages if m.role == "user")
        if "### Branch Goal" in first_user:
            return branch_fn(int(first_user.split("- slot = ")[1].split("\n")[0]), exchange)
        return exploration_policy(exchange)

    return PolicyGateway(fn)


def _forecast_reply(answer):
    return AssistantReply(content=json.dumps({"answer_type": "forecast", "answer": answer}))


class TestBranchLoop:
    def _run(self, tmp_path, branch_fn, monkeypatch=None, visible=None):
        deps = _deps(tmp_path, _branch_loop_policy(branch_fn))
        if visible is not None:
            monkeypatch.setattr(
                deps.registry, "sample_visible_subset", lambda *a, **k: frozenset(visible)
            )
        outcome = run_exploration_episode(_instance(gt=[13.0] * 3), ExplorationConfig(seed=3), deps)
        [block] = read_trace(outcome.trace_path)
        return outcome, block.events

    @pytest.mark.parametrize(
        "tool, error",
        [("spawn_subagent", "not_available_in_branch"), ("holt", "tool_not_visible")],
    )
    def test_rejected_request_gets_feedback_not_execution(self, tmp_path, monkeypatch, tool, error):
        feedback = []

        def branch_fn(slot, exchange):
            last = exchange.messages[-1]
            if last.role == "user":
                return AssistantReply(content="", tool_calls=(ToolCallRequest(tool=tool, args={}),))
            feedback.append(last.content)
            return _forecast_reply([13.0] * 3)

        outcome, events = self._run(tmp_path, branch_fn, monkeypatch, visible={"naive", "drift"})
        expected = json.dumps({"error": error, "tool": tool}, separators=(",", ":"))
        assert feedback == [expected, expected]  # one per branch
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
        assert all(r["payload"]["message"] == "unknown argument(s): _inputs" for r in results)
        assert all(c.valid for c in outcome.candidates)
        assert replay(outcome.trace_path)[0].clean

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

    def test_wrong_final_type_detected(self, tmp_path):
        gw = _scripted_branch_policy(
            {0: (None, [14.0] * 3), 1: ("naive", [15.0] * 3)}, final_type="forecast"
        )
        verdict = self._run_and_lint(tmp_path, gw)
        assert verdict.violations == ("wrong_final_type",)

    def test_skipped_evaluation_flags_no_comparison(self, tmp_path):
        gw = _scripted_branch_policy(
            {0: (None, [14.0] * 3), 1: ("naive", [15.0] * 3)}, evaluate=False
        )
        verdict = self._run_and_lint(tmp_path, gw)
        assert "no_comparison" in verdict.violations

    def test_answers_differing_within_tolerance_are_not_distinct(self, tmp_path):
        gw = _scripted_branch_policy(
            {0: (None, [14.0, 14.0, 14.0]), 1: (None, [14.0, 14.0, 14.0 + 1e-12])}
        )
        verdict = self._run_and_lint(tmp_path, gw)
        assert "no_distinct_pair" in verdict.violations

    def test_an_evaluation_that_failed_is_no_comparison_at_runtime_and_under_lint(self, tmp_path):
        # the call names both branches, but one answer does not score, so the
        # toolkit returns an error artifact and no branch was evaluated
        inst = _instance(gt=[13.0, 13.0, 13.0])
        candidates = {f"{inst.id}#b0": [14.0] * 3, f"{inst.id}#b1": "garbage"}
        gw = _scripted_branch_policy(
            {0: (None, [14.0] * 3), 1: ("naive", [15.0] * 3)}, eval_args={"candidates": candidates}
        )
        outcome = run_exploration_episode(inst, ExplorationConfig(seed=3), _deps(tmp_path, gw))
        [block] = read_trace(outcome.trace_path)
        [runtime] = [e["payload"] for e in block.events if e["kind"] == "verdict" and e["payload"]["type"] == "contract"]
        linted = enforce_exploration_contract(block.header, block.events)
        assert runtime["violations"] == ["no_comparison"]
        assert (linted.satisfied, list(linted.violations)) == (runtime["satisfied"], runtime["violations"])
        [report] = lint(outcome.trace_path)
        assert report.contract == linted


class TestBranchSlots:
    def _registry(self, tmp_path):
        toolkit = builtin_toolkit()
        return ToolRegistry(toolkit.descriptors(), ledger=ToolUsageLedger())

    def test_fresh_scope_distinct_hints(self, tmp_path):
        inst = _instance(gt=[13.0] * 3)
        slots = assign_branch_slots(
            inst, ExplorationConfig(seed=1), False, self._registry(tmp_path), None, episode_seed=5
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
                inst, ExplorationConfig(seed=seed), False, registry, None, episode_seed=seed
            ):
                assert slot.hint in slot.visible_tools

    def test_exactly_two_competitors_pigeonhole(self):
        from timeclaw.registry import ToolCategory, ToolDescriptor

        registry = ToolRegistry(
            [
                ToolDescriptor(tool_id="naive", category=ToolCategory.FORECASTING),
                ToolDescriptor(tool_id="drift", category=ToolCategory.FORECASTING),
            ],
            ledger=ToolUsageLedger(),
        )
        inst = _instance(gt=[13.0] * 3)
        for seed in range(20):
            slots = assign_branch_slots(
                inst, ExplorationConfig(seed=seed), False, registry, None, episode_seed=seed
            )
            assert {slots[0].hint, slots[1].hint} == {"naive", "drift"}


class TestInference:
    def test_empty_store_baseline_forecast(self, tmp_path):
        inst = _instance(gt=[13.0] * 3)
        deps = _deps(tmp_path, PolicyGateway(inference_policy), with_store=False)
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
        deps = _deps(tmp_path, PolicyGateway(inference_policy), with_store=False)
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
        deps = _deps(tmp_path, PolicyGateway(inference_policy), with_store=False)
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
        deps = _deps(tmp_path, PolicyGateway(inference_policy), with_store=False)
        result = run_inference(inst, deps)
        assert result.prediction in inst.label_space

    def test_no_store_or_ledger_writes(self, tmp_path):
        inst = _instance(gt=[13.0] * 3)
        deps = _deps(tmp_path, PolicyGateway(inference_policy), with_store=True)
        digest_before = deps.store.tree_digest()
        run_inference(inst, deps)
        assert deps.store.tree_digest() == digest_before
        assert deps.registry.ledger.counts(inst.scope) == {}

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
                    tool_calls=(ToolCallRequest(tool="evaluate_against_gt", args={}),),
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
        assert feedback == ['{"error":"tool_not_available","tool":"evaluate_against_gt"}']
        assert result.prediction == [1.0, 1.0, 1.0]


class TestToolExposure:
    def test_exploration_minus_inference_is_exactly_the_special_categories(self, tmp_path):
        toolkit = builtin_toolkit()
        registry = ToolRegistry(toolkit.descriptors(), ledger=ToolUsageLedger())
        exploration = set(registry.exploration_visible())
        inference = set(registry.inference_visible())
        special = {
            d.tool_id
            for d in toolkit.descriptors()
            if d.category.value in ("exploration_only", "orchestration")
        }
        assert exploration - inference == special

    def test_inference_trace_never_contains_ground_truth(self, tmp_path):
        gt = [13.577, 14.211, 15.903]
        inst = _instance(gt=gt)
        deps = _deps(tmp_path, PolicyGateway(inference_policy), with_store=False)
        result = run_inference(inst, deps)
        trace_text = Path(result.trace_path).read_text()
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
            return inference_policy(exchange)

        def deps(trace_dir):
            toolkit = builtin_toolkit()
            return EpisodeDeps(
                registry=ToolRegistry(toolkit.descriptors()),
                toolkit=toolkit,
                gateway=PolicyGateway(spy),
                store=ExperienceStore(tmp_path / "explore" / "store"),
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
            texts.append(Path(outcome.trace_path).read_text())
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
        instance = {"id": "x", "series": [1.0, 2.0], "task_type": "forecast", "scope": "s", "horizon": 1}

        def write(worker: int) -> None:
            for n in range(40):
                header = {"version": __version__, "mode": "exploration", "episode": f"w{worker}.{n}", "instance": instance}
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
        calls = _count_calls(monkeypatch, ["dominant_period", "profile"])
        outcome = run_exploration_episode(inst, ExplorationConfig(seed=9), _deps(tmp_path / "a", policy_gateway("exploration")))
        assert len(outcome.candidates) == 2  # main and both branch prompts were built
        assert batches == [["e1"]] and calls == []
        given = run_exploration_episode(inst, ExplorationConfig(seed=9), _deps(tmp_path / "b", policy_gateway("exploration")), fp)
        assert batches == [["e1"]]
        assert given.candidates == outcome.candidates
        assert _trace_bytes(tmp_path / "b") == _trace_bytes(tmp_path / "a")

    def test_inference_profiles_once(self, tmp_path, monkeypatch):
        inst = _instance()
        fp = prompts.fingerprint(inst)
        batches = _count_profiled(monkeypatch)
        calls = _count_calls(monkeypatch, ["dominant_period", "profile"])
        result = run_inference(inst, _deps(tmp_path / "a", PolicyGateway(inference_policy)))
        assert batches == [["e1"]] and calls == []
        given = run_inference(inst, _deps(tmp_path / "b", PolicyGateway(inference_policy)), fp=fp)
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
        tools = [{"name": "naive", "description": ""}]
        prompts.build_exploration_prompt(inst, fp, None, [slot], tools)
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
        assert len(outcome.candidates) == 2  # main and both branch prompts were built
        assert sorted(calls) == ["_fingerprint_lines", "_profiling_lines", "_series_preview"]

    def test_a_prompt_from_a_rendered_sample_reads_as_from_a_fresh_one(self):
        inst = _instance(gt=[13.0] * 3)
        fp = prompts.fingerprint(inst)
        slot = BranchSlot(slot=0, goal="g", hint="naive", visible_tools=frozenset({"naive"}))
        tools = [{"name": "naive", "description": ""}]
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

    def test_an_empty_summary_leaves_nothing_to_redact(self, tmp_path):
        deps = _deps(tmp_path, policy_gateway("exploration"))
        outcome = run_exploration_episode(_instance(gt=[13.0] * 3), ExplorationConfig(seed=9), deps)
        assert outcome.eval_evidence
        assert (outcome.learning_summary.insight, outcome.learning_summary.recommendation) == ("", "")
        assert outcome.sensitive == ()

    def test_a_summary_that_quotes_the_truth_is_stored_redacted(self, tmp_path):
        truth = [13.0, 13.5, 12.0]

        def quoting(exchange):
            reply = exploration_policy(exchange)
            if "## Comparison Result" in exchange.messages[-1].content:
                summary = {"insight": f"the truth was {json.dumps(truth)}", "recommendation": f"not {canonical_json(truth)}"}
                return AssistantReply(content=json.dumps({"answer_type": "learning_summary", "answer": summary}))
            return reply

        deps = _deps(tmp_path, PolicyGateway(quoting))
        inst = _instance(gt=truth)
        outcome = run_exploration_episode(inst, ExplorationConfig(seed=9), deps)
        assert json.dumps(truth) in outcome.sensitive and canonical_json(truth) in outcome.sensitive
        (note,) = deps.store.notes(inst.scope)
        assert (note.insight, note.recommendation) == ("the truth was [redacted]", "not [redacted]")
