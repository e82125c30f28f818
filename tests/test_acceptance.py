"""Acceptance suite: every criterion at its stated tolerance, one pass/fail
line per criterion."""

from __future__ import annotations

import json
import math
import random
import statistics
import sys
from pathlib import Path

import pytest

from timeclaw import metrics
from timeclaw.cli import main as cli_main
from timeclaw.core import SealedAnswer, TaskInstance, TaskType
from timeclaw.corpus import load_samples, reveal_for_scoring
from timeclaw.gateway import (
    AssistantReply,
    PolicyGateway,
    RecordingGateway,
    ScriptedGateway,
    ToolCallRequest,
)
from timeclaw.orchestrator import (
    EpisodeDeps,
    ExplorationConfig,
    enforce_exploration_contract,
    read_trace,
    run_exploration_episode,
    run_inference,
)
from timeclaw.policy import policy_gateway
from timeclaw.registry import ToolRegistry, ToolUsageLedger, keep_probability
from timeclaw.replay import lint, replay
from timeclaw.simulate import DropoutScenario, compare_over_seeds
from timeclaw.store import (
    DISTILL_EVERY,
    MEMORY_CAP,
    CleanEvidence,
    ExperienceStore,
    LearningNote,
    MemoryState,
    update_memory,
)
from timeclaw.toolkit import builtin_toolkit
from timeclaw.util import stable_rng


@pytest.fixture
def report(capfd):
    """One console-visible pass/fail line per criterion, then the assert."""

    def _report(criterion: int, ok: bool, detail: str) -> None:
        with capfd.disabled():
            print(f"ACCEPTANCE {criterion:02d} {'PASS' if ok else 'FAIL'} - {detail}")
            sys.stdout.flush()
        assert ok, f"criterion {criterion}: {detail}"

    return _report


# -- 1: keep-probability exactness ------------------------------------------


def test_c01_keep_probability_exactness(report):
    rng = random.Random(101)
    worst = 0.0
    for _ in range(10_000):
        n_min = rng.randint(0, 10_000)
        n_i = n_min + rng.randint(0, 10_000)
        alpha = rng.uniform(0.01, 8.0)
        got = keep_probability(n_i, n_min, alpha)
        want = ((1.0 + n_min) / (1.0 + n_i)) ** alpha
        if want != 0:
            worst = max(worst, abs(got - want) / abs(want))
    cold_ok = all(keep_probability(n, n, rng.uniform(0.01, 8.0)) == 1.0 for n in (0, 3, 999))
    protected_ok = keep_probability(10**6, 0, 5.0, protected=True) == 1.0
    report(
        1,
        worst <= 1e-12 and cold_ok and protected_ok,
        f"10k samples rel err {worst:.2e}; cold edge exactly 1.0: {cold_ok}; protected 1.0: {protected_ok}",
    )


# -- 2: monotonicity ----------------------------------------------------------


def test_c02_monotonicity(report):
    rng = random.Random(202)
    strict = True
    for _ in range(10_000):
        n_j = rng.randint(0, 10_000)
        n_i = n_j + rng.randint(1, 10_000)
        n_min = rng.randint(0, n_j)
        alpha = rng.uniform(0.05, 6.0)
        if not keep_probability(n_i, n_min, alpha) < keep_probability(n_j, n_min, alpha):
            strict = False
            break
    report(2, strict, "keep(i) < keep(j) strictly for 10k random triples with n_i > n_j")


# -- 3: entropy and concentration diagnostics --------------------------------


def test_c03_entropy_and_diagnostics(report):
    ledger = ToolUsageLedger()
    uniform_ok = True
    for k in range(2, 51):
        scope = f"u{k}"
        for i in range(k):
            ledger.record(scope, [f"t{i}"])
        if abs(ledger.entropy(scope) - math.log(k)) > 1e-9:
            uniform_ok = False
    ledger.record("skew", ["a"] * 3 + ["b"])
    skew_ok = abs(ledger.entropy("skew") - 0.5623) <= 1e-4
    for tool, count in zip("abcdefg", [10, 5, 3, 2, 1, 1, 1]):
        ledger.record("top", [tool] * count)
    top_ok = abs(ledger.top_k_share("top", 5) - 21 / 23) <= 1e-12
    report(
        3,
        uniform_ok and skew_ok and top_ok,
        f"uniform k=2..50 within 1e-9: {uniform_ok}; [3,1] entropy 0.5623: {skew_ok}; top-5 share 21/23: {top_ok}",
    )


# -- 4: metric oracle equivalence ---------------------------------------------


def test_c04_metric_oracle_equivalence(report):
    rng = random.Random(404)
    worst = 0.0
    for _ in range(1000):
        n = rng.randint(1, 100)
        pred = [rng.uniform(-100, 100) for _ in range(n)]
        truth = [rng.uniform(0.5, 100) for _ in range(n)]
        oracles = {
            "mae": sum(abs(p - t) for p, t in zip(pred, truth)) / n,
            "mse": sum((p - t) ** 2 for p, t in zip(pred, truth)) / n,
            "mape": sum(abs((p - t) / t) for p, t in zip(pred, truth)) / n * 100.0,
        }
        oracles["rmse"] = math.sqrt(oracles["mse"])
        for name, want in oracles.items():
            got = getattr(metrics, name)(pred, truth)
            if want != 0:
                worst = max(worst, abs(got - want) / abs(want))
    align_ok = (
        metrics.align_length([0.0, 2.0], 3) == pytest.approx([0.0, 1.0, 2.0])
        and metrics.align_length([5.0, 7.0, 9.0], 3) == [5.0, 7.0, 9.0]
    )
    endpoints_ok = True
    for _ in range(200):
        n = rng.randint(2, 60)
        pred = [rng.uniform(-10, 10) for _ in range(n)]
        target = rng.randint(2, 90)
        out = metrics.align_length(pred, target)
        if abs(out[0] - pred[0]) > 1e-12 or abs(out[-1] - pred[-1]) > 1e-12:
            endpoints_ok = False
    report(
        4,
        worst <= 1e-12 and align_ok and endpoints_ok,
        f"1000 pairs rel err {worst:.2e}; identity/midpoint: {align_ok}; endpoints preserved: {endpoints_ok}",
    )


# -- 5: summary filtering -----------------------------------------------------


def test_c05_summary_filtering(report):
    rows = [
        metrics.MetricReport(n_points=2, mae=v, mse=v * v, rmse=v) for v in (1.0, 2.0, 1e6)
    ]
    result = metrics.summarize(
        rows, metrics.SummaryPolicy(supervision_metric="mae", threshold=100.0), scope="s"
    )
    ok = (
        result.metrics["mae"] == pytest.approx(1.5)
        and result.effective_n == 2
        and result.raw_n == 3
    )
    report(
        5, ok, f"mean mae {result.metrics['mae']}, effective_n {result.effective_n}, raw_n {result.raw_n}"
    )


# -- 6: exploration contract fixtures ----------------------------------------


def _fixture_instance():
    return TaskInstance(
        id="fx1",
        series=tuple(float(v) for v in range(1, 13)),
        task_type=TaskType.FORECAST,
        horizon=3,
        scope="synth_forecast_short",
        ground_truth=SealedAnswer([13.0, 13.0, 13.0]),
    )


def _fixture_policy(branch_answers, final_type="learning_summary"):
    def fn(exchange):
        first_user = next(m.content for m in exchange.messages if m.role == "user")
        last_user = [m.content for m in exchange.messages if m.role == "user"][-1]
        if "### Branch Goal" in first_user:
            slot = int(first_user.split("- slot = ")[1].split("\n")[0])
            return AssistantReply(
                content=json.dumps({"answer_type": "forecast", "answer": branch_answers[slot]})
            )
        if "## Comparison Result" in last_user:
            return AssistantReply(
                content=json.dumps(
                    {"answer_type": final_type, "answer": {"insight": "i", "recommendation": "r"}}
                )
            )
        if "## Candidates Ready" in last_user:
            return AssistantReply(
                content="", tool_calls=(ToolCallRequest(tool="evaluate_batch_against_gt", args={}),)
            )
        return AssistantReply(
            content="", tool_calls=(ToolCallRequest(tool="spawn_subagent", args={"n_tasks": 2}),)
        )

    return fn


def _run_fixture_via_script(tmp_path, name, policy_fn):
    """Record the policy into a digest-keyed script, then replay it through
    the scripted mock to produce the trace under test."""
    toolkit = builtin_toolkit()

    def deps_with(gateway, sub):
        return EpisodeDeps(
            registry=ToolRegistry(toolkit.descriptors(), ledger=ToolUsageLedger()),
            toolkit=toolkit,
            gateway=gateway,
            store=None,
            trace_dir=tmp_path / name / sub,
        )

    recorder = RecordingGateway(PolicyGateway(policy_fn))
    run_exploration_episode(_fixture_instance(), ExplorationConfig(seed=6), deps_with(recorder, "rec"))
    script_path = tmp_path / name / "script.json"
    recorder.save(script_path)
    scripted = ScriptedGateway.from_file(script_path)
    outcome = run_exploration_episode(
        _fixture_instance(), ExplorationConfig(seed=6), deps_with(scripted, "replayed")
    )
    header, events = read_trace(outcome.trace_path)
    return outcome, enforce_exploration_contract(header, events)


def test_c06_exploration_contract_fixtures(tmp_path, report):
    out_pass, v_pass = _run_fixture_via_script(
        tmp_path, "pass", _fixture_policy({0: [14.0, 14.0, 14.0], 1: [15.0, 15.0, 15.0]})
    )
    out_dup, v_dup = _run_fixture_via_script(
        tmp_path, "dup", _fixture_policy({0: [14.0, 14.0, 14.0], 1: [14.0, 14.0, 14.0]})
    )
    out_wrong, v_wrong = _run_fixture_via_script(
        tmp_path,
        "wrong",
        _fixture_policy({0: [14.0, 14.0, 14.0], 1: [15.0, 15.0, 15.0]}, final_type="forecast"),
    )
    out_single, v_single = _run_fixture_via_script(
        tmp_path, "single", _fixture_policy({0: [14.0, 14.0, 14.0], 1: "garbage"})
    )
    out_fail, _ = _run_fixture_via_script(
        tmp_path, "fail", _fixture_policy({0: "bad", 1: "also bad"})
    )
    verdicts_ok = (
        v_pass.satisfied
        and v_dup.violations == ("no_distinct_pair",)
        and v_wrong.violations == ("wrong_final_type",)
    )
    evidence_ok = (
        out_pass.evidence_class.value == "comparative"
        and out_single.evidence_class.value == "single_execution"
        and out_fail.evidence_class.value == "failure"
    )
    report(
        6,
        verdicts_ok and evidence_ok,
        f"verdicts pass/{v_dup.violations}/{v_wrong.violations}; "
        f"evidence {out_pass.evidence_class.value}/{out_single.evidence_class.value}/{out_fail.evidence_class.value}",
    )


# -- 7: store laws ------------------------------------------------------------


def test_c07_store_laws(tmp_path, report):
    tools = [f"t{i}" for i in range(10)]
    cap_ok = fires_ok = gapless_ok = True
    rebuild_gate_checked = False
    for stream in range(200):
        rng = stable_rng("accept7", stream)
        store = ExperienceStore(tmp_path / f"s{stream:03d}", auto_snapshot=False)
        scope = "stream_scope"
        fired_at = []
        for step in range(100):
            winner = tuple(rng.sample(tools, rng.randint(1, 2)))
            losers = tuple(t for t in rng.sample(tools, rng.randint(0, 2)) if t not in winner)
            note = LearningNote(
                scope=scope,
                instance_id=f"i{step}",
                prompt_digest="d",
                winner_tools=winner,
                loser_tools=losers,
                metrics={},
                evidence_class="comparative",
                insight="x",
                recommendation="y",
                trace_refs=(),
                applicability={"seasonal": rng.random() < 0.5, "task_subtype": "forecast"},
                eval_evidence=True,
            )
            store.commit_note(note)
            if store.maybe_trigger_distillation(scope):
                fired_at.append(step + 1)
            if len(store.memory_state(scope).rules) > MEMORY_CAP:
                cap_ok = False
        if fired_at != list(range(DISTILL_EVERY, 101, DISTILL_EVERY)):
            fires_ok = False
        if [n.sequence for n in store.notes(scope)] != list(range(1, 101)):
            gapless_ok = False

    # finalize-flush of a short tail, and fingerprint-gated downstream rebuild
    store = ExperienceStore(tmp_path / "tail", auto_snapshot=False)
    for i in range(3):
        store.commit_note(
            LearningNote(
                scope="tail_scope",
                instance_id=f"i{i}",
                prompt_digest="d",
                winner_tools=("t0",),
                loser_tools=(),
                metrics={},
                evidence_class="comparative",
                insight="x",
                recommendation="y",
                trace_refs=(),
                applicability={"task_subtype": "forecast", "seasonal": True},
                eval_evidence=True,
            )
        )
    flush_stages = store.finalize("tail_scope")
    flush_ok = "notes_to_memory" in flush_stages and store.pending_count("tail_scope") == 0
    # a batch carrying no tool stance leaves the fingerprint unchanged
    for i in range(10):
        store.commit_note(
            LearningNote(
                scope="tail_scope",
                instance_id=f"j{i}",
                prompt_digest="d",
                winner_tools=(),
                loser_tools=(),
                metrics={},
                evidence_class="single_execution",
                insight="x",
                recommendation="y",
                trace_refs=(),
                applicability={},
                eval_evidence=True,
            )
        )
    stages = store.maybe_trigger_distillation("tail_scope")
    rebuild_gate_checked = stages == ["notes_to_memory"]
    report(
        7,
        cap_ok and fires_ok and gapless_ok and flush_ok and rebuild_gate_checked,
        f"cap<=30: {cap_ok}; fires at 10ths: {fires_ok}; gapless: {gapless_ok}; "
        f"tail flush: {flush_ok}; rebuild iff fingerprint changed: {rebuild_gate_checked}",
    )


# -- 8: conflict safety -------------------------------------------------------


def _evidence(prefer=(), avoid=(), kind="tool_preference", ref="n"):
    return CleanEvidence(
        scope="s",
        kind=kind,
        applicability={"task_subtype": "forecast"},
        preferred_tools=tuple(prefer),
        avoided_tools=tuple(avoid),
        summary="s",
        rationale="r",
        note_ref=ref,
    )


def test_c08_conflict_safety(report):
    state = MemoryState()
    update_memory(state, _evidence(prefer=("holt",), ref="n1"))
    action = update_memory(state, _evidence(avoid=("holt",), kind="avoidance", ref="n2"))
    after_conflict = [r.injectable for r in state.rules]
    conflict_ok = action == "conflict" and after_conflict == [False, False]

    never_both = True
    for ref in ("n3", "n4"):
        update_memory(state, _evidence(prefer=("holt",), ref=ref))
        injectable = [r for r in state.rules if r.injectable]
        for a in injectable:
            for b in injectable:
                if set(a.preferred_tools) & set(b.avoided_tools):
                    never_both = False
    prefer_rule, avoid_rule = state.rules[0], state.rules[1]
    resolved_ok = (
        prefer_rule.injectable
        and not avoid_rule.injectable
        and avoid_rule.confidence == pytest.approx(0.25)
        and not any(c.open for c in state.conflicts)
    )
    report(
        8,
        conflict_ok and never_both and resolved_ok,
        f"conflict registers both non-injectable: {conflict_ok}; winner re-enabled, loser demoted "
        f"(c={avoid_rule.confidence}): {resolved_ok}; never simultaneously injectable: {never_both}",
    )


# -- shared end-to-end artifacts for 9, 11, 12 --------------------------------


SPEC = {
    "seed": 20,
    "families": [
        {
            "name": "szn",
            "kind": "seasonal",
            "learn_count": 300,
            "eval_count": 100,
            "length": 120,
            "horizon": 24,
            "period": 24,
            "amplitude": 5.0,
            "noise": 0.3,
        }
    ],
}


@pytest.fixture(scope="module")
def e2e(tmp_path_factory):
    root = tmp_path_factory.mktemp("e2e")
    (root / "spec.json").write_text(json.dumps(SPEC))
    assert cli_main(["gen-corpus", "--spec", str(root / "spec.json"), "--out", str(root / "corpus")]) == 0
    assert (
        cli_main(
            [
                "explore",
                "--corpus",
                str(root / "corpus" / "learning.jsonl"),
                "--store",
                str(root / "store"),
                "--seed",
                "5",
            ]
        )
        == 0
    )
    return root


# -- 9: leakage and tool exposure ---------------------------------------------


def test_c09_leakage_and_tool_exposure(e2e, tmp_path, report):
    eval_path = e2e / "corpus" / "eval.jsonl"
    instances = load_samples(eval_path, "evaluation").instances[:20]
    toolkit = builtin_toolkit()
    registry = ToolRegistry(toolkit.descriptors(), ledger=ToolUsageLedger())
    store = ExperienceStore(e2e / "store", auto_snapshot=False)

    captured_prompts: list[str] = []
    inner = policy_gateway("inference")

    class CapturingGateway:
        def complete(self, exchange):
            for m in exchange.messages:
                captured_prompts.append(m.content)
            return inner.complete(exchange)

    deps = EpisodeDeps(
        registry=registry,
        toolkit=toolkit,
        gateway=CapturingGateway(),
        store=store,
        trace_dir=tmp_path / "traces",
    )
    leak = False
    exposure_ok = True
    special = {"spawn_subagent", "evaluate_against_gt", "evaluate_batch_against_gt"}
    for inst in instances:
        result = run_inference(inst, deps)
        truth = reveal_for_scoring(inst)
        needles = [json.dumps(truth), json.dumps(truth, separators=(",", ":"))]
        needles += [repr(float(v)) for v in truth]
        trace_text = Path(result.trace_path).read_text()
        for needle in needles:
            if any(needle in p for p in captured_prompts) or needle in trace_text:
                leak = True
        header, events = read_trace(result.trace_path)
        for e in events:
            if e["kind"] == "tool_call" and e["payload"]["tool"] in special:
                exposure_ok = False
            if e["kind"] == "gateway_request" and set(e["payload"]["tools"]) & special:
                exposure_ok = False
    report(
        9,
        not leak and exposure_ok,
        f"zero ground-truth payloads across {len(instances)} inference runs: {not leak}; "
        f"inference tools disjoint from exploration-only/orchestration: {exposure_ok}",
    )


# -- 10: dropout collapse analog ----------------------------------------------


def test_c10_dropout_collapse_analog(report):
    result = compare_over_seeds(DropoutScenario(), list(range(20)))
    top_ok = all(
        on <= off + 1e-12 for on, off in zip(result.on["top_share"], result.off["top_share"])
    )
    cov_on, cov_off = result.coverage_at(50, on=True), result.coverage_at(50, on=False)
    coverage_ok = cov_on is not None and cov_off is not None and cov_on >= cov_off
    reduction_pp = result.mean_top_share_reduction() * 100
    report(
        10,
        top_ok and coverage_ok and reduction_pp >= 5.0,
        f"ON top-5 <= OFF at every prefix: {top_ok}; coverage@50 {cov_on:.2f} >= {cov_off:.2f}; "
        f"mean reduction {reduction_pp:.1f}pp >= 5pp",
    )


# -- 11: end-to-end ordering analog -------------------------------------------


def test_c11_end_to_end_ordering(e2e, tmp_path, report):
    eval_path = e2e / "corpus" / "eval.jsonl"
    with_path = tmp_path / "with.jsonl"
    noexp_path = tmp_path / "noexp.jsonl"
    assert (
        cli_main(
            ["infer", "--corpus", str(eval_path), "--store", str(e2e / "store"), "--out", str(with_path)]
        )
        == 0
    )
    assert (
        cli_main(
            [
                "infer",
                "--corpus",
                str(eval_path),
                "--store",
                str(tmp_path / "absent"),
                "--out",
                str(noexp_path),
            ]
        )
        == 0
    )
    instances = {i.id: i for i in load_samples(eval_path, "evaluation").instances}

    def mae_per_sample(path):
        out = {}
        for line in path.read_text().splitlines():
            record = json.loads(line)
            truth = reveal_for_scoring(instances[record["id"]])
            aligned = metrics.align_length([float(v) for v in record["prediction"]], len(truth))
            out[record["id"]] = metrics.mae(aligned, truth)
        return out

    with_mae = mae_per_sample(with_path)
    noexp_mae = mae_per_sample(noexp_path)
    wins = sum(1 for k in with_mae if with_mae[k] <= noexp_mae[k])
    win_rate = wins / len(with_mae)

    memory = json.loads((e2e / "store" / "memory" / "synth_forecast_short.json").read_text())
    seasonal_rules = [
        r
        for r in memory["rules"]
        if r["injectable"] and r["kind"] == "tool_preference" and "seasonal_naive" in r["preferred_tools"]
    ]
    report(
        11,
        win_rate >= 0.8 and len(seasonal_rules) >= 1,
        f"paired wins {wins}/{len(with_mae)} ({win_rate:.0%} >= 80%); mean MAE with="
        f"{statistics.mean(with_mae.values()):.3f} vs noexp={statistics.mean(noexp_mae.values()):.3f}; "
        f"{len(seasonal_rules)} injectable seasonal_naive preference rule(s)",
    )


# -- 12: determinism master gate ----------------------------------------------


def _tree_bytes(root):
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            out[str(p.relative_to(root))] = p.read_bytes()
    return out


def test_c12_determinism_master_gate(tmp_path, report):
    (tmp_path / "spec.json").write_text(
        json.dumps(
            {
                "seed": 20,
                "families": [
                    {
                        "name": "szn",
                        "kind": "seasonal",
                        "learn_count": 40,
                        "eval_count": 0,
                        "length": 120,
                        "horizon": 24,
                        "period": 24,
                    }
                ],
            }
        )
    )
    assert cli_main(["gen-corpus", "--spec", str(tmp_path / "spec.json"), "--out", str(tmp_path / "c")]) == 0
    # record the deterministic policy into a digest-keyed mock script, then
    # run the exploration twice from that script alone
    script = tmp_path / "script.json"
    assert (
        cli_main(
            [
                "explore",
                "--corpus",
                str(tmp_path / "c" / "learning.jsonl"),
                "--store",
                str(tmp_path / "rec" / "store"),
                "--seed",
                "7",
                "--record-script",
                str(script),
            ]
        )
        == 0
    )
    trees = []
    for run in ("a", "b"):
        assert (
            cli_main(
                [
                    "explore",
                    "--corpus",
                    str(tmp_path / "c" / "learning.jsonl"),
                    "--store",
                    str(tmp_path / run / "store"),
                    "--seed",
                    "7",
                    "--mock-script",
                    str(script),
                ]
            )
            == 0
        )
        trees.append(_tree_bytes(tmp_path / run / "store"))
    identical = trees[0] == trees[1]
    divergences = 0
    traces = sorted((tmp_path / "a" / "store" / "traces").glob("*.jsonl"))
    for trace in traces:
        divergences += len(replay(trace).divergences)
        assert lint(trace).contract is not None
    report(
        12,
        identical and divergences == 0 and len(traces) == 40,
        f"byte-identical store trees: {identical}; replay divergences over {len(traces)} traces: {divergences}",
    )
