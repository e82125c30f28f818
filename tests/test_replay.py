from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from timeclaw.cli import main
from timeclaw.corpus import write_samples
from timeclaw.core import SealedAnswer, TaskInstance, TaskType
from timeclaw.errors import ReplayError
from timeclaw.orchestrator import (
    EpisodeDeps, ExplorationConfig, candidate_answers, read_trace, run_exploration_episode, run_inference,
)
from timeclaw.policy import policy_gateway
from timeclaw.replay import lint, replay
from timeclaw.store import ExperienceStore
from timeclaw.toolkit import builtin_toolkit

from test_trace_golden import golden_samples


def _instance(gt=(13.0, 13.0, 13.0)):
    return TaskInstance(
        id="rp1",
        series=tuple(float(v) for v in range(1, 13)),
        task_type=TaskType.FORECAST,
        horizon=3,
        scope="synth_forecast_short",
        ground_truth=SealedAnswer(list(gt)),
    )


@pytest.fixture
def exploration_trace(tmp_path):
    toolkit = builtin_toolkit()
    store = ExperienceStore(tmp_path / "store")
    deps = EpisodeDeps(
        toolkit=toolkit,
        gateway=policy_gateway("exploration"),
        store=store,
        trace_dir=tmp_path / "traces",
    )
    outcome = run_exploration_episode(_instance(), ExplorationConfig(seed=4), deps)
    return Path(outcome.trace_path)


class TestReplay:
    def test_untouched_trace_is_divergence_free(self, exploration_trace):
        [report] = replay(exploration_trace, [_instance()])
        assert report.clean
        assert report.events > 0

    def test_mutated_tool_result_yields_exactly_one_divergence(self, exploration_trace, tmp_path):
        lines = exploration_trace.read_text(encoding="utf-8").splitlines()
        mutated = []
        hits = 0
        for line in lines:
            record = json.loads(line)
            if not hits and record.get("kind") == "tool_result":
                payload = record["payload"]["artifact"]["payload"]
                if "values" in payload:
                    payload["values"][0] += 1.0
                    hits = 1
            mutated.append(json.dumps(record, sort_keys=True, separators=(",", ":")))
        target = tmp_path / "mutated.jsonl"
        target.write_text("\n".join(mutated) + "\n", encoding="utf-8")
        [report] = replay(target, [_instance()])
        assert len(report.divergences) == 1
        assert report.divergences[0].kind == "artifact_mismatch"

    def test_changed_call_args_with_the_same_result_still_diverge(self, exploration_trace, tmp_path):
        # the artifact id digests the call's tool, args and inputs as well as
        # its payload, so a recorded call that differs only in an argument
        # left at its default no longer matches its recorded result
        lines = exploration_trace.read_text(encoding="utf-8").splitlines()
        mutated = []
        for line in lines:
            record = json.loads(line)
            if record.get("kind") == "tool_call" and record["payload"]["tool"] == "holt":
                record["payload"]["args"]["alpha"] = 0.3
            mutated.append(json.dumps(record, sort_keys=True, separators=(",", ":")))
        target = tmp_path / "default_arg.jsonl"
        target.write_text("\n".join(mutated) + "\n", encoding="utf-8")
        [report] = replay(target, [_instance()])
        assert [d.kind for d in report.divergences] == ["artifact_mismatch"]

    def test_unregistered_tool_is_structured_divergence(self, exploration_trace, tmp_path):
        lines = exploration_trace.read_text(encoding="utf-8").splitlines()
        mutated = []
        for line in lines:
            record = json.loads(line)
            if record.get("kind") == "tool_call":
                record["payload"]["tool"] = "ghost_tool"
            mutated.append(json.dumps(record, sort_keys=True, separators=(",", ":")))
        target = tmp_path / "ghost.jsonl"
        target.write_text("\n".join(mutated) + "\n", encoding="utf-8")
        [report] = replay(target, [_instance()])
        assert any(d.kind == "unknown_tool" for d in report.divergences)

    def test_version_mismatch_is_refused_with_both_tags(self, exploration_trace, tmp_path):
        lines = exploration_trace.read_text(encoding="utf-8").splitlines()
        header = json.loads(lines[0])
        header["version"] = "0.0.0-other"
        target = tmp_path / "old.jsonl"
        target.write_text("\n".join([json.dumps(header, sort_keys=True)] + lines[1:]) + "\n", encoding="utf-8")
        with pytest.raises(ReplayError, match="0.0.0-other"):
            replay(target, [_instance()])


def _answering(values=(13.0, 12.0)):
    """A policy whose two branches call no tool and forecast ``values[slot]``
    three times."""
    from timeclaw.gateway import AssistantReply, PolicyGateway

    def fn(exchange):
        first_user = next(m.content for m in exchange.messages if m.role == "user")
        value = values[0] if "- slot = 0" in first_user else values[1]
        return AssistantReply(content=json.dumps({"answer_type": "forecast", "answer": [value] * 3}))

    return PolicyGateway(fn)


class TestEvaluateCall:
    """The engine's evaluate call names no answer: its ``tool_call`` line
    records empty arguments, the tool scores the valid candidates' answers,
    and replay scores them again, rebuilt from the branches' final
    messages."""

    def test_replays_divergence_free_from_the_branches_answers(self, tmp_path):
        deps = EpisodeDeps(toolkit=builtin_toolkit(), gateway=_answering(), trace_dir=tmp_path / "traces")
        outcome = run_exploration_episode(_instance(), ExplorationConfig(seed=4), deps)
        [block] = read_trace(outcome.trace_path)
        [call] = [e for e in block.events if e["kind"] == "tool_call"]
        [result] = [e["payload"]["artifact"] for e in block.events if e["kind"] == "tool_result"]
        assert (call["branch"], call["payload"]["tool"], call["payload"]["args"]) == (None, "evaluate_batch_against_gt", {})
        assert sorted(result["payload"]["reports"]) == ["rp1#b0", "rp1#b1"]
        [report] = replay(outcome.trace_path, [_instance()])
        assert report.clean, report.to_dict()

    def test_a_call_edited_to_name_its_own_answers_diverges(self, tmp_path):
        deps = EpisodeDeps(toolkit=builtin_toolkit(), gateway=_answering(), trace_dir=tmp_path / "traces")
        path = Path(run_exploration_episode(_instance(), ExplorationConfig(seed=4), deps).trace_path)
        lines = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        for line in lines:
            if line.get("kind") == "tool_call":
                line["payload"]["args"] = {"candidates": {"rp1#b0": [12.0] * 3, "rp1#b1": [13.0] * 3}}
        path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
        [report] = replay(path, [_instance()])
        assert [d.kind for d in report.divergences] == ["artifact_mismatch"]


def _naive_then_drift(named):
    """A policy whose branches each call naive, then drift, in one reply,
    slot ``s`` answering from the artifact of ``named[s]``."""
    from timeclaw.gateway import AssistantReply, PolicyGateway, ToolCallRequest

    def fn(exchange):
        first_user = next(m.content for m in exchange.messages if m.role == "user")
        source = named[0] if "- slot = 0" in first_user else named[1]
        final = {"answer_type": "forecast", "answer_from": source, "reasoning": f"{source} continuation"}
        calls = tuple(ToolCallRequest(tool=tool, args={"horizon": 3}) for tool in ("naive", "drift"))
        return AssistantReply(content=json.dumps(final), tool_calls=calls)

    return PolicyGateway(fn)


class TestMultiCallBranch:
    """A branch's one reply calls naive, then drift, and answers from one of
    them: lint and replay read the answer from the named call's artifact."""

    NAIVE, DRIFT = [12.0] * 3, [13.0, 14.0, 15.0]

    def _explore(self, tmp_path, named):
        deps = EpisodeDeps(toolkit=builtin_toolkit(), gateway=_naive_then_drift(named), trace_dir=tmp_path / "traces")
        outcome = run_exploration_episode(_instance(), ExplorationConfig(seed=4), deps)
        assert outcome.gateway_calls == 2 and all(c.substantive_chain == ("naive", "drift") for c in outcome.candidates)
        return outcome

    def test_a_mutated_second_call_result_is_one_divergence(self, tmp_path):
        # the evaluate call is rebuilt from the re-executed drift artifact,
        # so it does not diverge a second time
        outcome = self._explore(tmp_path, ("drift", "drift"))
        assert [c.final_answer for c in outcome.candidates] == [self.DRIFT] * 2
        header, *events = [json.loads(line) for line in Path(outcome.trace_path).read_text(encoding="utf-8").splitlines()]
        drift = next(e["payload"]["call_id"] for e in events if e["kind"] == "tool_call" and e["payload"]["tool"] == "drift")
        [index] = [i for i, e in enumerate(events) if e["kind"] == "tool_result" and e["payload"]["call_id"] == drift]
        events[index]["payload"]["artifact"]["payload"]["values"][0] += 1.0
        target = tmp_path / "mutated.jsonl"
        target.write_text("".join(json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n" for r in [header, *events]),
                          encoding="utf-8")
        [report] = replay(target, [_instance()])
        assert [(d.index, d.kind) for d in report.divergences] == [(index, "artifact_mismatch")]

    def test_lint_reads_the_named_calls_artifact_not_the_first_calls(self, tmp_path):
        # both branches run the same chain: only the answers, drift's on one
        # and naive's on the other, tell the pair apart
        outcome = self._explore(tmp_path, ("drift", "naive"))
        [block] = read_trace(outcome.trace_path)
        assert candidate_answers("rp1", block.events) == {"rp1#b0": self.DRIFT, "rp1#b1": self.NAIVE}
        [recorded] = [e["payload"] for e in block.events if e["kind"] == "verdict" and e["payload"]["type"] == "contract"]
        [report] = lint(outcome.trace_path)
        assert recorded["satisfied"] and report.clean


class TestLint:
    def test_compliant_exploration_trace_is_clean(self, exploration_trace):
        [report] = lint(exploration_trace)
        assert report.mode == "exploration"
        assert report.contract is not None and report.contract.satisfied
        assert report.clean

    @pytest.mark.parametrize("values, violations", [((13.0, 12.0), []), ((13.0, 13.0), ["no_distinct_pair"])])
    def test_a_distinct_pair_is_judged_on_the_branches_final_answers(self, tmp_path, values, violations):
        # both branches call no tool, so only their answers can tell them apart
        toolkit = builtin_toolkit()
        deps = EpisodeDeps(
            toolkit=toolkit,
            gateway=_answering(values),
            trace_dir=tmp_path / "traces",
        )
        outcome = run_exploration_episode(_instance(), ExplorationConfig(seed=4), deps)
        [block] = read_trace(outcome.trace_path)
        [recorded] = [e["payload"] for e in block.events if e["kind"] == "verdict" and e["payload"]["type"] == "contract"]
        [report] = lint(outcome.trace_path)
        assert recorded["violations"] == list(report.contract.violations) == violations

    def test_injected_leak_is_found(self, tmp_path):
        toolkit = builtin_toolkit()
        deps = EpisodeDeps(
            toolkit=toolkit,
            gateway=policy_gateway("inference"),
            store=None,
            trace_dir=tmp_path / "ti",
        )
        result = run_inference(_instance(gt=(99.123, 98.456, 97.789)), deps)
        [clean_report] = lint(result.trace_path, forbidden_substrings=["99.123"])
        assert clean_report.clean  # inference traces never contain the target
        # now inject a fault: an event whose payload leaks the target, inside
        # the episode's block (before its closing outcome event)
        path = Path(result.trace_path)
        lines = path.read_text(encoding="utf-8").splitlines()
        leak = '{"branch":null,"kind":"gateway_response","payload":{"reply":{"content":"gt was 99.123"}}}'
        path.write_text("\n".join([*lines[:-1], leak, lines[-1]]) + "\n", encoding="utf-8")
        [dirty] = lint(path, forbidden_substrings=["99.123"])
        assert not dirty.clean
        assert dirty.leaks == [{"line": len(lines), "needle_head": "99.123"}]


GOLDEN = Path(__file__).parent / "data" / "traces"
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@pytest.fixture(scope="module")
def golden_corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "corpus.jsonl"
    write_samples(golden_samples(), path)
    return path


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(["exploration.jsonl", "inference.jsonl"]), data=st.data())
def test_a_mutated_golden_is_reported_on_or_refused_never_a_traceback(name, data, tmp_path_factory, golden_corpus):
    """One random mutation of a golden trace: a field of a header, an event
    or an event payload deleted or set to any JSON, or a line cut short.
    ``replay`` (against the goldens' corpus) and ``lint`` report on it (exit
    0 or 1) or refuse it (exit 2); they never raise."""
    lines = [json.loads(line) for line in (GOLDEN / name).read_text(encoding="utf-8").splitlines()]
    texts = [json.dumps(line) for line in lines]
    n = data.draw(st.integers(0, len(lines) - 1))
    if data.draw(st.integers(0, 4)) == 0:
        texts[n] = texts[n][: data.draw(st.integers(0, len(texts[n]) - 1))]
    else:
        record = lines[n]
        nested = [key for key in ("payload",) if isinstance(record.get(key), dict)]
        target = record[data.draw(st.sampled_from(nested))] if nested and data.draw(st.booleans()) else record
        key = data.draw(st.sampled_from(sorted(target)))
        if data.draw(st.booleans()):
            del target[key]
        else:
            target[key] = data.draw(JSON_VALUES)
        texts[n] = json.dumps(record)
    path = tmp_path_factory.mktemp("mutated") / name
    path.write_text("".join(text + "\n" for text in texts), encoding="utf-8")
    assert main(["replay", "--trace", str(path), "--corpus", str(golden_corpus)]) in (0, 1, 2)
    assert main(["lint", "--trace", str(path)]) in (0, 1, 2)
