"""The engine against a hostile model: a gateway whose replies are drawn from
the whole reply grammar, not from what a sensible model would send. Declared
and unknown tools, any JSON arguments, any number of calls per reply, and
any final, well-formed or not. Whatever it sends, ``explore`` and ``infer``
finish (exit 0, or 3 when a sample fails), every file they write is strict
JSON, every trace replays and lints, the same replies write the same bytes,
and no trace line grows past what the largest allowed series needs."""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from timeclaw import cli
from timeclaw.corpus import generate_synthetic_corpus, load_samples
from timeclaw.gateway import AssistantReply, ChatExchange, PolicyGateway, exchange_digest, reply_from_dict
from timeclaw.replay import lint, replay
from timeclaw.toolkit import ORIGINAL_INPUT, builtin_toolkit

# A trace line holds at most one series artifact, and a series is at most
# ``horizon``'s maximum of 10,000 values, each at most 24 characters (a
# double's repr) and a comma; the rest of a line holds no model text longer
# than the replies drawn below.
MAX_TRACE_LINE = 10_000 * 25 + 8_192

_CATALOG = builtin_toolkit()
ARG_NAMES = sorted({name for t in _CATALOG.tool_ids() for name in _CATALOG.tool_schema(t)["parameters"]["properties"]})

SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-(10**12), 10**12)
    | st.sampled_from([0, 1, 2, 24, 10_000, 10_001, 10**9, ORIGINAL_INPUT, "up", "down", "flat"])
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8)
)
JSON_VALUES = st.recursive(
    SCALARS, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8,
)
# any arguments, or ones a forecast tool runs on, up to the longest series
ARGS = st.dictionaries(st.sampled_from(ARG_NAMES) | st.text(max_size=6), JSON_VALUES, max_size=4) | st.fixed_dictionaries(
    {"horizon": st.sampled_from([1, 12, 10_000, 10_001]) | st.integers(1, 10_000)},
    optional={"period": st.integers(0, 60), "_inputs": st.lists(st.sampled_from([ORIGINAL_INPUT, "c001"]), max_size=2)},
)
# a tool is a declared one, by its index in the exchange's list, or a name:
# a catalog tool's, which the exchange may not declare, or any other
TOOLS = (
    st.integers(0, 40)
    | st.sampled_from([*_CATALOG.tool_ids(), "evaluate_batch_against_gt", "spawn_subagent"])
    | st.text(max_size=8)
)
FINALS = st.none() | st.text(max_size=12) | st.fixed_dictionaries(
    {"answer_type": st.sampled_from(["forecast", "indicator", "trend", "trend_past", "correlation", "mcqa"]) | st.text(max_size=6)},
    optional={"answer": JSON_VALUES, "answer_from": TOOLS, "reasoning": st.text(max_size=8)},
)
REPLIES = st.lists(st.tuples(st.lists(st.tuples(TOOLS, ARGS), max_size=3), FINALS), min_size=1, max_size=6)

SPEC = {
    "families": [
        {"name": "seasonal", "kind": "seasonal", "learn_count": 1, "eval_count": 1, "length": 48, "horizon": 12, "period": 12},
        {"name": "trending", "kind": "trending", "learn_count": 1, "eval_count": 1, "length": 48, "horizon": 12},
        {"name": "trend_label", "kind": "trend_label", "learn_count": 1, "eval_count": 1, "length": 48, "horizon": 12},
        {"name": "indicator", "kind": "indicator", "learn_count": 1, "eval_count": 1, "length": 48, "horizon": 12},
    ]
}


def hostile_gateway(replies) -> PolicyGateway:
    """Answers each exchange with the drawn reply its digest picks, its tools
    resolved against what the exchange declares, and admitted as a remote
    reply is (``reply_from_dict``)."""

    def tool(ref, exchange: ChatExchange) -> str:
        if isinstance(ref, int):
            names = exchange.declared_tools.names
            return names[ref % len(names)] if names else str(ref)
        return ref

    def reply(exchange: ChatExchange) -> AssistantReply:
        calls, final = replies[int(exchange_digest(exchange), 16) % len(replies)]
        if isinstance(final, dict) and "answer_from" in final:
            final = {**final, "answer_from": tool(final["answer_from"], exchange)}
        content = json.dumps(final) if isinstance(final, dict) else final
        data = {"content": content, "tool_calls": [{"tool": tool(ref, exchange), "args": args} for ref, args in calls]}
        return reply_from_dict(data, "the hostile reply")

    return PolicyGateway(reply)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("hostile") / "corpus"
    generate_synthetic_corpus(SPEC, out, seed=3)
    return out


def _strict(text: str) -> None:
    def refuse(token):
        raise ValueError(f"{token} is not strict JSON")

    json.loads(text, parse_constant=refuse)


def _run(corpus: Path, root: Path) -> dict[str, bytes]:
    """Explore then infer under the hostile model; every file written, by path."""
    store, pred = root / "run" / "store", root / "run" / "infer" / "pred.jsonl"
    assert cli.main(["explore", "--corpus", str(corpus / "learning.jsonl"), "--store", str(store), "--seed", "4"]) in (0, 3)
    assert cli.main(["infer", "--corpus", str(corpus / "eval.jsonl"), "--store", str(store), "--out", str(pred)]) in (0, 3)
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(replies=REPLIES)
@example(replies=[([("drift", {"horizon": 10_000})], {"answer_type": "forecast", "answer_from": "drift"})])  # the longest series
def test_no_reply_stops_a_run_or_breaks_what_it_writes(corpus, monkeypatch, capsys, replies):
    monkeypatch.setattr(cli, "policy_gateway", lambda _name: hostile_gateway(replies))
    runs = []
    for _ in range(2):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            files = _run(corpus, root)
            traces = sorted(root.glob("run/store/traces/*.jsonl")) + sorted(root.glob("run/infer/traces_infer/*.jsonl"))
            assert traces
            for path in traces:
                name, role = ("learning", "learning") if path.parent.name == "traces" else ("eval", "evaluation")
                samples = load_samples(corpus / f"{name}.jsonl", role).instances
                assert all(report.clean for report in replay(path, samples)), path
                lint(path)  # a malformed log raises; a finding is the model's fault
            # the summaries name their run's paths, so the comparison leaves them out
            runs.append({name: data for name, data in files.items() if not name.endswith("_summary.json")})
            for name, data in files.items():
                if name.endswith(".json"):
                    _strict(data.decode("utf-8"))
                elif name.endswith(".jsonl"):
                    lines = data.decode("utf-8").split("\n")
                    assert lines.pop() == "" and all(_strict(line) is None for line in lines)
                    if "traces" in name:
                        assert max(map(len, data.split(b"\n"))) <= MAX_TRACE_LINE, name
    assert runs[0] == runs[1]
    capsys.readouterr()
