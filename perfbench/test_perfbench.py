"""Tests for the benchmark's own helpers.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import time

import pytest

import run  # puts the repository's src/ on sys.path
import spans
import speed
from timeclaw.gateway import AssistantReply, ChatExchange, ChatMessage, PolicyGateway
from workloads import WORKLOADS, SleepGateway


def _exchange() -> ChatExchange:
    return ChatExchange(messages=[ChatMessage(role="user", content="hello")])


def _gateway(delay_s: float) -> SleepGateway:
    return SleepGateway(PolicyGateway(lambda exchange: AssistantReply(content="ok")), delay_s)


def test_percentile_is_nearest_rank_and_counts_the_tail():
    values = [float(v) for v in range(100, 0, -1)]
    assert run.percentile(values, 0.5) == 50.0
    assert run.percentile(values, 0.9) == 90.0
    assert run.items_beyond(100, 0.9) == 10
    assert run.items_beyond(99, 0.9) == 9  # too few for a p90 with ten beyond it


def test_every_workload_command_leaves_ten_items_beyond_p90():
    for workload in WORKLOADS.values():
        key = "learn_count" if workload.command == "explore" else "eval_count"
        items = sum(f[key] for f in workload.spec(smoke=False)["families"])
        assert run.items_beyond(items, run.TAIL_Q) >= run.MIN_BEYOND_TAIL


def _span(name: str, start: float, end: float, parent: int | None = None) -> spans.Span:
    return spans.Span(name, start, end, parent, None)


def test_self_time_subtracts_nested_and_sibling_children():
    log = [
        _span("cli", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("b", 2.0, 3.0, parent=1),
        _span("a", 5.0, 7.0, parent=0),
    ]
    assert spans.self_times(log) == [5.0, 2.0, 1.0, 2.0]
    totals = spans.layer_totals(log)
    assert (totals["a"].calls, totals["a"].self_s) == (2, 4.0)
    assert sum(t.self_s for t in totals.values()) == 10.0


def test_self_time_counts_overlapping_children_once():
    log = [_span("p", 0.0, 10.0), _span("c", 1.0, 5.0, parent=0), _span("c", 3.0, 8.0, parent=0)]
    assert spans.self_times(log)[0] == 3.0


def test_sleep_gateway_waits_then_answers_from_the_inner_gateway():
    gateway = _gateway(0.02)
    t0 = time.perf_counter()
    reply = gateway.complete(_exchange())
    assert time.perf_counter() - t0 >= gateway.slept_s >= 0.02
    assert reply.content == "ok"


def test_meter_counts_cpu_time_at_the_speed_of_the_probe_that_ends_it(monkeypatch):
    # from 0 to 6 s of wall time; an item runs 1..3 with 1 s on the CPU and
    # 0.5 s of backend wait; 1.5 s of CPU before the first probe, 2 s after
    wall = iter([0.0, 1.0, 3.0, 3.0, 3.0, 6.0, 6.0])
    cpu = iter([0.0, 0.5, 1.5, 1.5, 1.5, 3.5, 3.5])
    waited = iter([0.0, 0.0, 0.5, 0.5, 0.5, 0.5, 0.5])
    took = iter([speed.REF_S / 2.0, speed.REF_S / 0.5])  # probes: after the item, at stop
    monkeypatch.setattr(speed.time, "perf_counter", lambda: next(wall))
    monkeypatch.setattr(speed.time, "process_time", lambda: next(cpu))
    monkeypatch.setattr(speed, "probe", lambda: next(took))
    meter = speed.Meter(waited=lambda: next(waited))
    meter.start()
    assert meter.wrap(lambda: "done")() == "done"
    assert meter.stop() == 4.5  # 1.5 * 2 + 0.5, then 2 * 0.5
    assert (meter.wall_s, meter.blocked_s) == (6.0, 2.0)
    assert (meter.raw, meter.cpus, meter.waits, meter.factors) == ([2.0], [1.0], [0.5], [2.0])
    assert meter.items() == [2.5]


def test_meter_times_items_and_probes_after_each():
    waited = [0.0]

    def item() -> str:
        time.sleep(0.01)
        waited[0] += 0.004
        return "done"

    meter = speed.Meter(waited=lambda: waited[0])
    meter.start()
    timed = meter.wrap(item)
    assert [timed(), timed()] == ["done", "done"]
    meter.stop()
    assert len(meter.raw) == len(meter.factors) == 2
    assert all(t >= 0.01 for t in meter.raw)
    assert all(c < 0.01 for c in meter.cpus)  # asleep, off the CPU
    assert meter.waits == pytest.approx([0.004, 0.004])
    assert meter.wall_s >= sum(meter.raw)
    assert meter.blocked_s >= 0.02 - 0.008
    assert meter.item_probe_s == pytest.approx(sum(speed.REF_S / k for k in meter.factors))


def test_tracer_records_a_wrapped_gateway_as_one_span_and_restores():
    original = PolicyGateway.complete
    tracer = spans.Tracer()
    with tracer.installed():
        _gateway(0.01).complete(_exchange())
    assert PolicyGateway.complete is original
    assert [s.name for s in tracer.spans] == ["gateway.complete"]
    assert tracer.spans[0].end - tracer.spans[0].start >= 0.01
    assert tracer.spans[0].counts["tokens"] > 0


@pytest.mark.parametrize("trace,section", [(False, "end_to_end"), (True, "per_layer")])
def test_smoke_run_is_correct_and_prints_every_declared_metric(trace, section):
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = {m["name"]: m["unit"] for m in declared[section]}
    for workload in declared["workloads"]:
        result = run.run_workload(workload["name"], 1, 0.0, trace, smoke=True)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert {k: m["unit"] for k, m in result["metrics"].items()} == names
