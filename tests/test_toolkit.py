from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from timeclaw.core import EvaluatorCapability, SealedAnswer, TaskInstance, TaskType, TextBlock
from timeclaw.errors import CapabilityError
from timeclaw.toolkit import (
    ORIGINAL_INPUT,
    ArtifactStore,
    InvocationContext,
    RemoteToolAdapter,
    ToolInvocation,
    builtin_toolkit,
)
from timeclaw.util import canonical_json


def _series_instance(values, horizon=3, **kwargs):
    return TaskInstance(
        id=kwargs.pop("id", "series1"),
        series=tuple(float(v) for v in values),
        task_type=TaskType.FORECAST,
        horizon=horizon,
        scope="synth_forecast_short",
        **kwargs,
    )


@pytest.fixture
def exploration_ctx():
    instance = _series_instance([1.0, 2.0, 3.0], ground_truth=SealedAnswer([4.0, 4.0]))
    return instance, InvocationContext(
        mode="exploration", instance=instance, capability=EvaluatorCapability()
    )


def _invoke(toolkit, instance, ctx, tool, args=None, inputs=(ORIGINAL_INPUT,), store=None):
    store = store or ArtifactStore(instance)
    artifact = toolkit.invoke(ToolInvocation(tool_id=tool, args=args or {}, inputs=inputs), store, ctx)
    return artifact, store


class TestForecastTools:
    def test_naive_repeats_last(self, toolkit, exploration_ctx):
        instance, ctx = exploration_ctx
        art, _ = _invoke(toolkit, instance, ctx, "naive", {"horizon": 2})
        assert art.series_values() == [3.0, 3.0]

    def test_drift_extrapolates_slope(self, toolkit):
        instance = _series_instance([0.0, 2.0], horizon=2)
        ctx = InvocationContext(mode="inference", instance=instance)
        art, _ = _invoke(toolkit, instance, ctx, "drift", {"horizon": 2})
        assert art.series_values() == pytest.approx([4.0, 6.0])

    def test_seasonal_naive_repeats_last_period(self, toolkit):
        instance = _series_instance([1.0, 2.0, 1.0, 2.0], horizon=3)
        ctx = InvocationContext(mode="inference", instance=instance)
        art, _ = _invoke(toolkit, instance, ctx, "seasonal_naive", {"horizon": 3, "period": 2})
        assert art.series_values() == [1.0, 2.0, 1.0]

    def test_seasonal_naive_full_period_reproduces_series(self, toolkit):
        values = [3.0, 1.0, 4.0, 1.0, 5.0]
        instance = _series_instance(values, horizon=5)
        ctx = InvocationContext(mode="inference", instance=instance)
        art, _ = _invoke(
            toolkit, instance, ctx, "seasonal_naive", {"horizon": 5, "period": 5}
        )
        assert art.series_values() == values

    def test_insufficient_history_is_error_artifact(self, toolkit):
        instance = _series_instance([1.0, 2.0, 3.0], horizon=2)
        ctx = InvocationContext(mode="inference", instance=instance)
        art, _ = _invoke(toolkit, instance, ctx, "seasonal_naive", {"horizon": 2, "period": 12})
        assert art.is_error
        assert art.payload["error"] == "insufficient_history"

    def test_ses_constant_level(self, toolkit):
        instance = _series_instance([5.0, 5.0, 5.0, 5.0], horizon=3)
        ctx = InvocationContext(mode="inference", instance=instance)
        art, _ = _invoke(toolkit, instance, ctx, "ses", {"horizon": 3})
        assert art.series_values() == pytest.approx([5.0, 5.0, 5.0])

    def test_holt_linear_trend(self, toolkit):
        instance = _series_instance([1.0, 2.0, 3.0, 4.0], horizon=2)
        ctx = InvocationContext(mode="inference", instance=instance)
        art, _ = _invoke(toolkit, instance, ctx, "holt", {"horizon": 2, "alpha": 1.0, "beta": 1.0})
        assert art.series_values() == pytest.approx([5.0, 6.0])

    def test_moving_average_window(self, toolkit):
        instance = _series_instance([1.0, 2.0, 3.0, 7.0], horizon=2)
        ctx = InvocationContext(mode="inference", instance=instance)
        art, _ = _invoke(toolkit, instance, ctx, "moving_average", {"horizon": 2, "window": 2})
        assert art.series_values() == pytest.approx([5.0, 5.0])


class TestAnalysisTools:
    def test_basic_stats_constant_series(self, toolkit):
        instance = _series_instance([5.0, 5.0, 5.0])
        ctx = InvocationContext(mode="inference", instance=instance)
        art, _ = _invoke(toolkit, instance, ctx, "basic_stats")
        assert art.payload["mean"] == 5.0
        assert art.payload["std"] == 0.0

    def test_segment_336_hourly_into_14_days(self, toolkit):
        instance = _series_instance(list(range(336)), horizon=24)
        ctx = InvocationContext(mode="inference", instance=instance)
        art, _ = _invoke(toolkit, instance, ctx, "segment", {"window": 24})
        assert art.payload["n_windows"] == 14
        assert art.payload["exact"] is True

    def test_segment_flags_trailing_partial_window(self, toolkit):
        instance = _series_instance(list(range(10)), horizon=1)
        ctx = InvocationContext(mode="inference", instance=instance)
        art, _ = _invoke(toolkit, instance, ctx, "segment", {"window": 4})
        assert art.payload["exact"] is False
        assert art.payload["windows"][-1]["partial"] is True

    def test_window_stats_last_day_mean(self, toolkit):
        # last 24 values engineered so the mean reproduces a known daily mean
        target_mean = 16.435416666666665
        last_day = [16.4] * 23 + [16.435416666666665 * 24 - 16.4 * 23]
        values = [20.0] * 312 + last_day
        instance = _series_instance(values, horizon=24)
        ctx = InvocationContext(mode="inference", instance=instance)
        art, _ = _invoke(toolkit, instance, ctx, "window_stats", {"start": -24})
        assert art.payload["mean"] == pytest.approx(target_mean, abs=1e-9)
        assert art.payload["n"] == 24

    def test_window_stats_delta_vs_reference(self, toolkit):
        instance = _series_instance([1.0, 2.0, 3.0, 4.0], horizon=1)
        ctx = InvocationContext(mode="inference", instance=instance)
        art, _ = _invoke(
            toolkit, instance, ctx, "window_stats", {"start": 2, "end": 4, "reference_mean": 1.5}
        )
        assert art.payload["mean_delta_vs_reference"] == pytest.approx(2.0)

    def test_value_at_pct_change_vs_reference_artifact(self, toolkit):
        # forecast endpoint 62.544 vs latest observed 61.94 -> +0.975%
        instance = _series_instance([61.0, 61.5, 61.94], horizon=1)
        ctx = InvocationContext(mode="inference", instance=instance)
        store = ArtifactStore(instance)
        forecast, _ = _invoke(
            toolkit, instance, ctx, "naive", {"horizon": 1}, store=store
        )
        # overwrite with a fixed endpoint so the ratio is exact
        from timeclaw.toolkit import ArtifactKind, Provenance, ToolArtifact

        fixed = ToolArtifact(
            artifact_id="fc1",
            kind=ArtifactKind.SERIES,
            payload={"values": [62.544]},
            provenance=Provenance("naive", "x", (ORIGINAL_INPUT,), {"kind": "offset", "offset": 3}),
        )
        store.add(fixed)
        art, _ = _invoke(
            toolkit,
            instance,
            ctx,
            "value_at",
            {"which": "last", "reference": "last"},
            inputs=("fc1", ORIGINAL_INPUT),
            store=store,
        )
        assert art.payload["value"] == 62.544
        assert art.payload["reference_value"] == 61.94
        assert art.payload["pct_change_vs_reference"] == pytest.approx(0.9752, abs=1e-3)

    def test_value_at_last_with_first_reference(self, toolkit):
        instance = _series_instance([60.0, 61.0, 61.94], horizon=1)
        ctx = InvocationContext(mode="inference", instance=instance)
        art, _ = _invoke(toolkit, instance, ctx, "value_at", {"which": "last", "reference": "first"})
        assert art.payload["value"] == 61.94
        assert "pct_change_vs_reference" in art.payload

    def test_autocorrelation_alternating_series(self, toolkit):
        instance = _series_instance([1.0, -1.0, 1.0, -1.0], horizon=1)
        ctx = InvocationContext(mode="inference", instance=instance)
        art, _ = _invoke(toolkit, instance, ctx, "autocorrelation", {"lag": 1})
        assert art.payload["r"] == pytest.approx(-1.0)

    def test_detect_trend_labels(self, toolkit):
        ctx_for = lambda vals: (
            _series_instance(vals),
            InvocationContext(mode="inference", instance=_series_instance(vals)),
        )
        inst, ctx = ctx_for([1.0, 2.0, 3.0, 4.0, 5.0])
        art, _ = _invoke(toolkit, inst, ctx, "detect_trend")
        assert art.payload["label"] == "increasing"
        inst, ctx = ctx_for([5.0, 5.0, 5.0, 5.0])
        art, _ = _invoke(toolkit, inst, ctx, "detect_trend")
        assert art.payload["label"] == "stable"

    def test_detect_anomaly_flags_outlier(self, toolkit):
        values = [1.0, 1.1, 0.9, 1.0, 1.05, 0.95] * 10 + [50.0]
        instance = _series_instance(values)
        ctx = InvocationContext(mode="inference", instance=instance)
        art, _ = _invoke(toolkit, instance, ctx, "detect_anomaly")
        assert art.payload["n_events"] == 1
        assert art.payload["events"][0]["index"] == len(values) - 1


class TestTextTools:
    def _text_instance(self, blocks, timestamps=None):
        return TaskInstance(
            id="txt1",
            series=(1.0, 2.0, 3.0, 4.0),
            task_type=TaskType.FORECAST,
            horizon=1,
            scope="synth_forecast_short",
            timestamps=timestamps,
            text_context=tuple(blocks),
        )

    def test_sentiment_positive(self, toolkit):
        instance = self._text_instance([TextBlock(body="strong growth, record profit")])
        ctx = InvocationContext(mode="inference", instance=instance)
        art, _ = _invoke(toolkit, instance, ctx, "sentiment_lexicon")
        assert art.payload["score"] > 0

    def test_sentiment_empty_is_zero(self, toolkit):
        instance = _series_instance([1.0, 2.0])
        ctx = InvocationContext(mode="inference", instance=instance)
        art, _ = _invoke(toolkit, instance, ctx, "sentiment_lexicon", {"text": ""})
        assert art.payload["score"] == 0.0

    def test_keyword_extract_orders_by_frequency(self, toolkit):
        instance = self._text_instance(
            [TextBlock(body="storm storm storm hail hail wind")]
        )
        ctx = InvocationContext(mode="inference", instance=instance)
        art, _ = _invoke(toolkit, instance, ctx, "keyword_extract", {"k": 2})
        tokens = [k["token"] for k in art.payload["keywords"]]
        assert tokens == ["storm", "hail"]

    def test_temporal_align_flags_boundary(self, toolkit):
        timestamps = tuple(f"2024-01-{d:02d}" for d in range(1, 5))
        instance = self._text_instance(
            [TextBlock(body="hail report", date="2024-01-04"), TextBlock(body="old", date="2023-12-01")],
            timestamps=timestamps,
        )
        ctx = InvocationContext(mode="inference", instance=instance)
        art, _ = _invoke(toolkit, instance, ctx, "temporal_align_text")
        assert art.payload["n"] == 1
        assert art.payload["blocks"][0]["boundary_aligned"] is True

    def test_no_text_context_is_empty_result_not_error(self, toolkit):
        instance = _series_instance([1.0, 2.0])
        ctx = InvocationContext(mode="inference", instance=instance)
        art, _ = _invoke(toolkit, instance, ctx, "temporal_align_text")
        assert not art.is_error
        assert art.payload["n"] == 0


class TestEvaluators:
    def test_perfect_forecast_zero_errors(self, toolkit, exploration_ctx):
        instance, ctx = exploration_ctx
        art, _ = _invoke(
            toolkit, instance, ctx, "evaluate_against_gt", {"answer": [4.0, 4.0]}
        )
        assert art.payload["report"]["mae"] == 0.0
        assert art.payload["quality"] == 0.0

    def test_hand_computed_errors(self, toolkit):
        instance = _series_instance(
            [0.0, 1.0], horizon=2, ground_truth=SealedAnswer([1.0, 1.0])
        )
        ctx = InvocationContext(mode="exploration", instance=instance, capability=EvaluatorCapability())
        art, _ = _invoke(toolkit, instance, ctx, "evaluate_against_gt", {"answer": [0.0, 2.0]})
        assert art.payload["report"]["mae"] == pytest.approx(1.0)
        assert art.payload["report"]["mse"] == pytest.approx(1.0)

    def test_label_correctness(self, toolkit, trend_instance):
        ctx = InvocationContext(
            mode="exploration", instance=trend_instance, capability=EvaluatorCapability()
        )
        store = ArtifactStore(trend_instance)
        art = toolkit.invoke(
            ToolInvocation("evaluate_against_gt", {"answer": "stable"}, (ORIGINAL_INPUT,)),
            store,
            ctx,
        )
        assert art.payload["report"]["correct"] is True

    def test_inference_mode_is_hard_capability_error(self, toolkit, exploration_ctx):
        instance, _ = exploration_ctx
        ctx = InvocationContext(mode="inference", instance=instance)
        store = ArtifactStore(instance)
        with pytest.raises(CapabilityError):
            toolkit.invoke(
                ToolInvocation("evaluate_against_gt", {"answer": [4.0, 4.0]}, (ORIGINAL_INPUT,)),
                store,
                ctx,
            )

    def test_batch_evaluation(self, toolkit, exploration_ctx):
        instance, ctx = exploration_ctx
        ctx.candidates = {"b0": [4.0, 4.0], "b1": [0.0, 0.0]}
        art, _ = _invoke(toolkit, instance, ctx, "evaluate_batch_against_gt")
        reports = art.payload["reports"]
        assert reports["b0"]["quality"] == 0.0
        assert reports["b1"]["quality"] == pytest.approx(-4.0)


class TestInvocationContract:
    def test_schema_violation_is_error_artifact(self, toolkit, exploration_ctx):
        instance, ctx = exploration_ctx
        art, _ = _invoke(toolkit, instance, ctx, "naive", {"horizon": 2, "bogus": 1})
        assert art.is_error
        assert art.payload["error"] == "schema_violation"

    def test_unknown_tool_is_error_artifact(self, toolkit, exploration_ctx):
        instance, ctx = exploration_ctx
        art, _ = _invoke(toolkit, instance, ctx, "no_such_tool")
        assert art.is_error
        assert art.payload["error"] == "unknown_tool"

    def test_spawn_is_orchestrator_only(self, toolkit, exploration_ctx):
        instance, ctx = exploration_ctx
        art, _ = _invoke(toolkit, instance, ctx, "spawn_subagent", {"n_tasks": 2})
        assert art.is_error

    def test_orchestration_rejected_at_inference(self, toolkit):
        instance = _series_instance([1.0, 2.0])
        ctx = InvocationContext(mode="inference", instance=instance)
        store = ArtifactStore(instance)
        with pytest.raises(CapabilityError):
            toolkit.invoke(ToolInvocation("spawn_subagent", {}, (ORIGINAL_INPUT,)), store, ctx)

    def test_determinism_byte_identical(self, toolkit):
        instance = _series_instance([1.0, 5.0, 2.0, 8.0], horizon=3)
        ctx = InvocationContext(mode="inference", instance=instance)
        dumps = set()
        for _ in range(5):
            art, _ = _invoke(toolkit, instance, ctx, "holt", {"horizon": 3})
            dumps.add(canonical_json(art.to_dict()))
        assert len(dumps) == 1


class TestProvenance:
    def test_chain_terminates_at_original(self, toolkit):
        instance = _series_instance([1.0, 2.0, 3.0, 4.0], horizon=2)
        ctx = InvocationContext(mode="inference", instance=instance)
        store = ArtifactStore(instance)
        forecast, _ = _invoke(toolkit, instance, ctx, "naive", {"horizon": 2}, store=store)
        assert forecast.provenance.parents == (ORIGINAL_INPUT,)
        # forecast step i maps past the end of the original axis
        assert store.resolve_to_original(forecast.artifact_id, 0) == 4
        assert store.resolve_to_original(forecast.artifact_id, 1) == 5

    def test_second_hop_composes_offsets(self, toolkit):
        instance = _series_instance([1.0, 2.0, 3.0, 4.0], horizon=2)
        ctx = InvocationContext(mode="inference", instance=instance)
        store = ArtifactStore(instance)
        f1, _ = _invoke(toolkit, instance, ctx, "naive", {"horizon": 2}, store=store)
        f2, _ = _invoke(
            toolkit, instance, ctx, "naive", {"horizon": 2}, inputs=(f1.artifact_id,), store=store
        )
        assert store.resolve_to_original(f2.artifact_id, 0) == 6


class _FlakyRemote(BaseHTTPRequestHandler):
    calls = 0
    mode = "retry"  # retry | not_json

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        type(self).calls += 1
        if type(self).mode == "not_json":
            data = b"<html>upstream proxy page</html>"
            self.send_response(200)
            self.send_header("Content-Type", "text/html")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)
            return
        if type(self).calls == 1:
            self.send_response(500)
            self.end_headers()
            return
        horizon = body["args"]["horizon"]
        last = body["inputs"][0]["payload"]["values"][-1]
        payload = {"kind": "series", "payload": {"values": [last + 1.0] * horizon}}
        data = json.dumps(payload).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def remote_forecast():
    """Invoke remote_forecast (horizon 2) against the loopback _FlakyRemote."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), _FlakyRemote)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _FlakyRemote.calls = 0
    _FlakyRemote.mode = "retry"
    endpoint = f"http://127.0.0.1:{server.server_address[1]}/tool"
    toolkit = builtin_toolkit(remote_forecast_endpoint=endpoint)
    instance = _series_instance([1.0, 2.0, 3.0], horizon=2)
    ctx = InvocationContext(mode="inference", instance=instance)

    def invoke():
        call = ToolInvocation("remote_forecast", {"horizon": 2}, (ORIGINAL_INPUT,))
        return toolkit.invoke(call, ArtifactStore(instance), ctx)

    yield invoke
    server.shutdown()
    server.server_close()


class TestRemoteAdapter:
    def test_retry_then_success_and_schema_validation(self, remote_forecast):
        art = remote_forecast()
        assert not art.is_error
        assert art.series_values() == [4.0, 4.0]
        assert _FlakyRemote.calls == 2  # one 500, one success
        assert art.provenance.index_transform == {"kind": "offset", "offset": 3}

    def test_non_json_body_is_schema_error_artifact(self, remote_forecast):
        _FlakyRemote.mode = "not_json"
        art = remote_forecast()
        assert art.is_error
        assert art.payload["error"] == "remote_schema"
        assert _FlakyRemote.calls == 1
