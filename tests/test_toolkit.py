from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from timeclaw.core import EvaluatorCapability, SealedAnswer, TaskInstance, TaskType, TextBlock
from timeclaw.errors import CapabilityError
from timeclaw.gateway import AssistantReply, PolicyGateway
from timeclaw.orchestrator import EpisodeDeps, _EpisodeRunner
from timeclaw.registry import ArgSpec, ToolCategory, ToolDescriptor
from timeclaw.toolkit import (
    ORIGINAL_INPUT,
    ArtifactKind,
    ArtifactStore,
    InvocationContext,
    ToolError,
    ToolInvocation,
    Toolkit,
)
from timeclaw.util import canonical_json, digest_obj


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


def _series_values(artifact):
    assert artifact.kind == ArtifactKind.SERIES
    return list(artifact.payload["values"])


class TestForecastTools:
    def test_naive_repeats_last(self, toolkit, exploration_ctx):
        instance, ctx = exploration_ctx
        art, _ = _invoke(toolkit, instance, ctx, "naive", {"horizon": 2})
        assert _series_values(art) == [3.0, 3.0]

    def test_drift_extrapolates_slope(self, toolkit):
        instance = _series_instance([0.0, 2.0], horizon=2)
        ctx = InvocationContext(mode="inference", instance=instance)
        art, _ = _invoke(toolkit, instance, ctx, "drift", {"horizon": 2})
        assert _series_values(art) == pytest.approx([4.0, 6.0])

    def test_seasonal_naive_repeats_last_period(self, toolkit):
        instance = _series_instance([1.0, 2.0, 1.0, 2.0], horizon=3)
        ctx = InvocationContext(mode="inference", instance=instance)
        art, _ = _invoke(toolkit, instance, ctx, "seasonal_naive", {"horizon": 3, "period": 2})
        assert _series_values(art) == [1.0, 2.0, 1.0]

    def test_seasonal_naive_full_period_reproduces_series(self, toolkit):
        values = [3.0, 1.0, 4.0, 1.0, 5.0]
        instance = _series_instance(values, horizon=5)
        ctx = InvocationContext(mode="inference", instance=instance)
        art, _ = _invoke(
            toolkit, instance, ctx, "seasonal_naive", {"horizon": 5, "period": 5}
        )
        assert _series_values(art) == values

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
        assert _series_values(art) == pytest.approx([5.0, 5.0, 5.0])

    def test_holt_linear_trend(self, toolkit):
        instance = _series_instance([1.0, 2.0, 3.0, 4.0], horizon=2)
        ctx = InvocationContext(mode="inference", instance=instance)
        art, _ = _invoke(toolkit, instance, ctx, "holt", {"horizon": 2, "alpha": 1.0, "beta": 1.0})
        assert _series_values(art) == pytest.approx([5.0, 6.0])

    def test_moving_average_window(self, toolkit):
        instance = _series_instance([1.0, 2.0, 3.0, 7.0], horizon=2)
        ctx = InvocationContext(mode="inference", instance=instance)
        art, _ = _invoke(toolkit, instance, ctx, "moving_average", {"horizon": 2, "window": 2})
        assert _series_values(art) == pytest.approx([5.0, 5.0])


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
        from timeclaw.toolkit import ArtifactKind, ToolArtifact

        fixed = ToolArtifact(artifact_id="fc1", kind=ArtifactKind.SERIES, payload={"values": [62.544]})
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


def _evaluate(toolkit, instance, ctx, answer):
    """The one report the evaluate tool gives for a sole candidate ``answer``."""
    ctx.candidates = {"b0": answer}
    art, _ = _invoke(toolkit, instance, ctx, "evaluate_batch_against_gt")
    return art.payload["reports"]["b0"]


class TestEvaluators:
    def test_perfect_forecast_zero_errors(self, toolkit, exploration_ctx):
        instance, ctx = exploration_ctx
        report = _evaluate(toolkit, instance, ctx, [4.0, 4.0])
        assert report["report"]["mae"] == 0.0
        assert report["quality"] == 0.0

    def test_hand_computed_errors(self, toolkit):
        instance = _series_instance(
            [0.0, 1.0], horizon=2, ground_truth=SealedAnswer([1.0, 1.0])
        )
        ctx = InvocationContext(mode="exploration", instance=instance, capability=EvaluatorCapability())
        report = _evaluate(toolkit, instance, ctx, [0.0, 2.0])
        assert report["report"]["mae"] == pytest.approx(1.0)
        assert report["report"]["mse"] == pytest.approx(1.0)
        assert report["quality"] == pytest.approx(-1.0)  # q = -MAE on this scope

    def test_label_correctness(self, toolkit, trend_instance):
        ctx = InvocationContext(
            mode="exploration", instance=trend_instance, capability=EvaluatorCapability()
        )
        for answer, correct, quality in (("stable", True, 0.0), ("increasing", False, -1.0)):
            report = _evaluate(toolkit, trend_instance, ctx, answer)
            assert report["report"]["correct"] is correct
            assert report["quality"] == quality

    def test_inference_mode_is_hard_capability_error(self, toolkit, exploration_ctx):
        instance, _ = exploration_ctx
        ctx = InvocationContext(mode="inference", instance=instance, candidates={"b0": [4.0, 4.0]})
        store = ArtifactStore(instance)
        with pytest.raises(CapabilityError):
            toolkit.invoke(ToolInvocation("evaluate_batch_against_gt", {}, (ORIGINAL_INPUT,)), store, ctx)

    def test_missing_ground_truth_is_capability_error(self, toolkit):
        instance = _series_instance([1.0, 2.0, 3.0])
        ctx = InvocationContext(mode="exploration", instance=instance, capability=EvaluatorCapability())
        with pytest.raises(CapabilityError):
            _evaluate(toolkit, instance, ctx, [4.0])

    def test_a_call_cannot_name_answers_of_its_own(self, toolkit, exploration_ctx):
        # only the engine's candidates are scored: a candidates argument is
        # refused, and without candidates there is nothing to score
        instance, ctx = exploration_ctx
        spoof = {"candidates": {"b0": [4.0, 4.0]}}
        art, _ = _invoke(toolkit, instance, ctx, "evaluate_batch_against_gt", spoof)
        assert art.payload["error"] == "schema_violation"
        art, _ = _invoke(toolkit, instance, ctx, "evaluate_batch_against_gt")
        assert art.payload["error"] == "contract"

    def test_batch_evaluation(self, toolkit, exploration_ctx):
        instance, ctx = exploration_ctx
        ctx.candidates = {"b0": [4.0, 4.0], "b1": [0.0, 0.0], "b2": [4.0, 4.5]}
        art, _ = _invoke(toolkit, instance, ctx, "evaluate_batch_against_gt")
        reports = art.payload["reports"]
        assert reports["b0"]["quality"] == 0.0
        assert reports["b1"]["quality"] == pytest.approx(-4.0)
        assert reports["b2"]["quality"] == pytest.approx(-0.25)
        # the closer of two imperfect forecasts scores the higher quality
        assert reports["b2"]["quality"] > reports["b1"]["quality"]


_AT_LEAST_ONE = {"minimum": 1}
_UNIT = {"exclusiveMinimum": 0, "maximum": 1}
_SELECTOR = {"enum": ("first", "last")}
# Every argument of a built-in tool whose schema declares a default, a bound
# or an enum, with the keywords it declares besides its type and description
_KEYWORDS = {
    **{
        (tool, "horizon"): _AT_LEAST_ONE
        for tool in ("naive", "drift", "seasonal_naive", "ses", "holt", "moving_average")
    },
    ("seasonal_naive", "period"): _AT_LEAST_ONE,
    ("ses", "alpha"): {**_UNIT, "default": 0.3},
    ("holt", "alpha"): {**_UNIT, "default": 0.3},
    ("holt", "beta"): {**_UNIT, "default": 0.1},
    ("moving_average", "window"): {**_AT_LEAST_ONE, "default": 3},
    ("detect_anomaly", "threshold"): {"default": 3.0},
    ("autocorrelation", "lag"): _AT_LEAST_ONE,
    ("segment", "window"): _AT_LEAST_ONE,
    ("window_stats", "start"): {"default": 0},
    ("value_at", "which"): {**_SELECTOR, "default": "last"},
    ("value_at", "reference"): _SELECTOR,
    ("keyword_extract", "k"): {**_AT_LEAST_ONE, "default": 5},
    ("temporal_align_text", "boundary_frac"): {"default": 0.1},
}
_REQUIRED = {"horizon": 2, "period": 2, "lag": 1, "window": 2}


def _edges(keywords):
    """The values on an inclusive bound or in the enum, and the nearest
    values outside them. Every argument with a minimum is an integer, so the
    nearest value below it is one less."""
    inside = [keywords.get("minimum"), keywords.get("maximum"), *keywords.get("enum", ())]
    outside = [
        keywords["minimum"] - 1 if "minimum" in keywords else None,
        keywords.get("exclusiveMinimum"),
        math.nextafter(keywords["maximum"], math.inf) if "maximum" in keywords else None,
        "middle" if "enum" in keywords else None,
        math.nan,
    ]
    return [v for v in inside if v is not None], [v for v in outside if v is not None]


class TestSchemas:
    def test_every_tool_and_argument_is_described(self, toolkit):
        """The declared schema is the only place a model reads a tool's
        contract: each tool and each of its arguments says what it is,
        ``_inputs``, through which any call names the artifacts it reads,
        included."""
        for tool_id in sorted(toolkit._tools):
            schema = toolkit.tool_schema(tool_id)
            assert schema["description"].strip(), tool_id
            properties = schema["parameters"]["properties"]
            assert properties["_inputs"]["type"] == "array", tool_id
            assert properties["_inputs"]["default"] == [ORIGINAL_INPUT], tool_id
            assert "_inputs" not in schema["parameters"]["required"], tool_id
            for name, prop in properties.items():
                assert prop["description"].strip(), f"{tool_id}.{name}"

    def test_each_default_bound_and_enum_is_declared_in_the_schema_alone(self, toolkit):
        """A model learns a valid call from the schema: each argument's
        default, bounds and choices are its schema's keywords, and its
        description does not restate them."""
        declared = {}
        for tool_id in sorted(toolkit._tools):
            for name, prop in toolkit.tool_schema(tool_id)["parameters"]["properties"].items():
                keywords = {k: v for k, v in prop.items() if k not in ("type", "description", "items")}
                if keywords and name != "_inputs":
                    declared[tool_id, name] = keywords
                    assert not any(w in prop["description"] for w in ("default", "(0, 1]", "positive")), name
        assert declared == _KEYWORDS


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

    @pytest.mark.parametrize("mode", ["exploration", "inference"])
    def test_any_value_of_any_argument_comes_back_as_an_artifact(self, toolkit, mode):
        """A model may send any JSON value for an argument: each gives an
        artifact, and the only exception is inference's refusal of a tool
        that is not substantive."""
        instance = _series_instance(
            [1.0, 3.0, 2.0, 4.0, 3.0, 5.0],
            horizon=2,
            ground_truth=SealedAnswer([4.0, 6.0]),
            timestamps=tuple(f"2024-01-{d:02d}" for d in range(1, 7)),
            text_context=(TextBlock(body="strong growth", date="2024-01-06"),),
        )
        ctx = InvocationContext(
            mode=mode, instance=instance, capability=EvaluatorCapability(), candidates={"b0": [4.0, 6.0]}
        )
        for tool_id in sorted(toolkit._tools):
            schema = toolkit.descriptor(tool_id).arg_schema
            base = {name: _REQUIRED[name] for name, spec in schema.items() if spec.required}
            for name in schema:
                for value in (None, True, "x", 1.5, -1, 0, [], {}, math.nan, math.inf):
                    call = (tool_id, {**base, name: value})
                    if mode == "inference" and tool_id not in toolkit.inference_visible():
                        with pytest.raises(CapabilityError):
                            _invoke(toolkit, instance, ctx, *call)
                        continue
                    art, _ = _invoke(toolkit, instance, ctx, *call)
                    assert art.artifact_id, call

    @pytest.mark.parametrize("tool_id, name", sorted(k for k, v in _KEYWORDS.items() if set(v) - {"default"}))
    def test_a_value_on_a_bound_runs_and_the_nearest_outside_is_a_schema_violation(self, toolkit, tool_id, name):
        instance = _series_instance(
            [1.0, 3.0, 2.0, 4.0, 3.0, 5.0], horizon=2, text_context=(TextBlock(body="strong growth"),)
        )
        ctx = InvocationContext(mode="inference", instance=instance)
        schema = toolkit.descriptor(tool_id).arg_schema
        base = {arg: _REQUIRED[arg] for arg, spec in schema.items() if spec.required}
        inside, outside = _edges(_KEYWORDS[tool_id, name])
        for value in inside:
            art, _ = _invoke(toolkit, instance, ctx, tool_id, {**base, name: value})
            assert not art.is_error, (value, art.payload)
        for value in outside:
            art, _ = _invoke(toolkit, instance, ctx, tool_id, {**base, name: value})
            assert art.payload["error"] == "schema_violation", (value, art.payload)

    def test_a_null_argument_takes_its_default(self, toolkit):
        instance = _series_instance([1.0, 5.0, 2.0, 8.0], horizon=3)
        ctx = InvocationContext(mode="inference", instance=instance)
        given, _ = _invoke(toolkit, instance, ctx, "holt", {"horizon": 3, "alpha": None, "beta": None})
        assert given.payload == _invoke(toolkit, instance, ctx, "holt", {"horizon": 3})[0].payload
        missing, _ = _invoke(toolkit, instance, ctx, "naive", {"horizon": None})
        assert missing.payload["error"] == "schema_violation"

    @pytest.mark.parametrize("selector", [0, -1, "0", "middle"])
    @pytest.mark.parametrize("name", ["which", "reference"])
    def test_value_at_takes_first_or_last_only(self, toolkit, name, selector):
        instance = _series_instance([1.0, 2.0, 3.0], horizon=1)
        ctx = InvocationContext(mode="inference", instance=instance)
        art, _ = _invoke(toolkit, instance, ctx, "value_at", {name: selector})
        assert art.payload["error"] == "schema_violation"

    def test_value_at_refuses_a_reference_input_that_is_not_a_series(self, toolkit):
        instance = _series_instance([1.0, 2.0, 3.0], horizon=1)
        ctx = InvocationContext(mode="inference", instance=instance)
        stats, store = _invoke(toolkit, instance, ctx, "basic_stats")
        art, _ = _invoke(
            toolkit, instance, ctx, "value_at", {"reference": "last"}, inputs=(ORIGINAL_INPUT, stats.artifact_id), store=store
        )
        assert art.payload["error"] == "contract"

    def test_determinism_byte_identical(self, toolkit):
        instance = _series_instance([1.0, 5.0, 2.0, 8.0], horizon=3)
        ctx = InvocationContext(mode="inference", instance=instance)
        dumps = set()
        for _ in range(5):
            art, _ = _invoke(toolkit, instance, ctx, "holt", {"horizon": 3})
            dumps.add(canonical_json(art.to_dict()))
        assert len(dumps) == 1


def _artifact_id_by_whole_encoding(tool_id, args, parents, payload):
    """The artifact id from one encoding of the whole digest input: the
    reference the id spliced from the payload's encoding must equal."""
    return digest_obj({"tool": tool_id, "args": args, "parents": list(parents), "payload": payload}, 12)


_JSON_LEAVES = st.none() | st.booleans() | st.integers() | st.floats() | st.text()
_PAYLOADS = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12,
)


class TestSplicedArtifactText:
    @settings(max_examples=80, deadline=None)
    @given(
        payload=_PAYLOADS,
        text=st.text(),
        outcome=st.sampled_from(["result", "tool_error", "unknown_argument", "unknown_input", "unknown_tool"]),
        branch=st.none() | st.integers(0, 3),
    )
    def test_text_id_and_trace_line_equal_their_own_encodings(self, tmp_path_factory, payload, text, outcome, branch):
        """The payload's one encoding, spliced into the artifact's text, its
        id's digest input and its tool_result line, gives the bytes that
        encoding each of them whole gives, for results and error artifacts."""

        def echo(args, inputs, ctx):
            if outcome == "tool_error":
                raise ToolError("contract", text)
            return ArtifactKind.TEXT, payload

        toolkit = Toolkit()
        toolkit.register(ToolDescriptor("echo", ToolCategory.ANALYSIS, {"note": ArgSpec("string")}), echo)
        deps = EpisodeDeps(
            toolkit=toolkit,
            gateway=PolicyGateway(lambda exchange: AssistantReply(content="")),
            trace_dir=tmp_path_factory.mktemp("traces"),
        )
        runner = _EpisodeRunner(_series_instance([1.0, 2.0, 3.0]), deps)
        tool = f"echo·{text}" if outcome == "unknown_tool" else "echo"
        args = {f"é{text}": payload} if outcome == "unknown_argument" else {"note": text}
        inputs = [f"ä{text}"] if outcome == "unknown_input" else [ORIGINAL_INPUT]
        with runner.trace:
            artifact = runner.invoke_tool(tool, args, inputs, branch)
        assert artifact.is_error == (outcome != "result")
        assert artifact.text == canonical_json(artifact.to_dict())
        assert artifact.artifact_id == _artifact_id_by_whole_encoding(tool, args, inputs, artifact.payload)
        # str.splitlines would also split at the U+0085 or U+2028 of a text
        lines = runner.trace.path.read_bytes().decode().split("\n")[:-1]
        assert [json.loads(line)["kind"] for line in lines[1:]] == ["tool_call", "tool_result"]
        assert lines[-1] == canonical_json(
            {
                "branch": branch,
                "kind": "tool_result",
                "payload": {"call_id": "c001", "artifact": artifact.to_dict()},
            }
        )
