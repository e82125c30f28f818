from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from timeclaw import metrics
from timeclaw.corpus import (
    FamilySpec,
    derive_trend_label,
    disjointness_check,
    generate_sample,
    generate_synthetic_corpus,
    load_samples,
    parse_record,
    reveal_for_scoring,
    write_samples,
)
from timeclaw.errors import ContractError, CorpusError


def _write_jsonl(path, records):
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")


def _record(i=0, **kwargs):
    base = {
        "id": f"s{i}",
        "series": [1.0, 2.0, 3.0, 4.0],
        "task_type": "forecast",
        "horizon": 2,
        "scope": "synth_forecast_short",
        "ground_truth": [5.0, 6.0],
        "source": f"src-{i}",
    }
    base.update(kwargs)
    return base


class TestLoader:
    def test_well_formed_file(self, tmp_path):
        path = tmp_path / "c.jsonl"
        _write_jsonl(path, [_record(i) for i in range(3)])
        result = load_samples(path, role="learning")
        assert len(result.instances) == 3
        assert result.rejects == []
        assert result.manifest.counts == {"synth_forecast_short": 3}

    def test_missing_task_type_rejected_with_line_number(self, tmp_path):
        records = [_record(0), {k: v for k, v in _record(1).items() if k != "task_type"}, _record(2)]
        path = tmp_path / "c.jsonl"
        _write_jsonl(path, records)
        result = load_samples(path, role="learning")
        assert len(result.instances) == 2
        assert result.rejects == [{"line": 2, "reason": "missing key task_type"}]

    def test_invalid_json_line_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(_record(0)) + "\n{broken\n", encoding="utf-8")
        result = load_samples(path, role="learning")
        assert len(result.instances) == 1
        assert result.rejects[0]["line"] == 2

    def test_a_line_that_is_not_an_object_is_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("5\nnull\ntrue\n" + json.dumps(_record(0)) + "\n", encoding="utf-8")
        result = load_samples(path, role="learning")
        assert [i.id for i in result.instances] == ["s0"]
        assert result.rejects == [{"line": n, "reason": "a sample is a JSON object"} for n in (1, 2, 3)]

    @pytest.mark.parametrize(
        "series",
        ["[" + "1" * 5000 + "]", "[" * 100_000 + "]" * 100_000],
        ids=["int-past-the-digit-limit", "nested-too-deep"],
    )
    def test_a_line_json_loads_refuses_without_a_decode_error_is_rejected(self, tmp_path, series):
        # json.loads raises a plain ValueError past the digit limit, where one
        # applies, and a RecursionError past the nesting limit
        path = tmp_path / "c.jsonl"
        bad = json.dumps(_record(1)).replace("[1.0, 2.0, 3.0, 4.0]", series)
        path.write_text(json.dumps(_record(0)) + "\n" + bad + "\n", encoding="utf-8")
        result = load_samples(path, role="learning")
        assert [instance.id for instance in result.instances] == ["s0"]
        assert [reject["line"] for reject in result.rejects] == [2]

    def test_a_file_that_is_not_utf_8_is_refused_naming_it(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_bytes(json.dumps(_record(0)).encode() + b"\n\xff\n")
        with pytest.raises(ContractError, match="is not UTF-8 text"):
            load_samples(path, role="learning")

    @pytest.mark.parametrize("role", ["learning", "evaluation"])
    def test_a_repeated_id_is_rejected_naming_its_first_line(self, tmp_path, role):
        # the id of a JSON number is its text, so 7 repeats "7"
        records = [_record(0), _record(1, id=7), _record(2), _record(0, series=[9.0]), _record(3, id="7")]
        path = tmp_path / "c.jsonl"
        _write_jsonl(path, records)
        result = load_samples(path, role=role)
        assert [i.id for i in result.instances] == ["s0", "7", "s2"]
        assert result.instances[0].series == (1.0, 2.0, 3.0, 4.0)  # the first line's sample, not the last
        assert result.rejects == [
            {"line": 4, "reason": "id 's0' repeats line 1"},
            {"line": 5, "reason": "id '7' repeats line 2"},
        ]
        assert result.manifest.counts == {"synth_forecast_short": 3}

    def test_learning_role_requires_ground_truth(self, tmp_path):
        record = _record(0)
        del record["ground_truth"]
        path = tmp_path / "c.jsonl"
        _write_jsonl(path, [record])
        with pytest.raises(CorpusError, match="exploration requires targets"):
            load_samples(path, role="learning")

    def test_evaluation_role_allows_missing_ground_truth(self, tmp_path):
        record = _record(0)
        del record["ground_truth"]
        path = tmp_path / "c.jsonl"
        _write_jsonl(path, [record])
        result = load_samples(path, role="evaluation")
        assert len(result.instances) == 1

    @pytest.mark.parametrize(
        "fields, reason",
        [
            ({"series": [10**400, 2.0, 3.0, 4.0]}, "series values must be finite numbers"),
            ({"horizon": True}, "horizon must be an integer"),
            (
                {"task_type": "trend", "label_space": "up", "ground_truth": "u"},
                "label_space must be an array",
            ),
            ({"timestamps": "abcd"}, "timestamps must be an array"),
            ({"ground_truth": [13, "x", 15]}, "ground_truth is not a valid answer (non_numeric_element)"),
            ({"ground_truth": []}, "ground_truth is not a valid answer (empty_sequence)"),
            (
                {"task_type": "trend", "label_space": ["up", "down"], "ground_truth": "sideways"},
                "ground_truth is not a valid answer (label_not_in_space)",
            ),
            (
                {"task_type": "indicator", "ground_truth": {"max": 3, "min": 1}},
                "ground_truth is not a valid answer (missing_field:diff)",
            ),
        ],
        ids=[
            "int-past-the-float-range", "bool-horizon", "string-label-space", "string-timestamps",
            "forecast-truth-with-a-string", "empty-forecast-truth", "label-truth-outside-its-space",
            "indicator-truth-without-a-field",
        ],
    )
    def test_a_value_of_the_wrong_kind_is_rejected_with_a_reason(self, tmp_path, fields, reason):
        path = tmp_path / "c.jsonl"
        _write_jsonl(path, [_record(0), _record(1, **fields)])
        result = load_samples(path, role="learning")
        assert [instance.id for instance in result.instances] == ["s0"]
        assert result.rejects == [{"line": 2, "reason": reason}]

    def test_an_indicator_ground_truth_may_carry_a_field_it_is_not_scored_on(self, tmp_path):
        path = tmp_path / "c.jsonl"
        truth = {"max": 3, "min": 1, "diff": 2, "mean": 2}
        _write_jsonl(path, [_record(0, task_type="indicator", ground_truth=truth)])
        [instance] = load_samples(path, role="learning").instances
        assert reveal_for_scoring(instance) == truth
        report = metrics.answer_report({"max": 3.0, "min": 1.0, "diff": 2.0}, truth, "indicator")
        assert (report.mse, report.n_points) == (0.0, 3)

    def test_a_line_separator_inside_a_string_stays_in_its_line(self, tmp_path):
        # canonical_json writes U+2028 and U+0085 raw; only "\n" ends a line
        body = "first\u2028second\u0085third"
        path = tmp_path / "c.jsonl"
        path.write_text(
            "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in (_record(0, text=[{"body": body}]), _record(1))),
            encoding="utf-8",
        )
        result = load_samples(path, role="learning")
        assert result.rejects == []
        assert [instance.id for instance in result.instances] == ["s0", "s1"]
        assert result.instances[0].text_context[0].body == body

    def test_unreadable_file_is_corpus_error(self, tmp_path):
        with pytest.raises(CorpusError):
            load_samples(tmp_path / "missing.jsonl", role="learning")

    def test_round_trip(self, tmp_path):
        path = tmp_path / "c.jsonl"
        _write_jsonl(path, [_record(i) for i in range(4)])
        loaded = load_samples(path, role="learning").instances
        out = tmp_path / "copy.jsonl"
        write_samples(loaded, out)
        reloaded = load_samples(out, role="learning").instances
        assert reloaded == loaded


class TestDisjointness:
    def test_disjoint_sources_pass(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        _write_jsonl(a, [_record(0, source="stationA")])
        _write_jsonl(b, [_record(1, source="stationB")])
        learn = load_samples(a, "learning").manifest
        ev = load_samples(b, "evaluation").manifest
        assert disjointness_check(learn, ev)["pass"]

    def test_shared_source_fails_listing_digest(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        _write_jsonl(a, [_record(0, source="shared-url")])
        _write_jsonl(b, [_record(1, source="shared-url")])
        learn = load_samples(a, "learning").manifest
        ev = load_samples(b, "evaluation").manifest
        report = disjointness_check(learn, ev)
        assert not report["pass"]
        assert report["overlaps"]["synth"]

    def test_empty_learning_manifest_vacuous_pass_with_warning(self):
        from timeclaw.corpus import CorpusManifest

        report = disjointness_check(CorpusManifest("learning"), CorpusManifest("evaluation"))
        assert report["pass"]
        assert "vacuous" in report["warning"]


class TestSyntheticGenerator:
    def test_same_seed_identical_files(self, tmp_path):
        spec = {
            "seed": 5,
            "families": [
                {"name": "szn", "kind": "seasonal", "learn_count": 5, "eval_count": 3, "length": 72, "horizon": 12, "period": 12}
            ],
        }
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        generate_synthetic_corpus(spec, out_a)
        generate_synthetic_corpus(spec, out_b)
        assert (out_a / "learning.jsonl").read_text(encoding="utf-8") == (out_b / "learning.jsonl").read_text(encoding="utf-8")
        assert (out_a / "eval.jsonl").read_text(encoding="utf-8") == (out_b / "eval.jsonl").read_text(encoding="utf-8")

    def test_roles_have_disjoint_sources(self, tmp_path):
        spec = {
            "seed": 5,
            "families": [
                {"name": "szn", "kind": "seasonal", "learn_count": 6, "eval_count": 4, "length": 72, "horizon": 12, "period": 12}
            ],
        }
        generate_synthetic_corpus(spec, tmp_path)
        learn = load_samples(tmp_path / "learning.jsonl", "learning").manifest
        ev = load_samples(tmp_path / "eval.jsonl", "evaluation").manifest
        assert disjointness_check(learn, ev)["pass"]

    def test_seasonal_family_favors_seasonal_naive(self):
        family = FamilySpec(
            name="szn", kind="seasonal", learn_count=50, eval_count=0,
            length=96, horizon=24, period=24, amplitude=5.0, noise=0.3,
        )
        wins = 0
        for i in range(50):
            inst, _src, future = generate_sample(family, "learning", i, seed=3)
            values = list(inst.series)
            seasonal = [values[-24 + (t % 24)] for t in range(24)]
            naive = [values[-1]] * 24
            if metrics.mae(seasonal, future) < metrics.mae(naive, future):
                wins += 1
        assert wins >= 45  # >= 90% of samples

    def test_trending_family_favors_drift(self):
        family = FamilySpec(
            name="tr", kind="trending", learn_count=50, eval_count=0,
            length=60, horizon=12, noise=0.1,
        )
        wins = 0
        for i in range(50):
            inst, _src, future = generate_sample(family, "learning", i, seed=3)
            values = list(inst.series)
            slope = (values[-1] - values[0]) / (len(values) - 1)
            drift = [values[-1] + slope * (t + 1) for t in range(12)]
            naive = [values[-1]] * 12
            if metrics.mae(drift, future) < metrics.mae(naive, future):
                wins += 1
        assert wins >= 45

    def test_trend_labels_rederivable_from_generated_series(self):
        family = FamilySpec(
            name="tl", kind="trend_label", learn_count=30, eval_count=0,
            length=96, horizon=24, period=24,
        )
        for i in range(30):
            inst, _src, future = generate_sample(family, "learning", i, seed=9)
            derived = derive_trend_label(list(inst.series), future, family.period)
            assert derived == reveal_for_scoring(inst)

    def test_day_mean_rule_thresholds(self):
        base = [10.0] * 24
        assert derive_trend_label(base, [14.2] * 24, 24) == "increasing"
        assert derive_trend_label(base, [5.0] * 24, 24) == "decreasing"
        assert derive_trend_label(base, [10.3] * 24, 24) == "stable"

    def test_indicator_family_targets(self):
        family = FamilySpec(
            name="ind", kind="indicator", learn_count=5, eval_count=0,
            length=72, horizon=24, period=24,
        )
        inst, _src, future = generate_sample(family, "learning", 0, seed=2)
        gt = reveal_for_scoring(inst)
        assert gt["max"] == max(future)
        assert gt["min"] == min(future)
        assert gt["diff"] == pytest.approx(max(future) - min(future))


def _parse_by_element(record):
    """``parse_record``'s series and timestamps checks made one element at a
    time in Python: the reference the C-level passes must agree with.
    Returns the accepted (series, timestamps) or the reject reason; raises
    OverflowError for a series int past the float range. A timestamps
    comparison that raises (a str against a float, or an int past the float
    range against a numpy float) rejects with the error's message."""
    series, timestamps = record["series"], record.get("timestamps")
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v) for v in series):
        return "series values must be finite numbers"
    values = tuple(float(v) for v in series)
    timestamps = tuple(timestamps) if timestamps else None
    if any(not math.isfinite(v) for v in values):
        return f"instance {record['id']}: series values must be finite"
    if timestamps is not None:
        if len(timestamps) != len(values):
            return f"instance {record['id']}: timestamps/series length mismatch"
        try:
            if any(a >= b for a, b in zip(timestamps, timestamps[1:])):
                return f"instance {record['id']}: timestamps must strictly increase"
        except (TypeError, OverflowError) as exc:
            return str(exc)
    return values, timestamps


_VALUES = (
    st.integers()
    | st.sampled_from([10**400, -(10**400), 2**1024])
    | st.floats()
    | st.sampled_from([math.nan, math.inf, -math.inf])
    | st.booleans()
    | st.text(max_size=3)
    | st.none()
    | st.floats().map(np.float64)
)


@settings(max_examples=300, deadline=None)
@given(
    series=st.lists(_VALUES, min_size=1, max_size=6),
    stamps=st.lists(_VALUES | st.sampled_from(["2024-01-01", "2024-01-02", "2024-01-03"]), max_size=6),
    same_length=st.booleans(),
)
@example(series=[1.0, 10**400], stamps=[], same_length=False)
@example(series=[np.float64(1.5), 2], stamps=["2024-01-01", "2024-01-02"], same_length=False)
@example(series=[1.0, 2.0], stamps=[math.nan, 1.0], same_length=False)
@example(series=[1.0, 2.0], stamps=["2024-01-01", None], same_length=False)
@example(series=[0, 0], stamps=[10**400, np.float64(0.0)], same_length=False)
def test_the_c_level_checks_decide_as_the_element_by_element_checks(series, stamps, same_length):
    """Every series and timestamps is accepted or rejected, with the same
    reason, as the element-by-element checks decide, except a series int past
    the float range: they raise OverflowError on it, and parse_record rejects
    it."""
    if same_length:
        stamps = (stamps * len(series))[: len(series)] or None
    record = {**_record(0), "series": series, "timestamps": stamps}
    try:
        expected = _parse_by_element(record)
    except OverflowError:
        expected = "series values must be finite numbers"
    try:
        instance = parse_record(record)
    except CorpusError as exc:
        assert str(exc) == expected
    else:
        assert (instance.series, instance.timestamps) == expected
        assert all(type(v) is float for v in instance.series)
