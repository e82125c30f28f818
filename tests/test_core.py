from __future__ import annotations

import dataclasses
import json
import math
from collections.abc import Mapping

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from timeclaw.core import (
    INDICATOR_FIELDS, CandidateExecution, EvaluatorCapability, EvidenceClass, SealedAnswer, TaskInstance, TaskType,
    Verdict, compare, validate_answer,
)
from timeclaw.corpus import parse_record
from timeclaw.errors import ContractError, GroundTruthSealedError
from timeclaw.orchestrator import EVALUATE_TOOL, evaluate
from timeclaw.toolkit import ToolInvocation


class TestValidateAnswer:
    def test_forecast_exact_length(self, forecast_instance):
        assert validate_answer([1.0, 2.0, 3.0], forecast_instance).valid

    def test_forecast_any_positive_length(self, forecast_instance):
        # length mismatch is repaired later by alignment
        assert validate_answer([1.0], forecast_instance).valid
        assert validate_answer([1.0] * 10, forecast_instance).valid

    def test_forecast_rejects_bad_shapes(self, forecast_instance):
        assert validate_answer("nope", forecast_instance).reason == "not_a_sequence"
        assert validate_answer([], forecast_instance).reason == "empty_sequence"
        assert validate_answer([1.0, "x"], forecast_instance).reason == "non_numeric_element"
        assert validate_answer([1.0, float("nan")], forecast_instance).reason == "non_numeric_element"

    def test_label_membership(self, trend_instance):
        assert validate_answer("increasing", trend_instance).valid
        verdict = validate_answer("sideways", trend_instance)
        assert not verdict.valid
        assert verdict.reason == "label_not_in_space"

    def test_indicator_requires_named_fields(self):
        inst = TaskInstance(
            id="i1",
            series=(1.0, 2.0, 3.0),
            task_type=TaskType.INDICATOR,
            horizon=2,
            scope="synth_indicator_short",
        )
        assert validate_answer({"max": 3.0, "min": 1.0, "diff": 2.0}, inst).valid
        assert validate_answer({"max": 3.0, "min": 1.0}, inst).reason == "missing_field:diff"
        assert validate_answer({"max": 3.0, "min": 1.0, "diff": "x"}, inst).reason == (
            "non_numeric_field:diff"
        )

    def test_never_raises_on_garbage(self, forecast_instance):
        for garbage in (None, object(), {"a": 1}, 3.5):
            assert not validate_answer(garbage, forecast_instance).valid

    def test_purity(self, trend_instance):
        verdicts = {validate_answer("increasing", trend_instance).valid for _ in range(50)}
        assert verdicts == {True}

    def test_an_int_past_the_float_range_is_not_a_number(self, forecast_instance):
        assert validate_answer([1.0, 10**400], forecast_instance).reason == "non_numeric_element"
        assert validate_answer([10**400, "x"], forecast_instance).reason == "non_numeric_element"


def _is_number(v):
    """The element-by-element predicate the C-level passes must agree with."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an int past the float range
        return False


def _oracle(answer, task_type):
    if task_type == TaskType.FORECAST:
        if not isinstance(answer, (list, tuple)):
            return Verdict(False, "not_a_sequence")
        if len(answer) == 0:
            return Verdict(False, "empty_sequence")
        for v in answer:
            if not _is_number(v):
                return Verdict(False, "non_numeric_element")
        return Verdict(True)
    if not isinstance(answer, Mapping):
        return Verdict(False, "not_a_mapping")
    for name in INDICATOR_FIELDS:
        if name not in answer:
            return Verdict(False, f"missing_field:{name}")
        if not _is_number(answer[name]):
            return Verdict(False, f"non_numeric_field:{name}")
    return Verdict(True)


ELEMENTS = (
    st.floats()
    | st.integers()
    | st.sampled_from([10**400, -(10**309), True, False, None, "1.0", math.nan, -math.inf, -0.0])
    | st.floats().map(np.float64)
    | st.integers(-5, 5).map(np.int64)
    | st.lists(st.floats(), max_size=2)
)


class TestValidateAnswerOracle:
    @given(st.lists(ELEMENTS, max_size=6) | st.lists(ELEMENTS, max_size=6).map(tuple) | ELEMENTS)
    @example([1.0, True])
    @example([10**400, "x"])
    @example([np.float64("inf")])
    def test_a_forecast_answer_gets_the_element_by_element_verdict(self, answer):
        inst = TaskInstance(id="f1", series=(1.0, 2.0), task_type=TaskType.FORECAST, horizon=2, scope="s")
        assert validate_answer(answer, inst) == _oracle(answer, TaskType.FORECAST)

    @given(st.dictionaries(st.sampled_from([*INDICATOR_FIELDS, "other"]), ELEMENTS, max_size=4))
    def test_an_indicator_answer_gets_the_field_by_field_verdict(self, answer):
        inst = TaskInstance(id="i1", series=(1.0, 2.0), task_type=TaskType.INDICATOR, horizon=2, scope="s")
        assert validate_answer(answer, inst) == _oracle(answer, TaskType.INDICATOR)


class TestGroundTruthGate:
    def test_reveal_requires_capability(self, forecast_instance):
        with pytest.raises(GroundTruthSealedError):
            forecast_instance.ground_truth.reveal(None)
        with pytest.raises(GroundTruthSealedError):
            forecast_instance.ground_truth.reveal(object())

    def test_reveal_with_capability(self, forecast_instance):
        assert forecast_instance.answer_key(EvaluatorCapability()) == [13.0, 14.0, 15.0]

    def test_repr_never_leaks(self, forecast_instance):
        assert "13" not in repr(forecast_instance.ground_truth)
        assert "13" not in str(forecast_instance)

    def test_public_dict_withholds_target(self, forecast_instance):
        assert "ground_truth" not in forecast_instance.public_dict()


class TestExecutionQuality:
    """Signed quality q = -loss, as the engine scores a candidate answer."""

    @staticmethod
    def _quality(answer, instance):
        return evaluate(ToolInvocation(EVALUATE_TOOL), instance, {"b0": answer}).payload["reports"]["b0"]["quality"]

    def test_zero_loss_on_identical_vectors(self, forecast_instance):
        assert self._quality([13.0, 14.0, 15.0], forecast_instance) == 0.0

    def test_forecast_mae(self):
        inst = TaskInstance(
            id="q1",
            series=(0.0, 1.0),
            task_type=TaskType.FORECAST,
            horizon=2,
            scope="synth_forecast_short",
            ground_truth=SealedAnswer([1.0, 1.0]),
        )
        # brute-force MAE = (1 + 1) / 2
        assert self._quality([0.0, 2.0], inst) == pytest.approx(-1.0)

    def test_label_zero_one_loss(self, trend_instance):
        assert self._quality("stable", trend_instance) == 0.0
        assert self._quality("increasing", trend_instance) == -1.0

    def test_quality_order_reverses_loss_order(self):
        inst = TaskInstance(
            id="q2",
            series=(0.0, 1.0),
            task_type=TaskType.FORECAST,
            horizon=3,
            scope="synth_forecast_short",
            ground_truth=SealedAnswer([2.0, 2.0, 2.0]),
        )
        q_close = self._quality([2.0, 2.1, 2.0], inst)
        q_far = self._quality([0.0, 0.0, 0.0], inst)
        assert q_close > q_far


# candidates as (branch, slot, substantive chain length), each valid
_COMPARE_TABLE = {
    "no-valid-candidate": ([], {}, (EvidenceClass.FAILURE, None, False)),
    "one-valid-unscored": ([("b0", 0, 1)], {}, (EvidenceClass.SINGLE_EXECUTION, "b0", False)),
    "none-scored-shorter-chain-wins": (
        [("b0", 0, 2), ("b1", 1, 1)], {}, (EvidenceClass.SINGLE_EXECUTION, "b1", False)
    ),
    "none-scored-lower-slot-wins": (
        [("b1", 1, 1), ("b0", 0, 1)], {}, (EvidenceClass.SINGLE_EXECUTION, "b0", False)
    ),
    "one-scored-beats-shorter-unscored": (
        [("b0", 0, 3), ("b1", 1, 1)], {"b0": {"quality": -5.0}}, (EvidenceClass.SINGLE_EXECUTION, "b0", True)
    ),
    "two-scored-higher-quality-wins": (
        [("b0", 0, 1), ("b1", 1, 2)],
        {"b0": {"quality": -0.8}, "b1": {"quality": -0.2}},
        (EvidenceClass.COMPARATIVE, "b1", True),
    ),
    "equal-quality-shorter-chain-wins": (
        [("b0", 0, 2), ("b1", 1, 1)],
        {"b0": {"quality": -0.5}, "b1": {"quality": -0.5}},
        (EvidenceClass.COMPARATIVE, "b1", True),
    ),
    "equal-quality-and-chain-lower-slot-wins": (
        [("b1", 1, 1), ("b0", 0, 1)],
        {"b0": {"quality": 0}, "b1": {"quality": 0}},
        (EvidenceClass.COMPARATIVE, "b0", True),
    ),
    "report-without-quality-stays-unscored": (
        [("b0", 0, 1), ("b1", 1, 2)],
        {"b0": {"report": {"mae": 0.1}}, "b1": {"quality": -0.3}},
        (EvidenceClass.SINGLE_EXECUTION, "b1", True),
    ),
    "reports-without-quality-score-nothing": (
        [("b0", 0, 2), ("b1", 1, 1)], {"b0": {}, "b1": {"report": {}}}, (EvidenceClass.SINGLE_EXECUTION, "b1", False)
    ),
}


class TestCompare:
    """``compare`` decides an episode's evidence class and winner from its
    valid candidates and their evaluation reports alone."""

    @pytest.mark.parametrize("rows, reports, expected", list(_COMPARE_TABLE.values()), ids=list(_COMPARE_TABLE))
    def test_table(self, rows, reports, expected):
        valid = [
            CandidateExecution(branch_id=b, slot=slot, final_answer=None, valid=True, substantive_chain=("t",) * n)
            for b, slot, n in rows
        ]
        assert compare(valid, reports) == expected
        for c in valid:
            report = reports.get(c.branch_id, {})
            assert c.quality == (float(report["quality"]) if "quality" in report else None)


class TestInstanceInvariants:
    def test_series_must_be_non_empty(self):
        with pytest.raises(ContractError):
            TaskInstance(id="x", series=(), task_type=TaskType.FORECAST, horizon=1, scope="s")

    def test_classification_needs_label_space(self):
        with pytest.raises(ContractError):
            TaskInstance(
                id="x", series=(1.0,), task_type=TaskType.TREND, horizon=1, scope="s"
            )

    def test_label_space_only_for_classification(self):
        with pytest.raises(ContractError):
            TaskInstance(
                id="x",
                series=(1.0,),
                task_type=TaskType.FORECAST,
                horizon=1,
                scope="s",
                label_space=("a",),
            )

    def test_timestamps_strictly_increase(self):
        with pytest.raises(ContractError):
            TaskInstance(
                id="x",
                series=(1.0, 2.0),
                task_type=TaskType.FORECAST,
                horizon=1,
                scope="s",
                timestamps=("2024-01-02", "2024-01-01"),
            )


SAMPLE_RECORDS = st.fixed_dictionaries(
    {
        "id": st.text(max_size=8),
        "series": st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=12),
        "task_type": st.sampled_from(["forecast", "trend"]),
        "horizon": st.integers(1, 48),
        "scope": st.text(max_size=8),
    },
    optional={
        "text": st.lists(st.fixed_dictionaries({"body": st.text(max_size=6)}, optional={"date": st.text(max_size=6)}), max_size=2),
    },
).map(lambda r: {**r, "label_space": ["down", "up"]} if r["task_type"] == "trend" else r)


def _variant_line(record, data):
    """The record as another corpus line: keys shuffled, spaced, and each
    integral series value within the exact integer range written as an int."""
    keys = data.draw(st.permutations(sorted(record)))
    series = [int(v) if v.is_integer() and abs(v) < 2**53 and math.copysign(1, v) > 0 else v for v in record["series"]]
    shuffled = {key: (series if key == "series" else record[key]) for key in keys}
    return json.dumps(shuffled, indent=data.draw(st.sampled_from([None, 1, 3])), separators=(", ", " : "))


class TestSampleDigest:
    """``TaskInstance.digest`` names a sample in a trace header."""

    @given(record=SAMPLE_RECORDS, data=st.data())
    def test_equal_samples_have_equal_digests_whatever_the_line(self, record, data):
        canonical = parse_record(json.loads(json.dumps(record, sort_keys=True)))
        assert parse_record(json.loads(_variant_line(record, data))).digest == canonical.digest
        assert len(canonical.digest) == 16 and int(canonical.digest, 16) >= 0

    @given(record=SAMPLE_RECORDS, data=st.data())
    def test_any_changed_public_field_changes_the_digest(self, record, data):
        digest = parse_record(record).digest
        i = data.draw(st.integers(0, len(record["series"]) - 1))
        up = math.nextafter(record["series"][i], math.inf)  # one ulp away
        moved = up if math.isfinite(up) else math.nextafter(record["series"][i], -math.inf)
        changes = [
            {"id": record["id"] + "x"},
            {"scope": record["scope"] + "x"},
            {"horizon": record["horizon"] + 1},
            {"text": [*record.get("text", []), {"body": "b"}]},
            {"series": [*record["series"][:i], moved, *record["series"][i + 1:]]},
            {"series": [*record["series"], 0.0]},
        ]
        if record["task_type"] == "trend":
            changes += [{"label_space": ["down", "flat", "up"]}, {"task_type": "trend_past"}]
        else:
            changes.append({"task_type": "indicator"})
        for change in changes:
            assert parse_record({**record, **change}).digest != digest, change

    def test_zero_and_negative_zero_differ(self):
        record = {"id": "z", "series": [1.0, 0.0], "task_type": "forecast", "horizon": 1, "scope": "s"}
        assert parse_record(record).digest != parse_record({**record, "series": [1.0, -0.0]}).digest

    def test_the_ground_truth_is_not_part_of_it(self, forecast_instance):
        assert dataclasses.replace(forecast_instance, ground_truth=None).digest == forecast_instance.digest
