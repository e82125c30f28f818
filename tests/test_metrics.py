from __future__ import annotations

import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from timeclaw import metrics
from timeclaw.errors import ContractError

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def naive_mae(pred, truth):
    total = 0.0
    for p, t in zip(pred, truth):
        total += abs(p - t)
    return total / len(pred)


def naive_mse(pred, truth):
    total = 0.0
    for p, t in zip(pred, truth):
        total += (p - t) ** 2
    return total / len(pred)


def naive_mape(pred, truth):
    total = 0.0
    for p, t in zip(pred, truth):
        total += abs((p - t) / t)
    return total / len(pred) * 100.0


class TestPointwiseMetrics:
    def test_identical_vectors(self):
        assert metrics.mae([1.0, 2.0], [1.0, 2.0]) == 0.0
        assert metrics.mse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_mae_by_hand(self):
        assert metrics.mae([0.0, 2.0], [1.0, 1.0]) == pytest.approx(1.0)

    def test_mape_ratio(self):
        # endpoint 62.544 vs latest observed 61.94 -> +0.975% change magnitude
        value = metrics.mape([62.544], [61.94])
        assert value == pytest.approx(0.9752, abs=1e-3)
        assert value == pytest.approx(abs(62.544 - 61.94) / 61.94 * 100.0, rel=1e-12)

    def test_mape_undefined_on_zero_truth(self):
        assert metrics.mape([1.0, 2.0], [1.0, 0.0]) is None

    def test_length_mismatch_is_contract_error(self):
        with pytest.raises(ContractError):
            metrics.mae([1.0], [1.0, 2.0])

    def test_oracle_equivalence(self):
        rng = random.Random(4)
        for _ in range(300):
            n = rng.randint(1, 100)
            pred = [rng.uniform(-100, 100) for _ in range(n)]
            truth = [rng.uniform(1, 100) for _ in range(n)]
            assert metrics.mae(pred, truth) == pytest.approx(naive_mae(pred, truth), rel=1e-12)
            assert metrics.mse(pred, truth) == pytest.approx(naive_mse(pred, truth), rel=1e-12)
            assert metrics.rmse(pred, truth) == pytest.approx(
                math.sqrt(naive_mse(pred, truth)), rel=1e-12
            )
            assert metrics.mape(pred, truth) == pytest.approx(naive_mape(pred, truth), rel=1e-12)

    def test_mse_past_the_float_range_is_inf_without_a_warning(self, recwarn):
        assert metrics.mse([1e200, 0.0], [-1e200, 0.0]) == math.inf
        assert metrics.rmse([1e200], [0.0]) == math.inf
        assert not recwarn.list

    def test_rmse_squares_to_mse(self):
        rng = random.Random(5)
        for _ in range(50):
            n = rng.randint(1, 40)
            pred = [rng.uniform(-10, 10) for _ in range(n)]
            truth = [rng.uniform(-10, 10) for _ in range(n)]
            r, m = metrics.rmse(pred, truth), metrics.mse(pred, truth)
            assert r * r == pytest.approx(m, rel=1e-9, abs=1e-15)


# everyday magnitudes, where a reordered formula shows in the last bit, and
# magnitudes up to 1e200, where a squared error passes the float range and the
# MSE is inf; the examples add zero and -0.0 truths, where mape is undefined
_report_floats = st.floats(min_value=-1e3, max_value=1e3) | st.floats(min_value=-1e200, max_value=1e200)


class TestNumericReport:
    @given(
        st.integers(1, 60).flatmap(
            lambda n: st.tuples(*(st.lists(_report_floats, min_size=n, max_size=n) for _ in range(2)))
        )
    )
    @example(([1.0, 2.0], [0.0, 3.0]))
    @example(([1.0, -2.5, 1e-3], [4.0, -0.0, 2.0]))
    @example(([1e200, -3.0], [-1e200, 7.0]))
    @example(([0.1] * 60, [0.3] * 60))
    def test_each_field_is_the_single_metric_functions_float(self, vectors):
        pred, truth = vectors
        with np.errstate(over="ignore"):  # d / t past the float range, alike in both
            report = metrics.numeric_report(pred, truth)
            expected = (
                metrics.mae(pred, truth), metrics.mape(pred, truth), metrics.rmse(pred, truth), metrics.mse(pred, truth)
            )
        assert repr((report.mae, report.mape, report.rmse, report.mse)) == repr(expected)
        assert report.n_points == len(truth)

    @pytest.mark.parametrize(
        "pred,truth,expected",
        [
            ([1e200, 0.0], [-1e200, -0.0], (1e200, None, math.inf)),
            ([1.0], [1e-310], (1.0, math.inf, 1.0)),
            ([1.7e308], [-1.7e308], (math.inf, math.inf, math.inf)),
        ],
        ids=["squared-error", "error-over-truth", "error"],
    )
    def test_an_overflowing_report_is_inf_without_a_warning(self, pred, truth, expected):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = metrics.numeric_report(pred, truth)
            single = (metrics.mae(pred, truth), metrics.mape(pred, truth), metrics.mse(pred, truth))
        assert (report.mae, report.mape, report.mse) == single == expected
        assert report.rmse == math.sqrt(report.mse)


class TestAlignLength:
    def test_identity_on_matching_length(self):
        assert metrics.align_length([5.0, 7.0, 9.0], 3) == [5.0, 7.0, 9.0]

    def test_linear_midpoint(self):
        assert metrics.align_length([0.0, 2.0], 3) == pytest.approx([0.0, 1.0, 2.0])

    def test_downsample_keeps_endpoints(self):
        assert metrics.align_length([1.0, 2.0, 3.0, 4.0], 2) == [1.0, 4.0]

    def test_empty_pred_is_contract_error(self):
        with pytest.raises(ContractError):
            metrics.align_length([], 3)

    @given(st.lists(finite_floats, min_size=1, max_size=50))
    def test_identity_property(self, pred):
        assert metrics.align_length(pred, len(pred)) == [float(v) for v in pred]

    @given(st.lists(finite_floats, min_size=2, max_size=50), st.integers(min_value=2, max_value=80))
    def test_endpoint_preservation(self, pred, target):
        out = metrics.align_length(pred, target)
        assert len(out) == target
        assert out[0] == pytest.approx(pred[0])
        assert out[-1] == pytest.approx(pred[-1])

    @given(
        st.lists(st.floats(min_value=0, max_value=1e3, allow_nan=False), min_size=2, max_size=30),
        st.integers(min_value=2, max_value=60),
    )
    def test_monotone_inputs_stay_monotone(self, deltas, target):
        pred = []
        acc = 0.0
        for d in deltas:
            acc += d
            pred.append(acc)
        out = metrics.align_length(pred, target)
        assert all(a <= b + 1e-9 for a, b in zip(out, out[1:]))


class TestLabelMapping:
    FIVE_WAY = ("< -4%", "-4% ~ -2%", "-2% ~ +2%", "+2% ~ +4%", "> +4%")

    def test_symmetric_collapse(self):
        assert metrics.map_5way_to_3way("+2% ~ +4%", self.FIVE_WAY) == "up"
        assert metrics.map_5way_to_3way("-2% ~ +2%", self.FIVE_WAY) == "neutral"
        assert metrics.map_5way_to_3way("< -4%", self.FIVE_WAY) == "down"
        assert metrics.map_5way_to_3way("-4% ~ -2%", self.FIVE_WAY) == "down"

    def test_unknown_label_is_contract_error(self):
        with pytest.raises(ContractError):
            metrics.map_5way_to_3way("sideways", self.FIVE_WAY)

    def test_equal_labels_stay_equal(self):
        for a in self.FIVE_WAY:
            assert metrics.map_5way_to_3way(a, self.FIVE_WAY) == metrics.map_5way_to_3way(
                a, self.FIVE_WAY
            )


class TestSupervisionMetric:
    def test_mapping(self):
        assert metrics.supervision_metric("forecast", "finance_forecast_short") == "mae"
        assert metrics.supervision_metric("forecast", "weather_forecast_short") == "mse"
        assert metrics.supervision_metric("forecast", "finance_macd_short") == "mse"
        assert metrics.supervision_metric("indicator", "weather_indicator_short") == "mse"
        assert metrics.supervision_metric("trend", "finance_trend_short") == "accuracy"


def _row(mae_value):
    return metrics.MetricReport(n_points=2, mae=mae_value, mse=mae_value**2, rmse=mae_value)


class TestSummarize:
    def test_threshold_filtering(self):
        rows = [_row(1.0), _row(2.0), _row(1e6)]
        policy = metrics.SummaryPolicy(supervision_metric="mae", threshold=100.0)
        result = metrics.summarize(rows, policy, scope="s")
        assert result.metrics["mae"] == pytest.approx(1.5)
        assert result.effective_n == 2
        assert result.raw_n == 3
        assert result.excluded == [{"index": 2, "reason": "over_threshold"}]

    def test_single_row_plain_mean(self):
        result = metrics.summarize([_row(1.0)], metrics.SummaryPolicy())
        assert result.metrics["mae"] == pytest.approx(1.0)

    def test_all_unscorable_is_flagged_not_raised(self):
        result = metrics.summarize([metrics.Unscorable("bad")], metrics.SummaryPolicy())
        assert result.empty
        assert result.effective_n == 0
        assert result.raw_n == 1

    def test_no_threshold_equals_plain_mean(self):
        rows = [_row(v) for v in (1.0, 3.0, 5.0)]
        result = metrics.summarize(rows, metrics.SummaryPolicy())
        assert result.metrics["mae"] == pytest.approx(3.0)
        assert result.effective_n == 3

    def test_threshold_never_increases_effective_n(self):
        rows = [_row(v) for v in (1.0, 3.0, 5.0, 50.0)]
        base = metrics.summarize(rows, metrics.SummaryPolicy())
        for threshold in (0.5, 2.0, 4.0, 100.0):
            filtered = metrics.summarize(
                rows, metrics.SummaryPolicy(supervision_metric="mae", threshold=threshold)
            )
            assert filtered.effective_n <= base.effective_n

    def test_label_rows_aggregate_accuracy(self):
        rows = [metrics.label_report("a", "a"), metrics.label_report("b", "a")]
        result = metrics.summarize(rows, metrics.SummaryPolicy(supervision_metric="accuracy"))
        assert result.metrics["accuracy"] == pytest.approx(0.5)
