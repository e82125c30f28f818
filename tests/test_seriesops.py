from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from timeclaw import seriesops

# Plain numpy forms of the helpers, one numpy call per statistic: the
# reference the shared-reduction helpers must match bit for bit.


def population_std_oracle(values):
    return float(np.std(np.asarray(values, dtype=float)))


def ols_slope_oracle(values):
    v = np.asarray(values, dtype=float)
    if len(v) < 2:
        return 0.0
    x = np.arange(len(v), dtype=float)
    xm = x - x.mean()
    denom = float(np.dot(xm, xm))
    if denom == 0.0:
        return 0.0
    return float(np.dot(xm, v - v.mean()) / denom)


def trend_label_oracle(values):
    slope = ols_slope_oracle(values)
    std = population_std_oracle(values)
    if std == 0.0:
        return "stable", slope, 0.0
    normalized = slope * len(values) / std
    if abs(normalized) < seriesops.TREND_STABLE_CUTOFF:
        return "stable", slope, normalized
    return ("increasing" if normalized > 0 else "decreasing"), slope, normalized


def lagged_correlation_oracle(values, lag):
    v = np.asarray(values, dtype=float)
    if lag < 1 or lag > len(v) - 2:
        return 0.0, False
    a, b = v[:-lag], v[lag:]
    sa, sb = np.std(a), np.std(b)
    if sa == 0.0 or sb == 0.0:
        return 0.0, False
    return float(np.mean((a - a.mean()) * (b - b.mean())) / (sa * sb)), True


def zscores_oracle(values):
    v = np.asarray(values, dtype=float)
    std = float(np.std(v))
    if std == 0.0:
        return [0.0] * len(v)
    return [float(z) for z in (v - v.mean()) / std]


def split_half_stationarity_oracle(values):
    v = np.asarray(values, dtype=float)
    half = len(v) // 2
    if half < 2:
        return {"stationary": True, "mean_shift": 0.0, "var_ratio": 1.0}
    a, b = v[:half], v[half:]
    scale = float(np.std(v))
    mean_shift = abs(float(b.mean() - a.mean())) / scale if scale > 0 else 0.0
    va, vb = float(np.var(a)), float(np.var(b))
    var_ratio = vb / va if va > 0 else (1.0 if vb == 0 else float("inf"))
    stationary = mean_shift < 0.5 and 0.25 <= var_ratio <= 4.0
    return {"stationary": bool(stationary), "mean_shift": mean_shift, "var_ratio": var_ratio}


def profile_oracle(values):
    label, slope, normalized = trend_label_oracle(values)
    stationarity = split_half_stationarity_oracle(values)
    return seriesops.Profile(
        mean=float(np.asarray(values, dtype=float).mean()),
        std=population_std_oracle(values),
        trend_class=label,
        trend_slope=slope,
        trend_normalized=normalized,
        stationary=stationarity["stationary"],
        mean_shift=stationarity["mean_shift"],
        n_anomalies=sum(1 for z in zscores_oracle(values) if abs(z) > seriesops.ANOMALY_Z),
    )


def dominant_period_oracle(values):
    """Reference: one plain lagged_correlation per lag, ascending."""
    n = len(values)
    scores = []
    best_r = -math.inf
    for lag in range(2, n // 2 + 1):
        r, defined = lagged_correlation_oracle(values, lag)
        if defined:
            scores.append((lag, r))
            best_r = max(best_r, r)
    if not scores:
        return None, False, None
    for lag, r in scores:  # ascending lag order
        if r >= best_r - seriesops._PERIOD_TIE_MARGIN:
            return lag, r >= seriesops.PERIOD_SIGNIFICANCE, r
    return None, False, None


def bits(x):
    """``x`` with every float as its repr, so == compares bits (nan included)
    and a float never equals an int or a bool of the same value."""
    if isinstance(x, float):
        return ("float", repr(x))
    if isinstance(x, (list, tuple)):
        return type(x).__name__, [bits(v) for v in x]
    if isinstance(x, dict):
        return {k: bits(v) for k, v in x.items()}
    return type(x).__name__, x


def assert_helpers_match_oracles(values):
    assert bits(seriesops.population_std(values)) == bits(population_std_oracle(values))
    assert bits(seriesops.trend_label(values)) == bits(trend_label_oracle(values))
    assert bits(seriesops.zscores(values)) == bits(zscores_oracle(values))
    assert bits(seriesops.split_half_stationarity(values)) == bits(split_half_stationarity_oracle(values))
    assert bits(seriesops.profile(values)) == bits(profile_oracle(values))
    for lag in range(len(values) + 1):
        assert bits(seriesops.lagged_correlation(values, lag)) == bits(lagged_correlation_oracle(values, lag))
    assert bits(seriesops.dominant_period(values)) == bits(dominant_period_oracle(values))


def _series(kind, n, seed, period):
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    if kind == "noise":
        return rng.normal(0.0, rng.uniform(0.1, 10.0), n)
    if kind == "sinusoid":
        return np.sin(2 * np.pi * t / period) + rng.normal(0.0, rng.uniform(0.0, 1.0), n)
    if kind == "rounded":
        return np.round(2 * np.sin(2 * np.pi * t / period) + rng.normal(0.0, 1.0, n))
    if kind == "spike":
        v = np.zeros(n)
        if n:
            v[rng.integers(n)] = rng.uniform(-100.0, 100.0)
        return v
    if kind == "constant_half":
        v = np.full(n, 3.0)
        tail = rng.normal(0.0, 1.0, n - n // 2)
        if seed % 2:
            v[n // 2 :] = tail
        else:
            v[: len(tail)] = tail
        return v
    # a large offset stresses cancellation in the prefix sums
    return 1e6 + 0.01 * np.sin(2 * np.pi * t / period) + rng.normal(0.0, 1e-3, n)


KINDS = ("noise", "sinusoid", "rounded", "spike", "constant_half", "offset")


EMPTY_SERIES_WARNINGS = pytest.mark.filterwarnings(
    "ignore:Mean of empty slice", "ignore:invalid value encountered", "ignore:Degrees of freedom"
)


@EMPTY_SERIES_WARNINGS
@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    n=st.integers(0, 200),
    seed=st.integers(0, 2**32 - 1),
    period=st.integers(2, 60),
)
def test_dominant_period_matches_oracle(kind, n, seed, period):
    """...and so does every other helper its plain numpy form, bit for bit."""
    assert_helpers_match_oracles(_series(kind, n, seed, period))


@EMPTY_SERIES_WARNINGS
@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-3, 3), max_size=200))
def test_dominant_period_matches_oracle_on_small_integers(values):
    # many exact ties: exercises the tie margin and the smallest-lag rule
    assert_helpers_match_oracles(values)


@EMPTY_SERIES_WARNINGS
@pytest.mark.parametrize("n", range(6))
def test_short_series(n):
    for values in ([float(i) for i in range(n)], [float((i * 7) % 3) for i in range(n)]):
        assert_helpers_match_oracles(values)
    assert seriesops.dominant_period([1.0] * n) == (None, False, None)


def test_constant_series_has_no_period():
    assert seriesops.dominant_period([5.0] * 50) == (None, False, None)
    assert dominant_period_oracle([5.0] * 50) == (None, False, None)


def test_exact_harmonic_reports_fundamental():
    values = [math.sin(2 * math.pi * t / 24) for t in range(120)]
    lag, significant, r = seriesops.dominant_period(values)
    assert (lag, significant) == (24, True)
    assert dominant_period_oracle(values) == (24, True, r)


# Each series puts one lag's r within a few ulps of best_r - 0.01, where only
# an exact recomputation decides the way the per-lag loop does.
KNIFE_EDGE = [
    [
        -1.0322915646825759, 0.38334575510053914, 1.3084201738865733,
        0.014810822300157234, 0.8666549276209211, -1.29842202274768, 2.759692911766133,
        1.069742517614859, -1.383973627986304, -0.8700614360884344,
        -0.12599046176830953, -1.6051588980232678, -0.2736557931552236,
        -0.6245641023891526, 1.148096698086408, 0.8360572437710202, -2.68986529946996,
        -0.06904525260081265, -1.3328687145066938, 0.9875193393736406,
        0.11647320843904065, 0.2972197181333943, -1.2640668612660646, 1.350645239125556,
        2.21609477164951, -1.4964682209225943
    ],
    [
        -1.4179702572364863, -1.454711053878266, 0.15072367252153485,
        0.9417073311546194, -0.329102000422974, 0.1125480285695245, -0.1487419648415054,
        0.09846912621319628, -1.5529084869965624, -0.009934009978588176,
        1.6467314818439476, -0.69355752376807, 0.09951993388443747, 0.6808881356789114,
        -0.4694710461906694, -0.35238881060056976, -0.8459743926908285,
        0.17892338828802823, 1.416330502740564, 0.35745090782483363, 1.5035353050196383,
        -0.729199556858209, -0.10841081556306711, 0.626575313538217,
        -0.1961857268199918, -1.7763717118280136, -0.7314262943884973,
        0.03471776363526788, -0.9491001159341781
    ],
    [
        -0.2875390701060966, -0.9233348480058884, 0.8587623345104786,
        0.014073368117794508, -1.0860602317874868, 1.2006868483966149,
        -0.19638477577057378, 1.103343538161715, 0.03774703942005736,
        1.8952754253809623, -1.9047633729429152, 0.30050640699768594,
        0.17957997606680526, -0.006511427943422632
    ],
]


@pytest.mark.parametrize("values", KNIFE_EDGE)
def test_knife_edge_at_tie_cutoff(values):
    assert bits(seriesops.dominant_period(values)) == bits(dominant_period_oracle(values))
