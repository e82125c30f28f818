from __future__ import annotations

import dataclasses
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from timeclaw import prompts, seriesops
from timeclaw.core import TaskInstance, TaskType

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


# A 48-point seasonal series whose squares pass the float range once it is
# scaled by 1e200, and stay within it scaled by 1e150.
SEASONAL_48 = [10.0 + 3.0 * math.sin(2 * math.pi * t / 12) for t in range(48)]


def test_squares_past_the_float_range_leave_every_lag_undefined():
    big = [1e200 * v for v in SEASONAL_48]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and no RuntimeWarning on the way
        assert seriesops.lagged_correlation(big, 12) == (0.0, False)
        assert seriesops.dominant_period(big) == (None, False, None)
        profile = seriesops.profile(big)
    assert profile.std == math.inf and profile.trend_class == "stable" and profile.n_anomalies == 0
    assert seriesops.dominant_period([1e150 * v for v in SEASONAL_48])[:2] == (12, True)
    assert seriesops.dominant_period(SEASONAL_48)[:2] == (12, True)


# The per-sample period scan, lagged correlation and profile before they were
# batched, kept as the reference the row-wise versions must match bit for
# bit. The lagged correlation calls a non-finite r undefined, as the fix for
# squares past the float range does.


def _reference_moments(v):
    n = len(v)
    mean = np.add.reduce(v) / n
    c = v - mean
    return float(mean), c, float(np.add.reduce(c * c) / n)


def _reference_lagged_correlation(v, lag):
    _mean_a, ca, var_a = _reference_moments(v[:-lag])
    _mean_b, cb, var_b = _reference_moments(v[lag:])
    if var_a == 0.0 or var_b == 0.0:
        return 0.0, False
    r = float(np.add.reduce(ca * cb) / len(ca)) / (math.sqrt(var_a) * math.sqrt(var_b))
    return (r, True) if math.isfinite(r) else (0.0, False)


def _reference_dominant_period(values):
    v = np.asarray(values, dtype=float)
    n = len(v)
    lags = np.arange(2, n // 2 + 1)
    if not len(lags):
        return None, False, None
    c = v - np.add.reduce(v) / n
    c2 = c * c
    m = n - lags
    s1 = np.concatenate(([0.0], c.cumsum()))
    s2 = np.concatenate(([0.0], c2.cumsum()))
    cross = np.correlate(c, c, "full")[n - 1 + lags]
    mean_a, mean_b = s1[m] / m, (s1[n] - s1[lags]) / m
    var_a = s2[m] / m - mean_a * mean_a
    var_b = (s2[n] - s2[lags]) / m - mean_b * mean_b
    r = (cross / m - mean_a * mean_b) / np.sqrt(var_a * var_b)
    floor = seriesops._VAR_FLOOR * n * float(c2.max())
    exact = np.zeros(len(lags), dtype=bool)
    defined = np.ones(len(lags), dtype=bool)

    def settle(idx):
        for i in idx[~exact[idx]]:
            r[i], defined[i] = _reference_lagged_correlation(v, int(lags[i]))
            exact[i] = True

    settle((~np.isfinite(r) | (np.minimum(var_a, var_b) <= floor)).nonzero()[0])
    if not defined.any():
        return None, False, None
    tol = np.where(exact, 0.0, seriesops._R_TOLERANCE)
    lowest_best = np.where(defined, r - tol, -math.inf).max()
    settle((defined & (r + tol >= lowest_best)).nonzero()[0])
    best_r = float(r[defined].max())
    cut = best_r - seriesops._PERIOD_TIE_MARGIN
    settle((defined & (np.abs(r - cut) <= seriesops._R_TOLERANCE)).nonzero()[0])
    first = (defined & (r >= cut)).nonzero()[0][:1]
    settle(first)
    r_first = float(r[first[0]])
    return int(lags[first[0]]), r_first >= seriesops.PERIOD_SIGNIFICANCE, r_first


def _reference_profile(values):
    v = np.asarray(values, dtype=float)
    n = len(v)
    mean, c, var = _reference_moments(v)
    std = math.sqrt(var)
    slope = 0.0
    if n >= 2:
        xm = np.arange(n, dtype=float) - (n - 1) / 2
        slope = float(np.dot(xm, c) / np.dot(xm, xm))
    if std == 0.0:
        label, normalized = "stable", 0.0
    else:
        normalized = slope * n / std
        if abs(normalized) < seriesops.TREND_STABLE_CUTOFF:
            label = "stable"
        else:
            label = "increasing" if normalized > 0 else "decreasing"
    half = n // 2
    if half < 2:
        stationary, mean_shift = True, 0.0
    else:
        mean_a, _ca, va = _reference_moments(v[:half])
        mean_b, _cb, vb = _reference_moments(v[half:])
        mean_shift = abs(mean_b - mean_a) / std if std > 0 else 0.0
        var_ratio = vb / va if va > 0 else (1.0 if vb == 0 else float("inf"))
        stationary = mean_shift < 0.5 and 0.25 <= var_ratio <= 4.0
    z = c / std if std != 0.0 else np.zeros(len(c))
    return seriesops.Profile(
        mean=mean,
        std=std,
        trend_class=label,
        trend_slope=slope,
        trend_normalized=normalized,
        stationary=stationary,
        mean_shift=mean_shift,
        n_anomalies=int(np.count_nonzero(np.abs(z) > seriesops.ANOMALY_Z)),
    )


def _reference_fingerprint(instance):
    v = np.asarray(instance.series, dtype=float)
    period, significant, period_r = _reference_dominant_period(v)
    p = _reference_profile(v)
    return prompts.SampleFingerprint(
        length=len(v),
        first=float(v[0]),
        last=float(v[-1]),
        vmin=float(v.min()),
        vmax=float(v.max()),
        mean=p.mean,
        std=p.std,
        dominant_period=period,
        period_significant=significant,
        trend_class=p.trend_class,
        boundary_event=prompts._boundary_event(instance),
        task_subtype=instance.task_type.value,
        period_r=period_r,
        trend_slope=p.trend_slope,
        trend_normalized=p.trend_normalized,
        stationary=p.stationary,
        mean_shift=p.mean_shift,
        n_anomalies=p.n_anomalies,
    )


def _row(kind, n, seed, period):
    if kind == "constant":
        return np.full(n, 7.25)
    if kind == "near_constant":  # one element a few ulps off the rest
        v = np.full(n, 1.0)
        v[seed % n] = 1.0 + (1 + seed % 3) * np.finfo(float).eps
        return v
    return np.asarray(_series(kind, n, seed, period), dtype=float)


@st.composite
def mixed_batches(draw) -> list[np.ndarray]:
    """Rows of up to three lengths in 1..300 (numpy's pairwise summation
    splits a sum past 128 terms), in a drawn order, each scaled by a power
    of ten in 1e-300..1e200, whose squares may underflow or overflow."""
    rows = []
    for n in draw(st.lists(st.integers(1, 300), min_size=1, max_size=3, unique=True)):
        for _ in range(draw(st.integers(1, 5))):
            kind = draw(st.sampled_from(KINDS + ("constant", "near_constant")))
            seed, period = draw(st.integers(0, 2**32 - 1)), draw(st.integers(2, 60))
            rows.append(_row(kind, n, seed, period) * 10.0 ** draw(st.integers(-300, 200)))
    return [rows[i] for i in draw(st.permutations(range(len(rows))))]


def _by_length(rows: list[np.ndarray]) -> list[np.ndarray]:
    groups: dict[int, list[np.ndarray]] = {}
    for row in rows:
        groups.setdefault(len(row), []).append(row)
    return [np.array(group) for group in groups.values()]


def _chunked(fn, block: np.ndarray, chunk: int) -> list:
    return [out for start in range(0, len(block), chunk) for out in fn(block[start : start + chunk])]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the reference's overflows
@settings(max_examples=150, deadline=None)
@given(mixed_batches())
def test_batched_profile_matches_the_per_sample_reference(rows):
    for block in _by_length(rows):
        periods = [_reference_dominant_period(row) for row in block]
        profiles = [_reference_profile(row) for row in block]
        for chunk in (1, 3, len(block)):
            assert bits(_chunked(seriesops.dominant_periods, block, chunk)) == bits(periods)
            assert bits(_chunked(seriesops.profiles, block, chunk)) == bits(profiles)
        for row, (period, _significant, period_r) in zip(block, periods):
            if period is not None:
                assert bits(period_r) == bits(seriesops.lagged_correlation(row, period)[0])
    instances = [
        TaskInstance(id=f"s{i}", series=tuple(row.tolist()), task_type=TaskType.FORECAST, horizon=1, scope="s")
        for i, row in enumerate(rows)
    ]
    expected = [bits(dataclasses.astuple(_reference_fingerprint(inst))) for inst in instances]
    for chunk in (1, 3, len(instances)):
        with mock.patch.object(prompts, "FINGERPRINT_CHUNK", chunk):
            got = prompts.fingerprints(instances)
        assert [bits(dataclasses.astuple(fp)) for fp in got] == expected


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the reference's overflows
@settings(max_examples=100, deadline=None)
@given(mixed_batches())
def test_every_settled_r_is_lagged_correlation_s(rows):
    """The scan settles its (row, lag) pairs one lag at a time, the rows of
    a lag reduced together: each r is the one the 1-D reference gives, bit
    for bit."""
    settled: list[tuple[np.ndarray, int, list[float], list[bool]]] = []
    correlations = seriesops._correlations

    def spy(block, lag):
        rs, defined = correlations(block, lag)
        settled.append((block, lag, rs, defined))
        return rs, defined

    with mock.patch.object(seriesops, "_correlations", spy), warnings.catch_warnings():
        warnings.simplefilter("error")  # overflow and underflow pass silently
        for block in _by_length(rows):
            seriesops.dominant_periods(block)
            seriesops.profiles(block)
    for block, lag, rs, defined in settled:
        for row, r, d in zip(block, rs, defined):
            assert bits(_reference_lagged_correlation(row, lag)) == bits((r, d))
            assert bits(seriesops.lagged_correlation(row, lag)) == bits((r, d))
