"""Pure numeric helpers over raw series, shared by the toolkit and the
prompt assembler (which must profile without producing artifacts).

Every helper takes its mean and variance from one set of reductions,
``_moments``: the sums ``np.mean`` and ``np.var`` make, done once, so each
result is bit-identical to the plain numpy formula. ``profile`` gives a
sample's whole profile from one such set, and ``dominant_period`` returns the
exact r at the lag it picks, so a profile needs no second correlation.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence

import numpy as np

# |slope * length / std| below this is called "stable"; mirrors the
# day-mean +-0.5 style cutoff used by the trend task contracts.
TREND_STABLE_CUTOFF = 0.5

# Minimum lagged correlation for a dominant period to count as significant.
PERIOD_SIGNIFICANCE = 0.5

# |z| above this counts as an anomaly in a profile
ANOMALY_Z = 3.0


def _moments(v: np.ndarray) -> tuple[float, np.ndarray, float]:
    """(mean, centred series, population variance) of ``v``.

    numpy computes ``mean`` as ``add.reduce`` followed by a divide by n, and
    ``var`` as the same mean, the centred series, and ``add.reduce`` of its
    squares divided by n; doing those steps once here gives their exact floats.
    """
    n = len(v)
    mean = np.add.reduce(v) / n
    c = v - mean
    return float(mean), c, float(np.add.reduce(c * c) / n)


def population_std(values: Sequence[float]) -> float:
    return math.sqrt(_moments(np.asarray(values, dtype=float))[2])


def _centred_slope(c: np.ndarray) -> float:
    """Least-squares slope against 0-based index of a series whose mean is
    already subtracted."""
    n = len(c)
    if n < 2:
        return 0.0
    # the mean of 0..n-1 is (n - 1) / 2 exactly, as np.mean computes it too
    xm = np.arange(n, dtype=float) - (n - 1) / 2
    return float(np.dot(xm, c) / np.dot(xm, xm))


def _trend(slope: float, n: int, std: float) -> tuple[str, float]:
    if std == 0.0:
        return "stable", 0.0
    normalized = slope * n / std
    if abs(normalized) < TREND_STABLE_CUTOFF:
        return "stable", normalized
    return ("increasing" if normalized > 0 else "decreasing"), normalized


def trend_label(values: Sequence[float]) -> tuple[str, float, float]:
    """(label, slope, normalized slope) where the label is one of
    increasing/decreasing/stable by the normalized-slope cutoff."""
    v = np.asarray(values, dtype=float)
    _mean, c, var = _moments(v)
    slope = _centred_slope(c)
    label, normalized = _trend(slope, len(v), math.sqrt(var))
    return label, slope, normalized


def lagged_correlation(values: Sequence[float], lag: int) -> tuple[float, bool]:
    """Pearson correlation between the series and its lag-shifted view.

    Returns (r, defined); r is 0.0 when either segment has zero variance.
    """
    v = np.asarray(values, dtype=float)
    if lag < 1 or lag > len(v) - 2:
        return 0.0, False
    _mean_a, ca, var_a = _moments(v[:-lag])
    _mean_b, cb, var_b = _moments(v[lag:])
    if var_a == 0.0 or var_b == 0.0:
        return 0.0, False
    r = float(np.add.reduce(ca * cb) / len(ca)) / (math.sqrt(var_a) * math.sqrt(var_b))
    return r, True


# near-maximal correlations within this margin count as ties; the smallest
# such lag wins so harmonics of the fundamental period are not reported
_PERIOD_TIE_MARGIN = 0.01

# The scan's r differs from lagged_correlation's by far less than this while
# both segment variances exceed _VAR_FLOOR * n * max(c**2), c being the
# centred series: its prefix sums and dot products of n terms err by about
# n * eps * max(c**2), which a variance above the floor turns into an error
# in r below 1e-8. A lag whose r lies within the tolerance of a decision
# threshold, or whose variance is under the floor, is recomputed with
# lagged_correlation.
_R_TOLERANCE = 1e-7
_VAR_FLOOR = 1e-6


def dominant_period(values: Sequence[float]) -> tuple[Optional[int], bool, Optional[float]]:
    """Max lagged correlation over lags 2..len/2: (lag, significant, r), r
    being lagged_correlation's exact value at that lag; (None, False, None)
    when no lag is defined.

    Among near-maximal lags the smallest is returned, so a daily cycle reads
    as 24 rather than one of its multiples.

    All lags are scored in one pass: prefix sums give each lag's segment
    means and variances and one autocorrelation gives every lag's cross
    products (Box & Jenkins, ch. 2). Every decision, including the zero
    variance test, is the one the exact per-lag lagged_correlation makes.
    """
    v = np.asarray(values, dtype=float)
    n = len(v)
    lags = np.arange(2, n // 2 + 1)
    if not len(lags):
        return None, False, None
    c = v - np.add.reduce(v) / n  # centring keeps offset series from cancelling
    c2 = c * c
    m = n - lags
    s1 = np.concatenate(([0.0], c.cumsum()))
    s2 = np.concatenate(([0.0], c2.cumsum()))
    cross = np.correlate(c, c, "full")[n - 1 + lags]
    mean_a, mean_b = s1[m] / m, (s1[n] - s1[lags]) / m
    var_a = s2[m] / m - mean_a * mean_a
    var_b = (s2[n] - s2[lags]) / m - mean_b * mean_b
    with np.errstate(all="ignore"):
        r = (cross / m - mean_a * mean_b) / np.sqrt(var_a * var_b)
    floor = _VAR_FLOOR * n * float(c2.max())
    exact = np.zeros(len(lags), dtype=bool)
    defined = np.ones(len(lags), dtype=bool)

    def settle(idx: np.ndarray) -> None:
        for i in idx[~exact[idx]]:
            r[i], defined[i] = lagged_correlation(v, int(lags[i]))
            exact[i] = True

    settle((~np.isfinite(r) | (np.minimum(var_a, var_b) <= floor)).nonzero()[0])
    if not defined.any():
        return None, False, None
    tol = np.where(exact, 0.0, _R_TOLERANCE)
    lowest_best = np.where(defined, r - tol, -math.inf).max()
    settle((defined & (r + tol >= lowest_best)).nonzero()[0])
    best_r = float(r[defined].max())
    cut = best_r - _PERIOD_TIE_MARGIN
    settle((defined & (np.abs(r - cut) <= _R_TOLERANCE)).nonzero()[0])
    first = (defined & (r >= cut)).nonzero()[0][:1]  # ascending lag order
    settle(first)
    r_first = float(r[first[0]])
    return int(lags[first[0]]), r_first >= PERIOD_SIGNIFICANCE, r_first


def _zscores(c: np.ndarray, std: float) -> np.ndarray:
    return c / std if std != 0.0 else np.zeros(len(c))


def zscores(values: Sequence[float]) -> list[float]:
    _mean, c, var = _moments(np.asarray(values, dtype=float))
    return _zscores(c, math.sqrt(var)).tolist()


def _stationarity(v: np.ndarray, scale: float) -> dict[str, float | bool]:
    half = len(v) // 2
    if half < 2:
        return {"stationary": True, "mean_shift": 0.0, "var_ratio": 1.0}
    mean_a, _ca, va = _moments(v[:half])
    mean_b, _cb, vb = _moments(v[half:])
    mean_shift = abs(mean_b - mean_a) / scale if scale > 0 else 0.0
    var_ratio = vb / va if va > 0 else (1.0 if vb == 0 else float("inf"))
    stationary = mean_shift < 0.5 and 0.25 <= var_ratio <= 4.0
    return {
        "stationary": stationary,
        "mean_shift": mean_shift,
        "var_ratio": var_ratio,
    }


def split_half_stationarity(values: Sequence[float]) -> dict[str, float | bool]:
    """Cheap stationarity check comparing the two halves of the series."""
    v = np.asarray(values, dtype=float)
    return _stationarity(v, math.sqrt(_moments(v)[2]))


class Profile(NamedTuple):
    mean: float
    std: float
    trend_class: str
    trend_slope: float
    trend_normalized: float
    stationary: bool
    mean_shift: float
    n_anomalies: int


def profile(values: Sequence[float]) -> Profile:
    """What trend_label, split_half_stationarity and zscores say of the
    series, with its mean and std, from one set of reductions."""
    v = np.asarray(values, dtype=float)
    mean, c, var = _moments(v)
    std = math.sqrt(var)
    slope = _centred_slope(c)
    label, normalized = _trend(slope, len(v), std)
    stationarity = _stationarity(v, std)
    return Profile(
        mean=mean,
        std=std,
        trend_class=label,
        trend_slope=slope,
        trend_normalized=normalized,
        stationary=stationarity["stationary"],
        mean_shift=stationarity["mean_shift"],
        n_anomalies=int(np.count_nonzero(np.abs(_zscores(c, std)) > ANOMALY_Z)),
    )
