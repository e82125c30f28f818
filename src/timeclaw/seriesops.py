"""Pure numeric helpers over raw series, shared by the toolkit and the
prompt assembler (which must profile without producing artifacts)."""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

# |ols_slope * length / std| below this is called "stable"; mirrors the
# day-mean +-0.5 style cutoff used by the trend task contracts.
TREND_STABLE_CUTOFF = 0.5

# Minimum lagged correlation for a dominant period to count as significant.
PERIOD_SIGNIFICANCE = 0.5


def population_std(values: Sequence[float]) -> float:
    return float(np.std(np.asarray(values, dtype=float)))


def ols_slope(values: Sequence[float]) -> float:
    """Least-squares slope of value against 0-based index."""
    v = np.asarray(values, dtype=float)
    if len(v) < 2:
        return 0.0
    x = np.arange(len(v), dtype=float)
    xm = x - x.mean()
    denom = float(np.dot(xm, xm))
    if denom == 0.0:
        return 0.0
    return float(np.dot(xm, v - v.mean()) / denom)


def trend_label(values: Sequence[float]) -> tuple[str, float, float]:
    """(label, slope, normalized slope) where the label is one of
    increasing/decreasing/stable by the normalized-slope cutoff."""
    slope = ols_slope(values)
    std = population_std(values)
    if std == 0.0:
        return "stable", slope, 0.0
    normalized = slope * len(values) / std
    if abs(normalized) < TREND_STABLE_CUTOFF:
        return "stable", slope, normalized
    return ("increasing" if normalized > 0 else "decreasing"), slope, normalized


def lagged_correlation(values: Sequence[float], lag: int) -> tuple[float, bool]:
    """Pearson correlation between the series and its lag-shifted view.

    Returns (r, defined); r is 0.0 when either segment has zero variance.
    """
    v = np.asarray(values, dtype=float)
    if lag < 1 or lag > len(v) - 2:
        return 0.0, False
    a, b = v[:-lag], v[lag:]
    sa, sb = np.std(a), np.std(b)
    if sa == 0.0 or sb == 0.0:
        return 0.0, False
    r = float(np.mean((a - a.mean()) * (b - b.mean())) / (sa * sb))
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


def dominant_period(values: Sequence[float]) -> tuple[Optional[int], bool]:
    """Max lagged correlation over lags 2..len/2, with a significance flag.

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
        return None, False
    c = v - v.mean()  # centring keeps offset series from cancelling
    m = n - lags
    s1 = np.concatenate(([0.0], np.cumsum(c)))
    s2 = np.concatenate(([0.0], np.cumsum(c * c)))
    cross = np.correlate(c, c, "full")[n - 1 + lags]
    mean_a, mean_b = s1[m] / m, (s1[n] - s1[lags]) / m
    var_a = s2[m] / m - mean_a * mean_a
    var_b = (s2[n] - s2[lags]) / m - mean_b * mean_b
    with np.errstate(all="ignore"):
        r = (cross / m - mean_a * mean_b) / np.sqrt(var_a * var_b)
    floor = _VAR_FLOOR * n * float(np.max(c * c))
    exact = np.zeros(len(lags), dtype=bool)
    defined = np.ones(len(lags), dtype=bool)

    def settle(idx: np.ndarray) -> None:
        for i in idx[~exact[idx]]:
            r[i], defined[i] = lagged_correlation(v, int(lags[i]))
            exact[i] = True

    settle(np.flatnonzero(~np.isfinite(r) | (np.minimum(var_a, var_b) <= floor)))
    if not defined.any():
        return None, False
    tol = np.where(exact, 0.0, _R_TOLERANCE)
    lowest_best = np.max(np.where(defined, r - tol, -math.inf))
    settle(np.flatnonzero(defined & (r + tol >= lowest_best)))
    best_r = float(np.max(r[defined]))
    cut = best_r - _PERIOD_TIE_MARGIN
    settle(np.flatnonzero(defined & (np.abs(r - cut) <= _R_TOLERANCE)))
    first = np.flatnonzero(defined & (r >= cut))[:1]  # ascending lag order
    settle(first)
    return int(lags[first[0]]), bool(r[first[0]] >= PERIOD_SIGNIFICANCE)


def zscores(values: Sequence[float]) -> list[float]:
    v = np.asarray(values, dtype=float)
    std = float(np.std(v))
    if std == 0.0:
        return [0.0] * len(v)
    return [float(z) for z in (v - v.mean()) / std]


def split_half_stationarity(values: Sequence[float]) -> dict[str, float | bool]:
    """Cheap stationarity check comparing the two halves of the series."""
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
    return {
        "stationary": bool(stationary),
        "mean_shift": mean_shift,
        "var_ratio": var_ratio,
    }
