"""Pure numeric helpers over raw series, shared by the toolkit and the
prompt assembler (which must profile without producing artifacts).

Every helper takes its mean and variance from one set of reductions,
``_moments``: the sums ``np.mean`` and ``np.var`` make, done once, so each
result is bit-identical to the plain numpy formula. The sums run along the
last axis, so the same code reduces one series or each row of a ``(B, n)``
array, and numpy sums each contiguous row as it sums a 1-D array.

``profiles`` and ``dominant_periods`` profile the rows of such an array
together; ``profile`` and ``dominant_period`` are their one-row case. The
period scan returns the exact r at the lag it picks, so a profile needs no
second correlation. Batching pays off only where many series share a length:
numpy's fixed cost per call, which the rows of a batch share, falls on one
row alone in the one-row case, and there that case costs more than a
per-series scan written for 1-D arrays.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import NamedTuple, Optional, Sequence

import numpy as np

# |slope * length / std| below this is called "stable"; mirrors the
# day-mean +-0.5 style cutoff used by the trend task contracts.
TREND_STABLE_CUTOFF = 0.5

# Minimum lagged correlation for a dominant period to count as significant.
PERIOD_SIGNIFICANCE = 0.5

# |z| above this counts as an anomaly in a profile
ANOMALY_Z = 3.0

Period = tuple[Optional[int], bool, Optional[float]]


def _moments(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(mean, centred series, population variance) along the last axis of ``v``.

    numpy computes ``mean`` as ``add.reduce`` followed by a divide by n, and
    ``var`` as the same mean, the centred series, and ``add.reduce`` of its
    squares divided by n; doing those steps once here gives their exact floats.
    """
    n = v.shape[-1]
    mean = np.add.reduce(v, axis=-1) / n
    c = v - mean[..., None]
    return mean, c, np.add.reduce(c * c, axis=-1) / n


def population_std(values: Sequence[float]) -> float:
    return math.sqrt(_moments(np.asarray(values, dtype=float))[2])


def _centred_slopes(c: np.ndarray) -> np.ndarray:
    """Least-squares slope against 0-based index of each row of ``c``, whose
    mean is already subtracted. One ``np.dot`` per row: a matrix product may
    sum in another order."""
    n = c.shape[1]
    if n < 2:
        return np.zeros(len(c))
    # the mean of 0..n-1 is (n - 1) / 2 exactly, as np.mean computes it too
    xm = np.arange(n, dtype=float) - (n - 1) / 2
    return np.array([np.dot(xm, row) for row in c]) / np.dot(xm, xm)


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
    slope = float(_centred_slopes(c[None])[0])
    label, normalized = _trend(slope, len(v), math.sqrt(var))
    return label, slope, normalized


# times lag, where a lag's two segments start: the leading one at 0, the
# trailing one at lag
_SEGMENT_STARTS = np.array([[0], [1]])


def _correlations(rows: np.ndarray, lag: int) -> tuple[list[float], list[bool]]:
    """Pearson r between each row of a ``(k, n)`` array and its lag-shifted
    view, and whether it is defined: r is 0.0 and undefined where either
    segment has zero variance or r is not finite (squares past the float
    range). Both segments of every row are reduced together, as the rows of
    one ``(k, 2, n - lag)`` copy; ``np.take`` lays it out in C order, so each
    segment is reduced as a 1-D series is."""
    m = rows.shape[1] - lag
    with np.errstate(all="ignore"):
        _mean, c, var = _moments(np.take(rows, np.arange(m) + _SEGMENT_STARTS * lag, axis=1))
        cross = np.add.reduce(c[:, 0] * c[:, 1], axis=-1) / m
    rs, defined = [], []
    for x, (var_a, var_b) in zip(cross.tolist(), var.tolist()):
        sd = math.sqrt(var_a) * math.sqrt(var_b)
        r = x / sd if sd != 0.0 else math.nan
        rs.append(r if math.isfinite(r) else 0.0)
        defined.append(math.isfinite(r))
    return rs, defined


def lagged_correlation(values: Sequence[float], lag: int) -> tuple[float, bool]:
    """Pearson correlation between the series and its lag-shifted view.

    Returns (r, defined); r is 0.0 when either segment has zero variance or
    the correlation is not finite.
    """
    v = np.asarray(values, dtype=float)
    if lag < 1 or lag > len(v) - 2:
        return 0.0, False
    (r,), (defined,) = _correlations(v[None], lag)
    return r, defined


# near-maximal correlations within this margin count as ties; the smallest
# such lag wins so harmonics of the fundamental period are not reported
_PERIOD_TIE_MARGIN = 0.01

# The scan's r differs from lagged_correlation's by far less than this while
# both segment variances exceed _VAR_FLOOR * n * max(c**2), c being the
# centred series: its prefix sums and dot products of n terms err by about
# n * eps * max(c**2), which a variance above the floor turns into an error
# in r below 1e-8. A lag whose r lies within the tolerance of a decision
# threshold, or whose variance is under the floor, is recomputed exactly.
_R_TOLERANCE = 1e-7
_VAR_FLOOR = 1e-6


def dominant_periods(rows: np.ndarray) -> list[Period]:
    """dominant_period of each row of a ``(B, n)`` array, all rows scanned
    together and every decision the one-row scan makes."""
    count, n = rows.shape
    lags = np.arange(2, n // 2 + 1)
    if not len(lags):
        return [(None, False, None)] * count
    m = n - lags
    with np.errstate(all="ignore"):
        # centring keeps offset series from cancelling
        c = rows - (np.add.reduce(rows, axis=1) / n)[:, None]
        c2 = c * c
        zero = np.zeros((count, 1))
        s1 = np.concatenate((zero, c.cumsum(axis=1)), axis=1)
        s2 = np.concatenate((zero, c2.cumsum(axis=1)), axis=1)
        cross = np.array([np.correlate(row, row, "full") for row in c])[:, n - 1 + lags]
        mean_a, mean_b = s1[:, m] / m, (s1[:, n:] - s1[:, lags]) / m
        var_a = s2[:, m] / m - mean_a * mean_a
        var_b = (s2[:, n:] - s2[:, lags]) / m - mean_b * mean_b
        r = (cross / m - mean_a * mean_b) / np.sqrt(var_a * var_b)
        floor = _VAR_FLOOR * n * np.maximum.reduce(c2, axis=1)
        unsure = ~np.isfinite(r) | (np.minimum(var_a, var_b) <= floor[:, None])
    exact = np.zeros(r.shape, dtype=bool)
    defined = np.ones(r.shape, dtype=bool)

    def settle(mask: np.ndarray) -> None:
        """Give each (row, lag) of ``mask`` lagged_correlation's exact r; the
        pairs of one lag are reduced together, one row each."""
        which, cols = (mask & ~exact).nonzero()
        exact[which, cols] = True
        for col in set(cols.tolist()):
            at = which[cols == col]
            r[at, col], defined[at, col] = _correlations(rows[at], col + 2)

    settle(unsure)
    tol = np.where(exact, 0.0, _R_TOLERANCE)
    lowest_best = np.maximum.reduce(np.where(defined, r - tol, -math.inf), axis=1)
    settle(defined & (r + tol >= lowest_best[:, None]))
    best_r = np.maximum.reduce(np.where(defined, r, -math.inf), axis=1)
    cut = (best_r - _PERIOD_TIE_MARGIN)[:, None]
    settle(defined & (np.abs(r - cut) <= _R_TOLERANCE))
    candidates = defined & (r >= cut)
    first = candidates.argmax(axis=1)  # ascending lag order
    seen = np.logical_or.reduce(candidates, axis=1)  # false only where no lag is defined
    settle(np.arange(r.shape[1]) == np.where(seen, first, -1)[:, None])
    return [
        (int(lags[f]), r_first >= PERIOD_SIGNIFICANCE, r_first) if any_defined else (None, False, None)
        for f, r_first, any_defined in zip(
            first.tolist(), r[np.arange(count), first].tolist(), seen.tolist()
        )
    ]


def dominant_period(values: Sequence[float]) -> Period:
    """Max lagged correlation over lags 2..len/2: (lag, significant, r), r
    being lagged_correlation's exact value at that lag; (None, False, None)
    when no lag is defined.

    Among near-maximal lags the smallest is returned, so a daily cycle reads
    as 24 rather than one of its multiples.

    All lags are scored in one pass: prefix sums give each lag's segment
    means and variances and one autocorrelation gives every lag's cross
    products (Box & Jenkins, ch. 2). Every decision, including the zero
    variance test, is the one the exact per-lag lagged_correlation makes.

    The one-row case of dominant_periods, kept as the entry point for one
    series (tests and API callers); the engine profiles through
    prompts.fingerprints.
    """
    return dominant_periods(np.asarray(values, dtype=float)[None])[0]


def zscores(values: Sequence[float]) -> list[float]:
    _mean, c, var = _moments(np.asarray(values, dtype=float))
    std = math.sqrt(var)
    return (c / std if std != 0.0 else np.zeros(len(c))).tolist()


def _halves(v: np.ndarray) -> Optional[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """(mean, variance) of the first and of the second half along the last
    axis; None when a half is shorter than 2."""
    half = v.shape[-1] // 2
    if half < 2:
        return None
    mean_a, _ca, var_a = _moments(v[..., :half])
    mean_b, _cb, var_b = _moments(v[..., half:])
    return mean_a, var_a, mean_b, var_b


def _stationarity(
    halves: Optional[tuple[float, float, float, float]], scale: float
) -> dict[str, float | bool]:
    if halves is None:
        return {"stationary": True, "mean_shift": 0.0, "var_ratio": 1.0}
    mean_a, va, mean_b, vb = halves
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
    halves = _halves(v)
    return _stationarity(
        None if halves is None else tuple(map(float, halves)), math.sqrt(_moments(v)[2])
    )


class Profile(NamedTuple):
    mean: float
    std: float
    trend_class: str
    trend_slope: float
    trend_normalized: float
    stationary: bool
    mean_shift: float
    n_anomalies: int


def profiles(rows: np.ndarray) -> list[Profile]:
    """profile of each row of a ``(B, n)`` array, from one set of row-wise
    reductions. A series whose squares pass the float range profiles with an
    infinite std, without a warning."""
    n = rows.shape[1]
    with np.errstate(all="ignore"):
        means, c, var = _moments(rows)
        stds = np.sqrt(var)
        slopes = _centred_slopes(c)
        anomalies = np.add.reduce(np.abs(c / stds[:, None]) > ANOMALY_Z, axis=1)
        halves = _halves(rows)
    split = repeat(None) if halves is None else zip(*(h.tolist() for h in halves))
    out = []
    for mean, std, slope, n_anomalies, half_stats in zip(
        means.tolist(), stds.tolist(), slopes.tolist(), anomalies.tolist(), split
    ):
        label, normalized = _trend(slope, n, std)
        stationarity = _stationarity(half_stats, std)
        out.append(
            Profile(
                mean=mean,
                std=std,
                trend_class=label,
                trend_slope=slope,
                trend_normalized=normalized,
                stationary=stationarity["stationary"],
                mean_shift=stationarity["mean_shift"],
                # a zero std gives every z-score 0, so no anomaly
                n_anomalies=n_anomalies if std != 0.0 else 0,
            )
        )
    return out


def profile(values: Sequence[float]) -> Profile:
    """What trend_label, split_half_stationarity and zscores say of the
    series, with its mean and std, from one set of reductions. The one-row
    case of profiles, kept as the entry point for one series (tests and API
    callers); the engine profiles through prompts.fingerprints."""
    return profiles(np.asarray(values, dtype=float)[None])[0]
