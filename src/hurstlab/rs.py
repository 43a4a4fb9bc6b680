"""Rescaled range (R/S) and adjusted rescaled range (R/Sal) Hurst estimation.

The plain estimator regresses log of the mean rescaled range on log of the
window length. Because the finite-sample expectation of the rescaled range
deviates badly from the asymptotic 0.5 power law at small windows, the
adjusted estimator re-centers each statistic on its independent-data
expectation first:

    (R/Sal)_n = (R/S)_n - E(R/S)_n + sqrt(0.5 * pi * n)

where E(R/S)_n is the Anis-Lloyd small-sample expectation with the Peters
(n - 1/2)/n prefactor. On independent data the adjusted statistic scales as
sqrt(0.5 * pi * n), so the fitted slope lands on 0.5 regardless of how short
the series is; that calibration is what makes R/Sal the low-MSE method in
the Monte Carlo comparison this package reproduces.

The statistics are computed for a (rows, N) batch of series at once;
:func:`rsal_batch` is what the simulation grid runs, and the
single-series functions are its one-row case.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .base import (
    DEFAULT_POLICY,
    EstimatorResult,
    LogLogFits,
    ScalePoint,
    WindowPolicy,
    loglog_fits,
)
from .errors import AllSubseriesDegenerate, InvalidWindow, NonPositiveStatistic
from .series import _ddof, as_series, segment_matrix

__all__ = [
    "rescaled_range",
    "rs_statistic",
    "rs_statistics",
    "expected_rs",
    "adjust_rs_points",
    "rsal_batch",
    "estimate_rs",
    "estimate_rsal",
]


def _rescaled_ranges(seg: np.ndarray, ddof: int) -> tuple[np.ndarray, np.ndarray]:
    """R/S of every subseries along the last axis, and whether its SD is
    nonzero; the R/S of a zero-SD (degenerate) subseries is set to 0."""
    n = seg.shape[-1]
    centred = seg - seg.sum(axis=-1, keepdims=True) / n
    sd = np.sqrt((centred * centred).sum(axis=-1) / (n - ddof))
    profiles = np.cumsum(centred, axis=-1)
    ranges = profiles.max(axis=-1) - profiles.min(axis=-1)
    ok = sd > 0.0
    return np.divide(ranges, sd, out=np.zeros_like(ranges), where=ok), ok


def rescaled_range(subseries, sd_mode: str = "population") -> float | None:
    """R/S of one subseries: range of the centered cumulative sum over the SD.

    Returns None (degenerate) when the standard deviation is 0; callers
    exclude such subseries from the per-window average.
    """
    rs, ok = _rescaled_ranges(as_series(subseries), _ddof(sd_mode))
    return float(rs) if ok else None


def rs_statistics(x: np.ndarray, windows, sd_mode: str = "population") -> np.ndarray:
    """Mean rescaled range of each row of *x* (rows, N) at each window length.

    Returns a (rows, len(windows)) matrix. Degenerate subseries (zero SD)
    are dropped from a row's average; a row whose subseries at a window are
    all degenerate gets NaN there.
    """
    ddof = _ddof(sd_mode)
    out = np.empty((x.shape[0], len(windows)))
    for j, n in enumerate(windows):
        rs, ok = _rescaled_ranges(segment_matrix(x, n), ddof)
        with np.errstate(invalid="ignore"):
            out[:, j] = rs.sum(axis=-1) / ok.sum(axis=-1)
    return out


def _raise_degenerate(n_obs: int, windows, stats: np.ndarray) -> None:
    for n, value in zip(windows, stats):
        if math.isnan(value):
            raise AllSubseriesDegenerate(
                f"all {n_obs // n} subseries at n={n} have zero SD")


def rs_statistic(series, n: int, sd_mode: str = "population") -> ScalePoint:
    """Mean rescaled range over all subseries of length n.

    Degenerate subseries (zero SD) are dropped from the average; if every
    subseries is degenerate the window is unusable and
    AllSubseriesDegenerate is raised.
    """
    arr = as_series(series)
    stats = rs_statistics(arr[None, :], [n], sd_mode)[0]
    _raise_degenerate(arr.shape[0], [n], stats)
    return ScalePoint(scale=n, statistic=float(stats[0]))


@lru_cache(maxsize=None)
def expected_rs(n: int) -> float:
    """Small-sample expectation E(R/S)_n of the rescaled range for i.i.d. data.

    Anis-Lloyd formula with the Peters (n - 1/2)/n prefactor; the gamma-ratio
    factor switches to its asymptotic form 1/sqrt(n*pi/2) above n = 340,
    where the exact ratio and the asymptote agree to well under a percent.
    Evaluated through log-gamma so large n cannot overflow.
    """
    if n < 2:
        raise InvalidWindow(f"expected_rs needs n >= 2, got {n}")
    if n <= 340:
        factor = math.exp(math.lgamma((n - 1) / 2.0) - math.lgamma(n / 2.0)) / math.sqrt(math.pi)
    else:
        factor = 1.0 / math.sqrt(n * math.pi / 2.0)
    i = np.arange(1, n)
    tail_sum = float(np.sqrt((n - i) / i).sum())
    return (n - 0.5) / n * factor * tail_sum


def _adjust(stats: np.ndarray, windows) -> np.ndarray:
    """(R/S)_n - E(R/S)_n + sqrt(0.5*pi*n), column by column."""
    expected = np.array([expected_rs(n) for n in windows])
    asymptote = np.array([math.sqrt(0.5 * math.pi * n) for n in windows])
    return stats - expected + asymptote


def adjust_rs_points(points) -> list[ScalePoint]:
    """Apply the small-sample correction to plain R/S scale points.

    Raises NonPositiveStatistic if any corrected value is <= 0 (its log
    would be undefined). With E(R/S)_n < sqrt(0.5*pi*n), which holds
    throughout the supported range, this cannot happen for real R/S values;
    the check guards pathological or synthetic inputs.
    """
    scales = [p.scale for p in points]
    adjusted = _adjust(np.array([p.statistic for p in points]), scales)
    _raise_non_positive(scales, adjusted)
    return [ScalePoint(scale=n, statistic=float(v)) for n, v in zip(scales, adjusted)]


def _raise_non_positive(windows, adjusted: np.ndarray) -> None:
    bad = [n for n, v in zip(windows, adjusted) if v <= 0.0]
    if bad:
        raise NonPositiveStatistic(f"adjusted R/S <= 0 at n={bad}; cannot take logs")


def rsal_batch(x: np.ndarray, policy: WindowPolicy = DEFAULT_POLICY,
               sd_mode: str = "sample") -> LogLogFits:
    """R/Sal fits of every row of *x* (rows, N); failed rows are NaN.

    A row fails when every subseries of some window has zero SD (NaN
    statistic) or an adjusted value is <= 0.
    """
    windows = policy.windows(x.shape[-1])
    return loglog_fits("RSAL", windows, _adjust(rs_statistics(x, windows, sd_mode), windows))


def estimate_rs(series, policy: WindowPolicy = DEFAULT_POLICY,
                sd_mode: str = "sample") -> EstimatorResult:
    """Plain (uncorrected) R/S estimate; biased high on short series.

    The estimators default to the sample-SD rescaled range: the
    Anis-Lloyd/Peters expectation that calibrates the adjusted variant is
    an expectation of the sample-SD statistic, and only that pairing
    recenters independent data on H = 0.5. The low-level statistic ops keep
    the classical population default.
    """
    arr = as_series(series)
    windows = policy.windows(arr.shape[0])
    fits = loglog_fits("RS", windows, rs_statistics(arr[None, :], windows, sd_mode))
    _raise_degenerate(arr.shape[0], fits.scales, fits.statistics[0])
    return fits.result()


def estimate_rsal(series, policy: WindowPolicy = DEFAULT_POLICY,
                  sd_mode: str = "sample") -> EstimatorResult:
    """Adjusted rescaled range (R/Sal) estimate; see :func:`estimate_rs`
    for the sd_mode default."""
    arr = as_series(series)
    fits = rsal_batch(arr[None, :], policy, sd_mode)
    _raise_degenerate(arr.shape[0], fits.scales, fits.statistics[0])
    _raise_non_positive(fits.scales, fits.statistics[0])
    return fits.result()
