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
single-series estimators are its one-row case. The windows, their log-log
abscissae and the E(R/S)_n and sqrt(0.5 * pi * n) offsets of each window
are built once per series length and window policy (:func:`_plan`). Short
windows over enough subseries run window-major, on one transposed copy of
their subseries, and the others along the last axis; both give the same
bits (``regression``'s docstring).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .base import (
    DEFAULT_POLICY,
    EstimatorResult,
    FitPlan,
    LogLogFits,
    WindowPolicy,
    fit_plan,
    loglog_fits,
)
from .errors import InvalidWindow
from .record import integer
from .regression import cumulate_rows, rows_sum, window_major, window_major_copy
from .series import _ddof, as_series

__all__ = [
    "rs_statistics",
    "expected_rs",
    "rsal_batch",
    "estimate_rs",
    "estimate_rsal",
]


def _rescaled_ranges(seg: np.ndarray, ddof: int) -> tuple[np.ndarray, np.ndarray]:
    """R/S of every subseries along the last axis, and whether its SD is
    nonzero; the R/S of a zero-SD (degenerate) subseries is set to 0.
    Windows that ``regression.window_major`` accepts run on one
    window-major copy of the subseries, with every sum in numpy's order."""
    n = seg.shape[-1]
    if not window_major(n, seg.size):
        return _rescaled_ranges_along_axis(seg, ddof)
    t = window_major_copy(seg)
    t -= rows_sum(t) / n
    sd = np.sqrt(rows_sum(t, t) / (n - ddof))
    cumulate_rows(t)
    ranges = np.maximum.reduce(t, axis=0) - np.minimum.reduce(t, axis=0)
    ok = sd > 0.0
    rs = np.divide(ranges, sd, out=np.zeros_like(sd), where=ok)
    return rs.reshape(seg.shape[:-1]), ok.reshape(seg.shape[:-1])


def _rescaled_ranges_along_axis(seg: np.ndarray, ddof: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_rescaled_ranges` by reductions along the last axis."""
    n = seg.shape[-1]
    centred = seg - np.add.reduce(seg, axis=-1, keepdims=True) / n
    # Where the subseries outnumber the window's points, Fortran-ordered
    # profiles give max and min one long inner loop per position instead of
    # a short one per subseries. Both are exact, so no bit moves; the R/S
    # matrix is C-ordered again, because the mean over subseries in
    # rs_statistics adds in an order that depends on its layout.
    profiles = np.empty(centred.shape, order="F" if centred.size >= n * n else "C")
    np.cumsum(centred, axis=-1, out=profiles)
    ranges = np.maximum.reduce(profiles, axis=-1) - np.minimum.reduce(profiles, axis=-1)
    # the profiles are taken, so the squares can overwrite the deviations
    centred *= centred
    sd = np.sqrt(np.add.reduce(centred, axis=-1) / (n - ddof))
    ok = sd > 0.0
    return np.divide(ranges, sd, out=np.zeros_like(sd), where=ok), ok


def rs_statistics(x: np.ndarray, windows, sd_mode: str) -> np.ndarray:
    """Mean rescaled range of each row of *x* (rows, N) at each window length.

    The R/S of a subseries is the range of its centered cumulative sum over
    its SD, with the n (``"population"``) or n - 1 (``"sample"``)
    denominator. The windows are divisors of N, as ``WindowPolicy.windows``
    gives them. Returns a (rows, len(windows)) matrix. Degenerate
    subseries (zero SD) are dropped from a row's average; a row whose
    subseries at a window are all degenerate gets NaN there.
    """
    ddof = _ddof(sd_mode)
    out = np.empty((x.shape[0], len(windows)))
    for j, n in enumerate(windows):
        rs, ok = _rescaled_ranges(x.reshape(x.shape[0], -1, n), ddof)
        with np.errstate(invalid="ignore"):
            out[:, j] = np.add.reduce(rs, axis=-1) / np.add.reduce(ok, axis=-1)
    return out


# typed: a float key such as 16.0 must reach the integer check, not hit 16's
# entry. _plan keeps 16 plans of at most a few hundred windows each (the
# divisors of N), which this bound holds with room to spare.
@lru_cache(maxsize=1024, typed=True)
def expected_rs(n: int) -> float:
    """Small-sample expectation E(R/S)_n of the rescaled range for i.i.d. data.

    Anis-Lloyd formula with the Peters (n - 1/2)/n prefactor; the gamma-ratio
    factor switches to its asymptotic form 1/sqrt(n*pi/2) above n = 340,
    where the exact ratio and the asymptote agree to well under a percent.
    Evaluated through log-gamma so large n cannot overflow. *n* must be an
    integer >= 2, else InvalidWindow.
    """
    n = integer(n, InvalidWindow, "expected_rs n")
    if n < 2:
        raise InvalidWindow(f"expected_rs needs n >= 2, got {n}")
    if n <= 340:
        factor = math.exp(math.lgamma((n - 1) / 2.0) - math.lgamma(n / 2.0)) / math.sqrt(math.pi)
    else:
        factor = 1.0 / math.sqrt(n * math.pi / 2.0)
    i = np.arange(1, n)
    tail_sum = float(np.sqrt((n - i) / i).sum())
    return (n - 0.5) / n * factor * tail_sum


@lru_cache(maxsize=16)
def _plan(n_obs: int, policy: WindowPolicy) -> tuple[FitPlan, np.ndarray, np.ndarray]:
    """The policy's windows for length *n_obs* as a FitPlan, and per window
    E(R/S)_n and sqrt(0.5 * pi * n), read-only."""
    plan = fit_plan(policy.windows(n_obs))
    expected = np.array([expected_rs(n) for n in plan.windows])
    asymptote = np.array([math.sqrt(0.5 * math.pi * n) for n in plan.windows])
    expected.flags.writeable = asymptote.flags.writeable = False
    return plan, expected, asymptote


def rsal_batch(x: np.ndarray, policy: WindowPolicy = DEFAULT_POLICY,
               sd_mode: str = "sample") -> LogLogFits:
    """R/Sal fits of every row of *x* (rows, N); failed rows are NaN.

    Each statistic is (R/S)_n - E(R/S)_n + sqrt(0.5*pi*n), in that order.
    A row fails when every subseries of some window has zero SD (NaN
    statistic) or an adjusted value is <= 0, which E(R/S)_n < sqrt(0.5*pi*n)
    rules out for real R/S values throughout the supported range.
    """
    plan, expected, asymptote = _plan(x.shape[-1], policy)
    stats = rs_statistics(x, plan.windows, sd_mode)
    stats -= expected
    stats += asymptote
    return loglog_fits("RSAL", plan, stats)


def estimate_rs(series, policy: WindowPolicy = DEFAULT_POLICY,
                sd_mode: str = "sample") -> EstimatorResult:
    """Plain (uncorrected) R/S estimate; biased high on short series.

    The estimators default to the sample-SD rescaled range: the
    Anis-Lloyd/Peters expectation that calibrates the adjusted variant is
    an expectation of the sample-SD statistic, and only that pairing
    recenters independent data on H = 0.5.
    """
    arr = as_series(series)
    plan = _plan(arr.shape[0], policy)[0]
    return loglog_fits("RS", plan, rs_statistics(arr[None, :], plan.windows, sd_mode)).result()


def estimate_rsal(series, policy: WindowPolicy = DEFAULT_POLICY,
                  sd_mode: str = "sample") -> EstimatorResult:
    """Adjusted rescaled range (R/Sal) estimate; see :func:`estimate_rs`
    for the sd_mode default."""
    return rsal_batch(as_series(series)[None, :], policy, sd_mode).result()
