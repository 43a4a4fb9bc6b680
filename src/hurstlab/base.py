"""Shared estimator plumbing: results, log-log fits, and the window policy.

The three estimators all reduce a series to (scale, statistic) pairs and
regress log(statistic) on log(scale); what differs is the statistic and how
the Hurst exponent is read off the slope. The types here carry that shared
structure. The estimators work on a (rows, N) matrix of equal-length series
at once; :class:`LogLogFits` holds the per-row outcome, and a single-series
estimate is its one-row case. What a method's fits share at one series
length and set of options, its scales and their log abscissae, is a
:class:`FitPlan`, which each method builds once per (length, options) in a
module-level cache of its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (AllSubseriesDegenerate, InsufficientWindows, InvalidWindow,
                     NonPositiveStatistic, SeriesError, ZeroFluctuation, ZeroVariance)
from .regression import RegressionFit, abscissae, line_fit

__all__ = [
    "EstimatorResult",
    "FitPlan",
    "LogLogFits",
    "WindowPolicy",
    "DEFAULT_POLICY",
    "FAILURES",
    "WARN_NONSTATIONARY",
    "divisors",
    "fit_plan",
    "loglog_fits",
]

# Warning code LogLogFits.result attaches to a DFA fit whose slope exceeds 1.
WARN_NONSTATIONARY = "NONSTATIONARY_OR_DETREND_FAIL"

MAX_WINDOW_RULES = ("half-N", "full-N")

# A failure message lists at most this many failing scales; above that it
# gives their count and range, so that its line stays short.
LISTED_SCALES = 64

# The one failure rule. A row fails when a statistic is NaN, <= 0 or
# infinite; its fit is then NaN, and LogLogFits.result raises the (class,
# wording) paired here with the first of those kinds, in that order, it has.
_OVERFLOW = (SeriesError, "statistic is not finite (float64 overflow)")
_RS_FAILURES = ((AllSubseriesDegenerate, "every subseries has zero SD"),
                (NonPositiveStatistic, "R/S statistic <= 0"), _OVERFLOW)
FAILURES = {
    "RS": _RS_FAILURES,
    "RSAL": _RS_FAILURES,
    "DFA": (_OVERFLOW, (ZeroFluctuation, "mean fluctuation is 0 (linear profile)"), _OVERFLOW),
    "VTP": (_OVERFLOW, (ZeroVariance, "aggregated variance is 0"), _OVERFLOW),
}


@dataclass(frozen=True)
class EstimatorResult:
    """Outcome of one Hurst estimation run.

    ``hurst`` is the method's mapping of ``fit.slope``: the identity for
    RS/RSAL/DFA, 1 - beta/2 with beta = -slope for VTP. ``scales`` (int64)
    and ``statistics`` (float64) are the read-only points of the log-log
    regression, one per scale. Array fields make ``==`` on whole results
    ambiguous; compare the fields.
    """

    method: str
    hurst: float
    fit: RegressionFit
    scales: np.ndarray
    statistics: np.ndarray
    warnings: tuple[str, ...] = ()


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


@dataclass(frozen=True)
class WindowPolicy:
    """Rule selecting the subseries lengths n used as regression abscissae.

    The window set is every integral divisor n of N with
    ``min_window <= n <= max``, where max is N/2 (``half-N``, the default)
    or N itself (``full-N``). DFA applies its own higher floor.

    The default starts at n = 2, whose R/S does not depend on the data: a
    pair differing by d has deviations -d/2 and d/2 and a profile ranging
    over |d|/2, so its R/S is 1/sqrt(2) with the sample SD and 1 with the
    population SD. R/Sal's n = 2 point is thus the constant
    1/sqrt(2) - 0.75 + sqrt(pi), about 1.72956, unless every pair of the
    row is tied and the row fails. On i.i.d. data the anchor cuts R/Sal's
    MSE (1000 rows, seed 42, cell 5, rate 1.5; DFA's for scale):

    ====  ==========  ===========  =======
    N     with n = 2  from n = 4   DFA
    ====  ==========  ===========  =======
    128   0.00134     0.00235      0.0165
    256   0.00097     0.00159      0.0094
    512   0.00069     0.00107      0.0056
    1024  0.00048     0.00072      0.0036
    ====  ==========  ===========  =======

    and the mean estimate was 0.4985-0.5002 with it, 0.4930-0.4958 from
    n = 4. It pulls estimates toward 0.5 on dependent data: on fractional
    Gaussian noise at N = 1024, R/Sal reads 0.729 with it and 0.753 without
    at H = 0.9, 0.377 against 0.361 at H = 0.3.
    """

    min_window: int = 2
    max_window_rule: str = "half-N"

    def __post_init__(self):
        if self.min_window < 2:
            raise InvalidWindow(f"min_window must be >= 2, got {self.min_window}")
        if self.max_window_rule not in MAX_WINDOW_RULES:
            raise ValueError(
                f"max_window_rule must be one of {MAX_WINDOW_RULES}, "
                f"got {self.max_window_rule!r}"
            )

    def max_window(self, n_obs: int) -> int:
        return n_obs if self.max_window_rule == "full-N" else n_obs // 2

    def windows(self, n_obs: int, min_window: int | None = None) -> list[int]:
        """Window lengths for a series of length *n_obs*, ascending.

        Raises InsufficientWindows when fewer than 2 qualify (a log-log
        regression needs at least two distinct scales).
        """
        lo = max(self.min_window, min_window or 0)
        hi = self.max_window(n_obs)
        wins = [d for d in divisors(n_obs) if lo <= d <= hi]
        if len(wins) < 2:
            raise InsufficientWindows(
                f"policy yields {len(wins)} window(s) for N={n_obs} "
                f"(need >= 2; divisors of N in [{lo}, {hi}])"
            )
        return wins


DEFAULT_POLICY = WindowPolicy()


@dataclass(frozen=True)
class LogLogFits:
    """Log-log regressions of a batch of equal-length series, one per row.

    ``statistics`` has one row per series and one column per scale of
    ``scales``; both are read-only. A row with a NaN, non-positive or
    infinite statistic failed: its fit and its ``hurst`` are NaN (see
    FAILURES). ``hurst`` is the method's mapping of ``slope``.
    """

    method: str
    scales: np.ndarray
    statistics: np.ndarray
    slope: np.ndarray
    intercept: np.ndarray
    residual_rms: np.ndarray
    hurst: np.ndarray

    def result(self, row: int = 0) -> EstimatorResult:
        """The EstimatorResult of one row. A failed row raises the error
        FAILURES names, listing the scales of its first failure kind, or,
        above :data:`LISTED_SCALES` of them, their count and range; a DFA
        slope above 1 flags non-stationarity or a failed detrend, a warning."""
        stats = self.statistics[row]
        kinds = (np.isnan(stats), stats <= 0.0, np.isinf(stats))
        for (error, what), bad in zip(FAILURES[self.method], kinds):
            if bad.any():
                scale = "w" if self.method == "VTP" else "n"
                scales = self.scales[bad]
                if scales.size <= LISTED_SCALES:
                    raise error(f"{what} at {scale}={scales.tolist()}")
                raise error(f"{what} at {scales.size} of {self.scales.size} {scale} "
                            f"in {scales.min()}..{scales.max()}")
        fit = RegressionFit(
            slope=float(self.slope[row]),
            intercept=float(self.intercept[row]),
            residual_rms=float(self.residual_rms[row]),
        )
        warnings = (WARN_NONSTATIONARY,) if self.method == "DFA" and fit.slope > 1.0 else ()
        return EstimatorResult(method=self.method, hurst=float(self.hurst[row]), fit=fit,
                               scales=self.scales, statistics=stats, warnings=warnings)


@dataclass(frozen=True)
class FitPlan:
    """The scales of a method's log-log fits and the :func:`abscissae`
    triple of their logs: the window or block sizes as Python ints
    (``windows``, a tuple, or a range for VTP's default block sizes) and
    as a read-only int64 array (``scales``)."""

    windows: tuple[int, ...] | range
    scales: np.ndarray
    abscissae: tuple[float, np.ndarray, float]


def fit_plan(windows) -> FitPlan:
    """The :class:`FitPlan` of these scales, at least 2 distinct positive
    ints; each method caches its own per series length and options."""
    scales = np.array(windows, dtype=np.int64)
    scales.flags.writeable = False
    return FitPlan(tuple(windows), scales, abscissae(np.log(scales.astype(float))))


def loglog_fits(method: str, plan: FitPlan, statistics: np.ndarray) -> LogLogFits:
    """Row-wise OLS of log(statistic) against log(scale) at the plan's scales.

    *statistics* is (rows, len(plan.scales)) and is made read-only. ``hurst``
    is the slope, except for VTP, whose slope is -beta: there it is
    1 - beta/2. Non-positive or NaN statistics have no log, and an infinite
    one has no finite log, so their rows come out NaN.
    """
    statistics.flags.writeable = False
    logs = np.log(np.where(statistics > 0.0, statistics, np.nan))
    slope, intercept, residual_rms = line_fit(plan.abscissae, logs)
    if method == "VTP":
        beta = -slope
        hurst = 1.0 - beta / 2.0
    else:
        hurst = slope
    return LogLogFits(method=method, scales=plan.scales, statistics=statistics, slope=slope,
                      intercept=intercept, residual_rms=residual_rms, hurst=hurst)
