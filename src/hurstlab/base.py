"""Shared estimator plumbing: results, log-log fits, and the window policy.

The three estimators all reduce a series to (scale, statistic) pairs and
regress log(statistic) on log(scale); what differs is the statistic and how
the Hurst exponent is read off the slope. The types here carry that shared
structure. The estimators work on a (rows, N) matrix of equal-length series
at once; :class:`LogLogFits` holds the per-row outcome, and a single-series
estimate is its one-row case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientWindows
from .regression import RegressionFit, fit_rows

__all__ = [
    "EstimatorResult",
    "LogLogFits",
    "WindowPolicy",
    "DEFAULT_POLICY",
    "WARN_NONSTATIONARY",
    "divisors",
    "loglog_fits",
]

# Warning code attached by DFA when the fitted exponent exceeds 1.
WARN_NONSTATIONARY = "NONSTATIONARY_OR_DETREND_FAIL"

MAX_WINDOW_RULES = ("half-N", "full-N")


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
    or N itself (``full-N``). The default starts at n = 2: the small-sample
    R/S correction is exact down to the shortest windows, and the n = 2
    point anchors the regression enough to matter for the estimator's MSE
    on short series. DFA applies its own higher floor.
    """

    min_window: int = 2
    max_window_rule: str = "half-N"

    def __post_init__(self):
        if self.min_window < 2:
            raise ValueError(f"min_window must be >= 2, got {self.min_window}")
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
    ``scales``; both are read-only. A row with a NaN or non-positive
    statistic failed: its fit and its ``hurst`` are NaN. ``hurst`` is the
    method's mapping of ``slope``.
    """

    method: str
    scales: np.ndarray
    statistics: np.ndarray
    slope: np.ndarray
    intercept: np.ndarray
    residual_rms: np.ndarray
    hurst: np.ndarray

    def result(self, row: int = 0, warnings: tuple[str, ...] = ()) -> EstimatorResult:
        """The EstimatorResult of one (successful) row."""
        fit = RegressionFit(
            slope=float(self.slope[row]),
            intercept=float(self.intercept[row]),
            residual_rms=float(self.residual_rms[row]),
        )
        return EstimatorResult(method=self.method, hurst=float(self.hurst[row]), fit=fit,
                               scales=self.scales, statistics=self.statistics[row],
                               warnings=warnings)


def loglog_fits(method: str, scales, statistics: np.ndarray) -> LogLogFits:
    """Row-wise OLS of log(statistic) against log(scale); ``hurst`` = slope.

    *statistics* is (rows, len(scales)) and is made read-only. Non-positive
    or NaN statistics have no log, so their rows come out NaN.
    """
    scales = np.array(scales, dtype=np.int64)
    scales.flags.writeable = statistics.flags.writeable = False
    logs = np.log(np.where(statistics > 0.0, statistics, np.nan))
    slope, intercept, residual_rms = fit_rows(np.log(scales.astype(float)), logs)
    return LogLogFits(method=method, scales=scales, statistics=statistics, slope=slope,
                      intercept=intercept, residual_rms=residual_rms, hurst=slope)
