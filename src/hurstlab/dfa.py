"""Detrended Fluctuation Analysis.

Each subseries is cumulated WITHOUT prior mean subtraction, a least-squares
line is fitted to the cumulative profile against t = 1..n, and the RMS of
the residuals is the per-subseries fluctuation F(m). Skipping the centering
is deliberate: a constant offset c in the data only adds the ramp c*t to the
profile, which the line fit removes exactly, so F(m) is unchanged. The Hurst
estimate is the slope of log mean-fluctuation against log window length;
slopes above 1 are possible and flag non-stationarity or a failed detrend,
so they yield a warning rather than an error.

The fluctuations are computed for a (rows, N) batch of series at once;
:func:`dfa_batch` is what the simulation grid runs, and
:func:`estimate_dfa` is its one-row case.
"""

from __future__ import annotations

import numpy as np

from .base import (
    DEFAULT_POLICY,
    WARN_NONSTATIONARY,
    EstimatorResult,
    LogLogFits,
    WindowPolicy,
    loglog_fits,
)
from .errors import WindowTooSmall, ZeroFluctuation
from .regression import fit_rows
from .series import as_series, segment_matrix

__all__ = [
    "dfa_fluctuations",
    "dfa_batch",
    "estimate_dfa",
    "DFA_MIN_WINDOW",
]

# Hard floor for DFA windows: n = 3 leaves a single residual degree of
# freedom after the 2-parameter line fit and produces very noisy F.
DFA_MIN_WINDOW = 4


def _fluctuations(seg: np.ndarray) -> np.ndarray:
    """RMS residual of each subseries' cumulative profile about its OLS line,
    for every subseries along the last axis."""
    n = seg.shape[-1]
    if n < 3:
        raise WindowTooSmall(f"DFA needs n >= 3, got {n}")
    return fit_rows(np.arange(1.0, n + 1.0), np.cumsum(seg, axis=-1))[2]


def dfa_fluctuations(x: np.ndarray, windows) -> np.ndarray:
    """Mean fluctuation of each row of *x* (rows, N) at each window length.

    Returns a (rows, len(windows)) matrix; 0 marks a row whose cumulative
    profile is linear in every subseries of that window.
    """
    out = np.empty((x.shape[0], len(windows)))
    for j, n in enumerate(windows):
        f = _fluctuations(segment_matrix(x, n))
        out[:, j] = f.sum(axis=-1) / f.shape[-1]
    return out


def dfa_batch(x: np.ndarray, policy: WindowPolicy = DEFAULT_POLICY) -> LogLogFits:
    """DFA fits of every row of *x* (rows, N); a row with a zero mean
    fluctuation at some window fails (NaN)."""
    windows = policy.windows(x.shape[-1], min_window=DFA_MIN_WINDOW)
    return loglog_fits("DFA", windows, dfa_fluctuations(x, windows))


def estimate_dfa(series, policy: WindowPolicy = DEFAULT_POLICY) -> EstimatorResult:
    """DFA Hurst estimate over the policy's window set."""
    fits = dfa_batch(as_series(series)[None, :], policy)
    zero = fits.scales[fits.statistics[0] == 0.0]
    if zero.size:
        raise ZeroFluctuation(
            f"mean fluctuation at n={zero[0]} is 0 (cumulative profile is linear)")
    warnings = (WARN_NONSTATIONARY,) if fits.slope[0] > 1.0 else ()
    return fits.result(warnings=warnings)
