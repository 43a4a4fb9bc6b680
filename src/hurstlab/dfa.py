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
:func:`estimate_dfa` is its one-row case. The windows and their log-log
abscissae are built once per series length and window policy
(:func:`dfa_plan`), and the abscissae of t = 1..n once per window length
up to :data:`CACHED_WINDOW_MAX`. Short windows over enough subseries
cumulate and fit their profiles window-major, on one transposed copy of
their subseries, and the others along the last axis; both give the same
bits (``regression``'s docstring).
"""

from __future__ import annotations

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
from .regression import (
    abscissae,
    cumulate_rows,
    line_fit,
    window_major,
    window_major_copy,
    window_major_rms,
)
from .series import as_series

__all__ = [
    "dfa_fluctuations",
    "dfa_batch",
    "dfa_plan",
    "estimate_dfa",
    "DFA_MIN_WINDOW",
]

# Hard floor for DFA windows: n = 3 leaves a single residual degree of
# freedom after the 2-parameter line fit and produces very noisy F.
DFA_MIN_WINDOW = 4


@lru_cache(maxsize=16)
def dfa_plan(n_obs: int, policy: WindowPolicy) -> FitPlan:
    """The FitPlan of the policy's DFA windows (floor DFA_MIN_WINDOW) for
    length *n_obs*; raises InsufficientWindows when fewer than 2 qualify."""
    return fit_plan(policy.windows(n_obs, min_window=DFA_MIN_WINDOW))


# Windows up to this length keep their profile abscissae cached. Building
# them costs a few microseconds whatever the length, next to a fit whose cost
# grows with the window, and kept for a longer window they would hold O(N)
# memory through the rest of a cold estimate.
CACHED_WINDOW_MAX = 1024


def _profile_abscissae(n: int) -> tuple[float, np.ndarray, float]:
    """The abscissae triple of t = 1..n, the profile positions of a window."""
    return abscissae(np.arange(1.0, n + 1.0))


# Per window length, not per series length: the series lengths of a grid
# share most of their windows.
_cached_profile_abscissae = lru_cache(maxsize=32)(_profile_abscissae)


def _fluctuations(seg: np.ndarray) -> np.ndarray:
    """RMS residual of each subseries' cumulative profile about its OLS line,
    for every subseries along the last axis. Windows that
    ``regression.window_major`` accepts cumulate and fit their profiles on
    one window-major copy of the subseries."""
    n = seg.shape[-1]
    t = (_cached_profile_abscissae if n <= CACHED_WINDOW_MAX else _profile_abscissae)(n)
    if not window_major(n, seg.size):
        return line_fit(t, np.cumsum(seg, axis=-1))[2]
    profiles = window_major_copy(seg)
    cumulate_rows(profiles)
    return window_major_rms(t, profiles).reshape(seg.shape[:-1])


def dfa_fluctuations(x: np.ndarray, windows) -> np.ndarray:
    """Mean fluctuation of each row of *x* (rows, N) at each window length.

    The windows are divisors of N, as ``WindowPolicy.windows`` gives them.
    Returns a (rows, len(windows)) matrix; 0 marks a row whose cumulative
    profile is linear in every subseries of that window.
    """
    out = np.empty((x.shape[0], len(windows)))
    for j, n in enumerate(windows):
        f = _fluctuations(x.reshape(x.shape[0], -1, n))
        out[:, j] = np.add.reduce(f, axis=-1) / f.shape[-1]
    return out


def dfa_batch(x: np.ndarray, policy: WindowPolicy = DEFAULT_POLICY) -> LogLogFits:
    """DFA fits of every row of *x* (rows, N); a row with a zero or
    overflowing mean fluctuation at some window fails (NaN)."""
    plan = dfa_plan(x.shape[-1], policy)
    return loglog_fits("DFA", plan, dfa_fluctuations(x, plan.windows))


def estimate_dfa(series, policy: WindowPolicy = DEFAULT_POLICY) -> EstimatorResult:
    """DFA Hurst estimate over the policy's window set."""
    return dfa_batch(as_series(series)[None, :], policy).result()
