"""Core time-series container and the subseries split shared by the estimators.

A time series is represented as a 1-D float64 numpy array; :func:`as_series`
is the single validation gate (finite values, length >= 2).
:func:`segment_matrix` splits a series, or every row of a batch, into
equal-length contiguous subseries for the rescaled-range and detrended
fluctuation kernels. All functions are pure.
"""

from __future__ import annotations

import numpy as np

from .errors import NonDivisorWindow, SeriesError, WindowTooSmall

__all__ = ["as_series", "segment_matrix"]

#: Mapping from the user-facing sd-mode flag to the numpy ddof argument.
SD_MODES = {"population": 0, "sample": 1}


def as_series(values) -> np.ndarray:
    """Validate *values* as a time series and return it as a float64 array.

    Raises SeriesError if the input is not 1-D, contains non-finite
    values, or has fewer than 2 observations.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise SeriesError(f"series must be 1-D, got shape {arr.shape}")
    if arr.size < 2:
        raise SeriesError(f"series needs >= 2 observations, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        bad = int(np.flatnonzero(~np.isfinite(arr))[0])
        raise SeriesError(f"non-finite value at index {bad}")
    return arr


def _ddof(sd_mode: str) -> int:
    try:
        return SD_MODES[sd_mode]
    except KeyError:
        raise SeriesError(f"unknown sd_mode {sd_mode!r}; expected one of {sorted(SD_MODES)}")


def segment_matrix(series: np.ndarray, n: int) -> np.ndarray:
    """Reshape the last axis of *series* into (d, n) contiguous subseries.

    A series of length N becomes a (d, n) matrix and a (rows, N) batch a
    (rows, d, n) array. The subseries keep their original order, so
    ravelling the result reproduces the input.
    """
    if n < 2:
        raise WindowTooSmall(f"window n={n} is below the minimum of 2")
    size = series.shape[-1]
    if size % n != 0:
        raise NonDivisorWindow(f"n={n} does not divide series length {size}")
    return series.reshape(*series.shape[:-1], size // n, n)
