"""Core time-series container and the sub-steps shared by the estimators.

A time series is represented as a 1-D float64 numpy array; :func:`as_series`
is the single validation gate (finite values, length >= 2). The remaining
functions are the building blocks of the rescaled-range and detrended
fluctuation pipelines: partitioning into equal-length subseries, per-subseries
mean/SD, cumulative profiles, and profile range. All functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonDivisorWindow, SeriesError, WindowTooSmall

__all__ = [
    "SubseriesStats",
    "as_series",
    "partition",
    "segment_matrix",
    "subseries_stats",
    "centered_cumsum",
    "plain_cumsum",
    "range_of",
]

#: Mapping from the user-facing sd-mode flag to the numpy ddof argument.
SD_MODES = {"population": 0, "sample": 1}


@dataclass(frozen=True)
class SubseriesStats:
    """Mean and standard deviation of one subseries."""

    mean: float
    std_dev: float


def as_series(values, min_length: int = 2) -> np.ndarray:
    """Validate *values* as a time series and return it as a float64 array.

    Raises SeriesError if the input is not 1-D, contains non-finite
    values, or is shorter than *min_length*.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise SeriesError(f"series must be 1-D, got shape {arr.shape}")
    if arr.size < min_length:
        raise SeriesError(f"series needs >= {min_length} observations, got {arr.size}")
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
    ravelling the result reproduces the input. This is the vectorized form
    of :func:`partition`.
    """
    if n < 2:
        raise WindowTooSmall(f"window n={n} is below the minimum of 2")
    size = series.shape[-1]
    if size % n != 0:
        raise NonDivisorWindow(f"n={n} does not divide series length {size}")
    return series.reshape(*series.shape[:-1], size // n, n)


def partition(series, n: int) -> list[np.ndarray]:
    """Split a series into d = N/n contiguous, non-overlapping subseries."""
    arr = as_series(series)
    return list(segment_matrix(arr, n))


def subseries_stats(subseries, sd_mode: str = "population") -> SubseriesStats:
    """Mean and standard deviation of a subseries.

    The default divides by n (population form); pass ``sd_mode="sample"``
    for the n-1 denominator.
    """
    arr = as_series(subseries)
    return SubseriesStats(
        mean=float(arr.mean()),
        std_dev=float(arr.std(ddof=_ddof(sd_mode))),
    )


def centered_cumsum(subseries, mean: float) -> np.ndarray:
    """Cumulative sum of the mean-centered subseries.

    With *mean* equal to the subseries' own mean, the final element is 0 up
    to floating-point round-off.
    """
    arr = as_series(subseries, min_length=1)
    return np.cumsum(arr - mean)


def plain_cumsum(subseries) -> np.ndarray:
    """Cumulative sum of the subseries without any centering."""
    arr = as_series(subseries, min_length=1)
    return np.cumsum(arr)


def range_of(profile) -> float:
    """max(profile) - min(profile); always >= 0."""
    arr = np.asarray(profile, dtype=float)
    if arr.size == 0:
        raise SeriesError("range of an empty profile is undefined")
    return float(arr.max() - arr.min())
