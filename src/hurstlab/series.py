"""Time-series validation and the sd-mode flag shared by the estimators.

A time series is represented as a 1-D float64 numpy array; :func:`as_series`
is the single validation gate (finite values, length >= 2). Window lengths
have their own single gate, ``WindowPolicy.windows`` in :mod:`hurstlab.base`:
its windows divide N, so the R/S and DFA kernels split a (rows, N) batch
into contiguous subseries with a plain reshape. All functions are pure.
"""

from __future__ import annotations

import numpy as np

from .errors import SeriesError

__all__ = ["as_series"]

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

