"""Time-series validation and the sd-mode flag shared by the estimators.

A time series is a 1-D float64 numpy array; :func:`as_series` is the single
gate for what can be estimated (finite values, length >= 2, the float64
range of :func:`_check_range`). Window lengths have their own single gate,
``WindowPolicy.windows`` in :mod:`hurstlab.base`: its windows divide N, so
the R/S and DFA kernels split a (rows, N) batch into contiguous subseries
with a plain reshape. All functions are pure.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import SeriesError

__all__ = ["as_series"]

#: Mapping from the user-facing sd-mode flag to the numpy ddof argument.
SD_MODES = {"population": 0, "sample": 1}


def _check_range(n_obs: int, max_abs: float, spread: float, what: str = "series") -> None:
    """Raise SeriesError unless the kernels can square the deviations of
    *n_obs* values with this largest magnitude and spread in float64.

    max|x| <= sqrt(DBL_MAX / (4 N**3)): DFA's uncentred profiles reach
    N max|x|, and their squared residuals sum to at most N**3 max|x|**2;
    R/S and VTP sum at most N squared deviations of at most the spread,
    2 max|x|. The spread is 0 (a constant series, which each estimator
    rejects itself) or >= 2**-458, so that deviations down to rounding
    noise, spread * 2**-53, square to normal doubles (>= 2**-1022).
    """
    bound = math.sqrt(sys.float_info.max / (4.0 * n_obs**3))
    if not max_abs <= bound:
        raise SeriesError(f"{what}: |x| up to {max_abs:.6g} overflows float64 squares "
                          f"above {bound:.6g} at N = {n_obs}")
    if 0.0 < spread < 2.0**-458:
        raise SeriesError(f"{what}: spread {spread:.6g} underflows float64 squares below 2**-458")


def as_series(values) -> np.ndarray:
    """Validate *values* as a time series and return it as a float64 array.

    Raises SeriesError if the input is not 1-D, has fewer than 2
    observations, contains non-finite values, or is out of the float64
    range of :func:`_check_range`.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise SeriesError(f"series must be 1-D, got shape {arr.shape}")
    if arr.size < 2:
        raise SeriesError(f"series needs >= 2 observations, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        bad = int(np.flatnonzero(~np.isfinite(arr))[0])
        raise SeriesError(f"non-finite value at index {bad}")
    hi, lo = float(arr.max()), float(arr.min())
    _check_range(arr.size, max(hi, -lo), hi - lo)
    return arr


def _ddof(sd_mode: str) -> int:
    try:
        return SD_MODES[sd_mode]
    except KeyError:
        raise SeriesError(f"unknown sd_mode {sd_mode!r}; expected one of {sorted(SD_MODES)}")
