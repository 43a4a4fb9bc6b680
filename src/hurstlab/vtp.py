"""Variance-time plot (aggregated variance) Hurst estimation.

The series is averaged over non-overlapping blocks of size w; for
self-similar processes the variance of the block means decays as
c * w**(-beta), so the slope of log-variance against log-w is -beta and
H = 1 - beta/2. Unlike the R/S and DFA pipelines, w is not restricted to
divisors of N: a trailing remainder of fewer than w observations is simply
discarded. Block sizes up to N/2 are accepted; the default regression set
stops at N/4 (see :func:`_default_ws`).

Block means for all scales of a (rows, N) batch of series are computed in a
single pass from the row-wise cumulative sums, with the gather/segment
index arrays cached per series length; :func:`vtp_batch` is what the
simulation grid runs, and :func:`estimate_vtp` is its one-row case.
"""

from __future__ import annotations

import operator
from dataclasses import replace
from functools import lru_cache

import numpy as np

from .base import EstimatorResult, LogLogFits, loglog_fits
from .errors import InsufficientScales, ScaleTooLarge, ZeroVariance
from .series import as_series

__all__ = [
    "block_count",
    "scale_variances",
    "vtp_batch",
    "estimate_vtp",
]


@lru_cache(maxsize=16)
def _default_ws(n_obs: int, divisors_only: bool) -> tuple[int, ...]:
    """Default block sizes: every integer w from 1 to N/4.

    Block sizes up to N/2 are valid, but the default stops at N/4 so every
    scale keeps at least 4 complete blocks: the log of a 2- or 3-block
    variance is so skewed that including those scales pushes the fitted
    decay rate far above the true one. With ``divisors_only`` the set is
    further restricted to divisors of N, for which no observations are
    discarded.
    """
    if divisors_only:
        return tuple(w for w in range(1, n_obs // 4 + 1) if n_obs % w == 0)
    return tuple(range(1, n_obs // 4 + 1))


def _check_scale(n_obs: int, w) -> int:
    """*w* as a Python int, if it is an integer block size in [1, N/2], so
    that error messages listing block sizes never show numpy scalar reprs."""
    try:
        w = operator.index(w)
    except TypeError:
        raise ScaleTooLarge(f"block size must be an integer, got {w!r}") from None
    if w < 1:
        raise ScaleTooLarge(f"block size must be >= 1, got {w}")
    if w > n_obs // 2:
        raise ScaleTooLarge(f"block size w={w} exceeds N/2 = {n_obs // 2}")
    return w


@lru_cache(maxsize=16)
def _gather_plan(n_obs: int, ws: tuple[int, ...]):
    """Index arrays that turn one padded cumsum into all blocks of all scales.

    Block k of scale w spans [k * w, (k + 1) * w); the blocks of each scale
    form one contiguous segment, starting at ``seg_starts``.
    """
    w = np.array(ws, dtype=np.int64)
    nb = n_obs // w
    seg_starts = np.cumsum(nb) - nb
    block_w = np.repeat(w, nb)
    starts = block_w * (np.arange(block_w.size) - np.repeat(seg_starts, nb))
    return starts, starts + block_w, block_w.astype(float), seg_starts, nb.astype(float)


def block_count(n_obs: int, divisors_only: bool = False) -> int:
    """Number of block means the default scales form for one series: the
    widest per-series array in the variance computation."""
    return _gather_plan(n_obs, _default_ws(n_obs, divisors_only))[0].size


def scale_variances(x: np.ndarray, ws: tuple[int, ...]) -> np.ndarray:
    """Aggregated variance of each row of *x* (rows, N) at each block size.

    The block means of size w are those of the floor(N/w) complete blocks;
    trailing remainder observations are discarded. Their variance is taken
    about the sample mean of the ORIGINAL series (for divisor w it
    coincides with the mean of the block means), with the block count as
    the denominator. Returns a (rows, len(ws)) matrix.
    """
    starts, ends, widths, seg_starts, counts = _gather_plan(x.shape[-1], ws)
    cs = np.zeros((x.shape[0], x.shape[-1] + 1))
    np.cumsum(x, axis=-1, out=cs[:, 1:])
    sq = cs[:, ends]
    sq -= cs[:, starts]
    sq /= widths
    sq -= x.sum(axis=-1, keepdims=True) / x.shape[-1]
    sq *= sq
    return np.add.reduceat(sq, seg_starts, axis=-1) / counts


def vtp_batch(x: np.ndarray, scales=None, divisors_only: bool = False) -> LogLogFits:
    """VTP fits of every row of *x* (rows, N); a row with a zero variance
    at some block size fails (NaN). See :func:`estimate_vtp`."""
    n_obs = x.shape[-1]
    if scales is None:
        ws = _default_ws(n_obs, divisors_only)
    else:
        ws = tuple(_check_scale(n_obs, w) for w in scales)
    if len(set(ws)) < 2:
        raise InsufficientScales(f"need >= 2 distinct block sizes, got {sorted(set(ws))}")
    fits = loglog_fits("VTP", ws, scale_variances(x, ws))
    beta = -fits.slope
    return replace(fits, hurst=1.0 - beta / 2.0)


def estimate_vtp(series, scales=None, divisors_only: bool = False) -> EstimatorResult:
    """VTP Hurst estimate: H = 1 - beta/2 from the log-log variance decay.

    *scales* is a sequence of integer block sizes in [1, N/2]; by default
    every w in [1, N/4] is used (see :func:`_default_ws`).

    The estimate is biased low on short series (Taqqu, Teverovsky &
    Willinger 1995, *Fractals* 3(4)). The log of an m-block variance
    carries the offset g(m) = psi((m-1)/2) + ln 2 - ln m for Gaussian
    block means, and m shrinks as w grows, so on i.i.d. data with the
    default scales the expected estimate is about 0.5 - delta_N, with
    delta_N = -1/2 * (OLS slope of g(m_w) on ln w) = 0.113, 0.104, 0.099
    and 0.095 at N = 128, 256, 512 and 1024. Seeded exponential grids give
    mean estimates of 0.40-0.42 at those lengths. No correction is
    applied.
    """
    fits = vtp_batch(as_series(series)[None, :], scales, divisors_only)
    zero = fits.scales[fits.statistics[0] == 0.0].tolist()
    if zero:
        raise ZeroVariance(f"aggregated variance is 0 at w={zero}; cannot take logs")
    return fits.result()
