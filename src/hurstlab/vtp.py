"""Variance-time plot (aggregated variance) Hurst estimation.

The series is averaged over non-overlapping blocks of size w; for
self-similar processes the variance of the block means decays as
c * w**(-beta), so the slope of log-variance against log-w is -beta and
H = 1 - beta/2. Unlike the R/S and DFA pipelines, w is not restricted to
divisors of N: a trailing remainder of fewer than w observations is simply
discarded. Block sizes up to N/2 are accepted; the default regression set
stops at N/4 (see :func:`_default_ws`).

Block means of a (rows, N) batch of series are differences of the row-wise
cumulative sums. The default scales have about N ln(N/4) blocks per row;
they are gathered one group of scales at a time, and a group holds fewer
than 2 * :data:`GROUP_BLOCKS` blocks per row or the blocks of one scale, so
the working memory is O(N). A group keeps one (rows, blocks) gather live,
its block ends, and subtracts its block starts from it in tiles of whole
rows, of at most :data:`START_GATHER_VALUES` values or one row. Per series
length and scale set, only per-scale arrays are cached, and, for a set
that is one group, its block ends and widths (fewer than 2 * GROUP_BLOCKS
of each); a set of more groups builds those per group on every call. The
default block sizes are a range (or, with ``divisors_only``, a tuple of
divisors), so that neither their plan nor their per-call cache key takes
a pass over N/4 Python ints; their log-log abscissae are cached per
(length, ``divisors_only``). Explicit scales build theirs on every call.
:func:`vtp_batch` is what the simulation grid runs, and
:func:`estimate_vtp` is its one-row case.
"""

from __future__ import annotations

import operator
from functools import lru_cache

import numpy as np

from .base import EstimatorResult, FitPlan, LogLogFits, divisors, loglog_fits
from .errors import InsufficientWindows, ScaleTooLarge
from .regression import abscissae
from .series import as_series

__all__ = [
    "scale_variances",
    "vtp_batch",
    "estimate_vtp",
]


def _default_ws(n_obs: int, divisors_only: bool) -> range | tuple[int, ...]:
    """Default block sizes: every integer w from 1 to N/4, as a range.

    Block sizes up to N/2 are valid, but the default stops at N/4 so every
    scale keeps at least 4 complete blocks: the log of a 2- or 3-block
    variance is so skewed that including those scales pushes the fitted
    decay rate far above the true one. With ``divisors_only`` the set is
    further restricted to divisors of N, for which no observations are
    discarded, as a tuple.
    """
    if divisors_only:
        return tuple(w for w in divisors(n_obs) if w <= n_obs // 4)
    return range(1, n_obs // 4 + 1)


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


def _int64(ws) -> np.ndarray:
    """Block sizes *ws* as an int64 array; a range with no pass over its ints."""
    if isinstance(ws, range):
        return np.arange(ws.start, ws.stop, ws.step, dtype=np.int64)
    return np.array(ws, dtype=np.int64)


def _scale_plan(ws: range | tuple[int, ...]) -> FitPlan:
    """The FitPlan of block sizes *ws*, with *ws* as its windows; a range's
    sizes are distinct without a set() of them."""
    distinct = ws if isinstance(ws, range) else set(ws)
    if len(distinct) < 2:
        raise InsufficientWindows(f"need >= 2 distinct block sizes, got {sorted(distinct)}")
    scales = _int64(ws)
    scales.flags.writeable = False
    return FitPlan(ws, scales, abscissae(np.log(scales.astype(float))))


@lru_cache(maxsize=16)
def _default_plan(n_obs: int, divisors_only: bool) -> FitPlan:
    """The FitPlan of the default block sizes (:func:`_default_ws`)."""
    return _scale_plan(_default_ws(n_obs, divisors_only))


# About this many blocks per row are gathered at once (see _gather_plan).
GROUP_BLOCKS = 16384
# The block starts are gathered in tiles of whole rows, of at most this many
# values (rows x blocks) or one row. The ends stay one gather per group:
# that gather is the largest block the process frees, which sets glibc's
# mmap and trim thresholds, and smaller end gathers made mc-long fault on
# every call.
START_GATHER_VALUES = 32768


def _blocks(w: np.ndarray, nb: np.ndarray, seg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """End in the cumsum, and width, of every block of the scales *w* with
    *nb* blocks each, whose segments start at *seg*: block k of scale w
    spans [k * w, (k + 1) * w)."""
    widths = np.repeat(w, nb)
    ends = np.arange(1, widths.size + 1)
    ends -= np.repeat(seg, nb)
    ends *= widths
    return ends, widths


@lru_cache(maxsize=16)
def _gather_plan(n_obs: int, ws: range | tuple[int, ...]):
    """Per-scale block sizes and block counts, and the scale groups.

    The blocks of each scale form one segment of the sequence of all
    blocks. A new group starts at a scale whose segment start reaches the
    next multiple of :data:`GROUP_BLOCKS`, and at a scale with more blocks
    than that, which is then a group by itself. Each group is (lo, hi, seg,
    blocks): the scales ``lo:hi``, their segment starts within the group,
    and, when the set is one group, its :func:`_blocks`, else None. Every
    array is read-only.
    """
    w = _int64(ws)
    nb = n_obs // w
    seg_starts = np.cumsum(nb) - nb
    first = np.ones(w.size, dtype=bool)
    first[1:] = (np.diff(seg_starts // GROUP_BLOCKS) > 0) | (nb[1:] > GROUP_BLOCKS)
    bounds = [*np.flatnonzero(first).tolist(), w.size]
    groups, arrays = [], [w, nb]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        seg = seg_starts[lo:hi] - seg_starts[lo]
        blocks = _blocks(w, nb, seg) if len(bounds) == 2 else None
        groups.append((lo, hi, seg, blocks))
        arrays += [seg, *(blocks or ())]
    for a in arrays:
        a.flags.writeable = False
    return w, nb, tuple(groups)


def scale_variances(x: np.ndarray, ws: range | tuple[int, ...]) -> np.ndarray:
    """Aggregated variance of each row of *x* (rows, N) at each block size
    in *ws*, valid block sizes as a range or a tuple of ints.

    The block means of size w are those of the floor(N/w) complete blocks;
    trailing remainder observations are discarded. Their variance is taken
    about the sample mean of the ORIGINAL series (for divisor w it
    coincides with the mean of the block means), with the block count as
    the denominator. Returns a (rows, len(ws)) matrix.

    Block k of scale w spans [k * w, (k + 1) * w); its sum is a difference
    of the row-wise cumsum: each group of scales gathers its block ends
    whole and subtracts its block starts gathered in tiles of whole rows, of
    at most :data:`START_GATHER_VALUES` values or one row.
    """
    w, nb, groups = _gather_plan(x.shape[-1], ws)
    cs = np.zeros((x.shape[0], x.shape[-1] + 1))
    np.cumsum(x, axis=-1, out=cs[:, 1:])
    mean = np.add.reduce(x, axis=-1, keepdims=True) / x.shape[-1]
    out = np.empty((x.shape[0], w.size))
    for lo, hi, seg, blocks in groups:
        ends, widths = blocks or _blocks(w[lo:hi], nb[lo:hi], seg)
        sq = cs.take(ends, axis=1)
        # the block starts, in place when the ends were built for this call
        starts = np.subtract(ends, widths, out=None if blocks else ends)
        # tiles of whole rows are contiguous: column slices of every row made
        # scale_variances 14-19% slower at mc-long's shapes
        step = max(START_GATHER_VALUES // starts.size, 1)
        for r in range(0, x.shape[0], step):
            sq[r:r + step] -= cs[r:r + step].take(starts, axis=1)
        sq /= widths
        sq -= mean
        sq *= sq
        out[:, lo:hi] = np.add.reduceat(sq, seg, axis=-1) / nb[lo:hi]
    return out


def vtp_batch(x: np.ndarray, scales=None, divisors_only: bool = False) -> LogLogFits:
    """VTP fits of every row of *x* (rows, N); a row with a zero or
    overflowing variance at some block size fails (NaN). See
    :func:`estimate_vtp`."""
    n_obs = x.shape[-1]
    if scales is None:
        plan = _default_plan(n_obs, divisors_only)
    else:
        plan = _scale_plan(tuple(_check_scale(n_obs, w) for w in scales))
    return loglog_fits("VTP", plan, scale_variances(x, plan.windows))


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
    return vtp_batch(as_series(series)[None, :], scales, divisors_only).result()
