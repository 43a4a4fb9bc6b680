"""Ordinary least-squares line fitting, and the window-major sums of short windows.

One implementation serves every line fit in this package: the log-log slope
regressions that produce the Hurst estimates, and the within-window linear
detrending inside DFA. :func:`line_fit` fits every row of a batch against
one shared abscissa vector.
Sums are centered (x - x_bar, y - y_bar) before any products are formed,
which keeps the fit stable on the tightly clustered log-scale abscissae
that show up at N = 1024.

Means here and in the estimator kernels are written as ``sum / n``: the
same arithmetic as ``ndarray.mean``. Sums are ``np.add.reduce`` itself, the
reduction that ``ndarray.sum`` runs behind a Python-level wrapper, so the
bits are the same without that wrapper's cost, which a one-cell simulation
would pay some sixty times.

Short windows run window-major. A numpy reduction or cumulative sum along a
last axis only a few values long pays a loop set-up per subseries, which
dominates the R/S and DFA kernels at their short windows. Where
:func:`window_major` accepts a window, the kernels instead copy its
subseries once into an (n, M) array ``t``, one row per position and one
column per subseries (:func:`window_major_copy`), and work on whole rows: a
cumulative sum is ``t[i] += t[i - 1]`` (:func:`cumulate_rows`), and
:func:`rows_sum` adds the rows, or their products with another array, 8
rows per numpy call. :func:`window_major_rms` is DFA's line fit of such a
window. Every other window, and every log-log fit, reduces along its last
axis. The bytes of every estimate hold only because the row sum keeps
numpy's own order for a last axis of 2 to 128 values: fewer than 8 values
are added one after another; from 8 values on numpy keeps 8 partial sums,
the first 8 values with one block of 8 added to them at a time, combines
them as ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``, and adds the values left
over past the last whole block one at a time. numpy also starts from its
identity +0.0, so a sum of -0.0 terms is +0.0; the row sum adds 0.0 last to
match. A numpy release that changed this order would fail the tests that
pin it rather than move an estimate's low bits. The two paths give the same
bits, so which one a window takes may depend on the size of the chunk as
well as on n, and a Monte Carlo report stays the same whatever the chunking.

A fit needs its abscissae as the triple (x_bar, x - x_bar, Sxx) that
:func:`abscissae` makes. The kernels take it from a plan built once per
series length and options (``base.FitPlan``'s log scales, and DFA's
``t = 1..n`` per window length) and pass it to :func:`line_fit` or
:func:`window_major_rms`.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateDesign
from .record import Record

__all__ = ["RegressionFit", "line_fit"]

#: Longest window that the kernels compute window-major.
WINDOW_MAJOR_MAX = 32
#: A window of n points runs window-major over at least this many times n * n
#: values, that is at least 16 n subseries: with fewer, its n numpy calls per
#: row pass cost more than the per-subseries loop set-ups they save.
WINDOW_MAJOR_VALUES = 16


class RegressionFit(Record):
    """Slope/intercept of a least-squares line plus residual diagnostics."""

    __slots__ = ()

    def __new__(cls, slope: float, intercept: float, residual_rms: float):
        return tuple.__new__(cls, (slope, intercept, residual_rms))


def window_major(n: int, size: int) -> bool:
    """Whether the kernels run a window of *n* points over *size* values
    (all rows and subseries of a chunk) window-major. The constants come
    from ``scripts/time_kernels.py``'s path sweep (``BENCH_26.json``), and
    :func:`rows_sum` holds for n <= 128 only."""
    return n <= WINDOW_MAJOR_MAX and size >= WINDOW_MAJOR_VALUES * n * n


def rows_sum(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Sum over the 2 to 128 rows of *a*, or of ``a * b``, bit for bit
    ``np.add.reduce(a.T, axis=-1)`` or ``np.add.reduce((a * b).T, axis=-1)``
    (see the module docstring for the order). *b* broadcasts against *a*,
    and no temporary is larger than 8 rows, so a product of large arrays is
    never held whole."""
    n = a.shape[0]
    whole = 0 if n < 8 else n - n % 8
    if not whole:
        total = a[0] + a[1] if b is None else a[0] * b[0] + a[1] * b[1]
        whole = 2
    else:
        partial = None
        if b is not None:
            partial = a[:8] * b[:8]
            block = np.empty_like(partial) if whole > 8 else None
            for k in range(8, whole, 8):
                np.multiply(a[k:k + 8], b[k:k + 8], out=block)
                partial += block
        elif whole > 8:
            partial = a[:8] + a[8:16]
            for k in range(16, whole, 8):
                partial += a[k:k + 8]
        # the tree, in place where the partial sums are not a's own rows
        if partial is None:
            pairs = a[0:8:2] + a[1:8:2]
        else:
            pairs = partial[0::2]
            pairs += partial[1::2]
        pairs[0::2] += pairs[1::2]
        total = pairs[0] + pairs[2]
    for i in range(whole, n):
        total += a[i] if b is None else a[i] * b[i]
    total += 0.0
    return total


def window_major_copy(seg: np.ndarray) -> np.ndarray:
    """The subseries along the last axis of *seg* as the columns of a new
    C-ordered (n, M) array; a copy even where the transpose is a C-ordered
    view (M = 1)."""
    return seg.reshape(-1, seg.shape[-1]).T.copy()


def cumulate_rows(t: np.ndarray) -> None:
    """``np.cumsum(t, axis=0)`` in place, bit for bit: one add per row."""
    for i in range(1, t.shape[0]):
        t[i] += t[i - 1]


def abscissae(x) -> tuple[float, np.ndarray, float]:
    """(x_bar, x - x_bar, Sxx) of the shared abscissae *x*, with the centred
    values read-only; raises DegenerateDesign when there are fewer than 2 or
    all coincide."""
    x = np.asarray(x, dtype=float)
    m = x.shape[0]
    if m < 2:
        raise DegenerateDesign(f"need >= 2 points, got {m}")
    x_bar = np.add.reduce(x) / m
    xc = x - x_bar
    xc.flags.writeable = False
    sxx = float(np.add.reduce(xc * xc))
    if sxx == 0.0:
        raise DegenerateDesign("all x values are identical")
    return x_bar, xc, sxx


def line_fit(absc, y) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Least-squares lines of every row of *y* against shared abscissae *x*,
    given as their :func:`abscissae` triple (which raises DegenerateDesign
    when there are fewer than 2 x values or all coincide).

    *x* has m values and *y* shape (..., m). Returns (slope, intercept,
    residual_rms), each of shape ``y.shape[:-1]``. Every sum runs over one
    row's values in numpy's order, so a row's fit is the same to the bit
    whatever other rows share the batch; a NaN in a row makes that row's
    fit NaN. Two arrays of *y*'s shape are made: the centred values, and
    one work array that holds in turn their products with the abscissae,
    the fitted line, the residuals and their squares."""
    x_bar, xc, sxx = absc
    m = xc.shape[0]
    y_bar = np.add.reduce(y, axis=-1) / m
    yc = y - y_bar[..., None]
    work = yc * xc
    slope = np.add.reduce(work, axis=-1) / sxx
    np.multiply(slope[..., None], xc, out=work)
    np.subtract(yc, work, out=work)
    work *= work
    residual_rms = np.sqrt(np.add.reduce(work, axis=-1) / m)
    return slope, y_bar - slope * x_bar, residual_rms


def window_major_rms(absc, y) -> np.ndarray:
    """The ``residual_rms`` of :func:`line_fit` for each column of *y*
    (m, M) against the abscissae, bit for bit. *y* is overwritten with the
    squared residuals, and no other temporary is larger than 8 rows."""
    _, xc, sxx = absc
    m = xc.shape[0]
    xc = xc[:, None]
    y -= rows_sum(y) / m
    slope = rows_sum(y, xc) / sxx
    for k in range(0, m, 8):
        y[k:k + 8] -= slope * xc[k:k + 8]
    y *= y
    return np.sqrt(rows_sum(y) / m)
