"""Ordinary least-squares line fitting, and the column sums of short windows.

One implementation serves every line fit in this package: the log-log slope
regressions that produce the Hurst estimates, and the within-window linear
detrending inside DFA. :func:`fit_rows` fits every row of a batch against
one shared abscissa vector.
Sums are centered (x - x_bar, y - y_bar) before any products are formed,
which keeps the fit stable on the tightly clustered log-scale abscissae
that show up at N = 1024.

Means here and in the estimator kernels are written as ``sum / n``: the
same arithmetic as ``ndarray.mean``. Sums are ``np.add.reduce`` itself, the
reduction that ``ndarray.sum`` runs behind a Python-level wrapper, so the
bits are the same without that wrapper's cost, which a one-cell simulation
would pay some sixty times.

Short windows run column by column. A numpy reduction along a last axis
only a few values long pays a loop set-up per row, which dominates the
kernels at the shortest windows (n = 2, 4, 8). Up to :data:`COLUMN_PATH_MAX`
values, the kernels instead apply elementwise operations to the column views
``a[..., i]``, and :func:`column_sum` adds them; :func:`fit_columns` is DFA's
line fit of such a window. A log-log fit has only one row per series, too
few for the loop set-up to outweigh the column path's extra numpy calls, so
it reduces along its axis whatever its length. The bytes of every estimate
hold only because the column sum keeps numpy's own order: ``ndarray.sum``
adds fewer than 8 values one after another, and from 8 values on it keeps 8
partial sums combined as ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``. At
exactly 8 each partial sum is one value, so that tree is the whole sum.
Beyond 8 the partial sums would have to be mirrored as well, and a Python
loop over that many columns is slower than the reduction, so longer windows
stay on the axis path. numpy also starts from its identity +0.0, so a sum of
-0.0 terms is +0.0; the column sum adds 0.0 last to match. A numpy release
that changed this order would fail the tests that pin it rather than move an
estimate's low bits.

A fit needs its abscissae as the triple (x_bar, x - x_bar, Sxx) that
:func:`abscissae` makes. :func:`fit_rows` and :func:`fit_columns` make it
from raw abscissae on every call; the kernels take it from a plan built once
per series length and options (``base.FitPlan``'s log scales, and DFA's
``t = 1..n`` per window length) and pass it to :func:`line_fit` and
:func:`line_fit_columns`, which the raw entries call too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDesign

__all__ = ["RegressionFit", "fit_rows"]

#: Longest window that the kernels compute column by column.
COLUMN_PATH_MAX = 8


@dataclass(frozen=True)
class RegressionFit:
    """Slope/intercept of a least-squares line plus residual diagnostics."""

    slope: float
    intercept: float
    residual_rms: float


def column_sum(cols):
    """Sum of 2 to 8 equal-shape arrays, bit for bit ``np.stack(cols,
    axis=-1).sum(axis=-1)`` (see the module docstring for the order)."""
    if len(cols) == 8:
        total = ((cols[0] + cols[1]) + (cols[2] + cols[3])) + \
                ((cols[4] + cols[5]) + (cols[6] + cols[7]))
    else:
        total = cols[0] + cols[1]
        for col in cols[2:]:
            total += col
    total += 0.0
    return total


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


def fit_rows(x, y) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Least-squares lines of every row of *y* against the shared abscissae *x*.

    *x* has shape (m,) and *y* shape (..., m). Returns (slope, intercept,
    residual_rms), each of shape ``y.shape[:-1]``. Every sum runs over
    one row's values in numpy's order, so a row's fit is the same to the
    bit whatever other rows share the batch; a NaN in a row makes that
    row's fit NaN. Raises DegenerateDesign when m < 2 or all x coincide.
    """
    return line_fit(abscissae(x), y)


def line_fit(absc, y) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`fit_rows` given the :func:`abscissae` triple of *x*. Two arrays
    of *y*'s shape are made: the centred values, and one work array that
    holds in turn their products with the abscissae, the fitted line, the
    residuals and their squares."""
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


def fit_columns(x, cols) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`fit_rows` of the m <= 8 columns ``y[..., i]``, given as a list:
    the within-window fit of DFA's short windows, bit for bit the same.
    Raises ValueError when *x* and *cols* differ in length."""
    return line_fit_columns(abscissae(x), cols)


def line_fit_columns(absc, cols) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`fit_columns` given the :func:`abscissae` triple of *x*."""
    x_bar, xc, sxx = absc
    m = len(cols)
    y_bar = column_sum(cols) / m
    yc = [col - y_bar for col in cols]
    slope = column_sum([c * xi for c, xi in zip(yc, xc, strict=True)]) / sxx
    residuals = [c - slope * xi for c, xi in zip(yc, xc)]
    residual_rms = np.sqrt(column_sum([r * r for r in residuals]) / m)
    return slope, y_bar - slope * x_bar, residual_rms
