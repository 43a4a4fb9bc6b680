"""Ordinary least-squares line fitting.

One implementation serves every line fit in this package: the log-log slope
regressions that produce the Hurst estimates, and the within-window linear
detrending inside DFA. :func:`fit_rows` fits every row of a batch against
one shared abscissa vector.
Sums are centered (x - x_bar, y - y_bar) before any products are formed,
which keeps the fit stable on the tightly clustered log-scale abscissae
that show up at N = 1024.

Means here and in the estimator kernels are written as ``sum / n``: the
same arithmetic as ``ndarray.mean``, without its per-call Python overhead,
which a simulation cell would pay thousands of times.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDesign

__all__ = ["RegressionFit", "fit_rows"]


@dataclass(frozen=True)
class RegressionFit:
    """Slope/intercept of a least-squares line plus residual diagnostics."""

    slope: float
    intercept: float
    residual_rms: float


def fit_rows(x, y) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Least-squares lines of every row of *y* against the shared abscissae *x*.

    *x* has shape (m,) and *y* shape (..., m). Returns (slope, intercept,
    residual_rms), each of shape ``y.shape[:-1]``. Every reduction runs
    along the last axis, so a row's fit is the same to the bit whatever
    other rows share the batch; a NaN in a row makes that row's fit NaN.
    Raises DegenerateDesign when m < 2 or all x coincide.
    """
    x = np.asarray(x, dtype=float)
    m = x.shape[0]
    if m < 2:
        raise DegenerateDesign(f"need >= 2 points, got {m}")
    x_bar = x.sum() / m
    xc = x - x_bar
    sxx = float((xc * xc).sum())
    if sxx == 0.0:
        raise DegenerateDesign("all x values are identical")
    y_bar = y.sum(axis=-1) / m
    yc = y - y_bar[..., None]
    slope = (yc * xc).sum(axis=-1) / sxx
    residuals = yc - slope[..., None] * xc
    residual_rms = np.sqrt((residuals * residuals).sum(axis=-1) / m)
    return slope, y_bar - slope * x_bar, residual_rms
