"""Ordinary least-squares line fitting.

One implementation serves every line fit in this package: the log-log slope
regressions that produce the Hurst estimates, and the within-window linear
detrending inside DFA. :func:`fit_rows` fits every row of a batch against
one shared abscissa vector; the single-line helpers are its one-row case.
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

__all__ = ["RegressionFit", "fit_rows", "ols_fit", "fit_line_to_profile"]


@dataclass(frozen=True)
class RegressionFit:
    """Slope/intercept of a least-squares line plus residual diagnostics."""

    slope: float
    intercept: float
    n_points: int
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


def _fit_xy(x: np.ndarray, y: np.ndarray) -> RegressionFit:
    slope, intercept, residual_rms = fit_rows(x, y[None, :])
    return RegressionFit(
        slope=float(slope[0]),
        intercept=float(intercept[0]),
        n_points=int(x.shape[0]),
        residual_rms=float(residual_rms[0]),
    )


def ols_fit(points) -> RegressionFit:
    """Fit y = slope*x + intercept by ordinary least squares.

    *points* is any sequence of (x, y) pairs. Raises DegenerateDesign when
    there are fewer than 2 points or all x coincide.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise DegenerateDesign(f"expected (x, y) pairs, got shape {pts.shape}")
    return _fit_xy(pts[:, 0], pts[:, 1])


def fit_line_to_profile(profile) -> RegressionFit:
    """OLS fit of a cumulative profile against t = 1, ..., n."""
    y = np.asarray(profile, dtype=float)
    if y.ndim != 1:
        raise DegenerateDesign(f"profile must be 1-D, got shape {y.shape}")
    return _fit_xy(np.arange(1.0, y.shape[0] + 1.0), y)
