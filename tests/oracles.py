"""Reference computations the tests check the package against.

These are derived independently of the package: they restate documented
rules and textbook results, and never call hurstlab internals. Where the
package runs a vectorised or hand-rendered fast path, the plain loop it
replaced is kept here as the reference it must equal.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.special import digamma


def vtp_log_variance_bias(block_count):
    """g(m) = E[ln V] - ln E[V] for the aggregated variance of m Gaussian blocks.

    With m block means of variance s2 about their own mean, m * V / s2 is
    chi-squared on m - 1 degrees of freedom, so
    E[ln V] = ln s2 + psi((m - 1) / 2) + ln 2 - ln m, and g(m) is the last
    three terms. It is negative and tends to 0 as m grows.
    """
    m = np.asarray(block_count, dtype=float)
    return digamma((m - 1.0) / 2.0) + np.log(2.0) - np.log(m)


def vtp_mean_shift(n_obs: int) -> float:
    """delta_N: how far the VTP mean estimate sits below H on i.i.d. data.

    Uses the documented VTP scale rule: every block size w from 1 to N/4,
    with m = floor(N/w) blocks. E[ln V_w] = ln(s2 / w) + g(m_w), so the OLS
    slope of ln V_w on ln w is -1 plus the slope of g(m_w) on ln w, and
    H = 1 - beta/2 moves by half that slope. Returns the shift as a
    positive number: the expected estimate is 0.5 - delta_N.
    """
    w = np.arange(1, n_obs // 4 + 1)
    slope = np.polyfit(np.log(w), vtp_log_variance_bias(n_obs // w), 1)[0]
    return -float(slope) / 2.0


def rescaled_range_reference(series, n: int, ddof: int) -> float:
    """Mean R/S over the subseries of length n, one subseries at a time:
    center, cumulate, take the range, divide by the SD with the given
    ddof, and average over the subseries whose SD is not zero."""
    series = np.asarray(series, dtype=float)
    ratios = []
    for m in range(len(series) // n):
        sub = series[m * n:(m + 1) * n]
        std = sub.std(ddof=ddof)
        if std == 0:
            continue
        profile = np.cumsum(sub - sub.mean())
        ratios.append((profile.max() - profile.min()) / std)
    return float(np.mean(ratios))


def rescaled_ranges_reference(seg: np.ndarray, ddof: int) -> tuple[np.ndarray, np.ndarray]:
    """R/S of every subseries along the last axis of *seg*, and whether its
    SD is nonzero (a zero-SD subseries gets R/S 0), by reductions over the
    C-ordered centred values and their C-ordered cumulative sums."""
    n = seg.shape[-1]
    centred = seg - seg.sum(axis=-1, keepdims=True) / n
    sd = np.sqrt((centred * centred).sum(axis=-1) / (n - ddof))
    profiles = np.cumsum(centred, axis=-1)
    ranges = profiles.max(axis=-1) - profiles.min(axis=-1)
    ok = sd > 0.0
    return np.divide(ranges, sd, out=np.zeros_like(ranges), where=ok), ok


def rs_statistics_reference(x: np.ndarray, windows, ddof: int) -> np.ndarray:
    """Mean R/S of each row of *x* (rows, N) at each window length n, over
    the subseries whose SD is not zero (NaN when none is): the (rows, N // n,
    n) subseries through :func:`rescaled_ranges_reference`, then numpy's sum
    over each row's subseries divided by their count. These are the
    package's operations in the package's order, so the bytes must match."""
    out = np.empty((x.shape[0], len(windows)))
    for j, n in enumerate(windows):
        rs, ok = rescaled_ranges_reference(x.reshape(x.shape[0], -1, n), ddof)
        with np.errstate(invalid="ignore"):
            out[:, j] = rs.sum(axis=-1) / ok.sum(axis=-1)
    return out


def fluctuation_reference(subseries) -> float:
    """DFA fluctuation of one subseries: cumulate without centering, fit a
    line over t = 1..n with polyfit, take the RMS of the residuals."""
    profile = np.cumsum(np.asarray(subseries, dtype=float))
    t = np.arange(1, len(profile) + 1)
    slope, intercept = np.polyfit(t, profile, 1)
    residuals = profile - (slope * t + intercept)
    return math.sqrt(np.mean(residuals**2))


def dfa_fluctuation_reference(series, n: int) -> float:
    """Mean DFA fluctuation over the subseries of length n."""
    series = np.asarray(series, dtype=float)
    return float(np.mean([fluctuation_reference(seg) for seg in series.reshape(-1, n)]))


def aggregated_variance_reference(series, w: int) -> float:
    """VTP variance at block size w, one block at a time: the means of the
    floor(N/w) complete blocks, squared about the mean of the whole series
    and averaged over the blocks."""
    series = np.asarray(series, dtype=float)
    grand_mean = series.mean()
    means = [series[k * w:(k + 1) * w].mean() for k in range(len(series) // w)]
    return float(np.mean([(m - grand_mean) ** 2 for m in means]))


def spawn_key_uniforms(master_seed: int, cell_id: int, iteration: int,
                       size: int) -> np.ndarray:
    """numpy's own path for one stream: SeedSequence(master_seed,
    spawn_key=(cell_id, iteration)) seeds PCG64, Generator.random draws,
    and a draw of exactly 0.0 becomes the next positive double."""
    seq = np.random.SeedSequence(master_seed, spawn_key=(cell_id, iteration))
    u = np.random.Generator(np.random.PCG64(seq)).random(size)
    u[u == 0.0] = np.nextafter(0.0, 1.0)
    return u


def exponential_rows_reference(master_seed: int, cell_id: int, iterations,
                               length: int, lam: float) -> np.ndarray:
    """One row per iteration: -ln(u)/lambda of that iteration's uniforms."""
    return np.stack([-np.log(spawn_key_uniforms(master_seed, cell_id, k, length)) / lam
                     for k in iterations])


class ReferenceParseError(Exception):
    """A series-file line the reference parser rejects (1-based number)."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


def read_series_reference(path) -> np.ndarray:
    """The series-file contract, one line at a time: one number per line,
    blank lines and '#' comments skipped, the first line that is not a
    finite number rejected."""
    values = []
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                value = float(line)
            except ValueError:
                raise ReferenceParseError(lineno, f"not a number: {line!r}") from None
            if not math.isfinite(value):
                raise ReferenceParseError(lineno, f"non-finite value: {line!r}")
            values.append(value)
    return np.asarray(values, dtype=float)


def scale_variances_reference(x: np.ndarray, ws) -> np.ndarray:
    """VTP variances of each row of *x* (rows, N), one block size at a time.

    The floor(N/w) block sums at size w are differences of two strided
    slices of the zero-padded row-wise cumsum; each is divided by w, has
    the row mean subtracted and is squared, and numpy's segment sum over
    all of them, divided by their count, is the variance. These are the
    package's operations in the package's order, so the bytes must match.
    """
    cs = np.zeros((x.shape[0], x.shape[-1] + 1))
    np.cumsum(x, axis=-1, out=cs[:, 1:])
    mean = x.sum(axis=-1, keepdims=True) / x.shape[-1]
    out = np.empty((x.shape[0], len(ws)))
    for i, w in enumerate(ws):
        nb = x.shape[-1] // w
        dev = (cs[:, w::w][:, :nb] - cs[:, ::w][:, :nb]) / w - mean
        out[:, i] = np.add.reduceat(dev * dev, [0], axis=-1)[:, 0] / nb
    return out


def estimates_json_reference(results, input_path: str, n_observations: int,
                             options: dict) -> str:
    """The estimate document as json.dumps lays it out with indent=2."""
    doc = {
        "input": input_path,
        "n_observations": n_observations,
        "options": options,
        "results": [
            {
                "method": r.method,
                "hurst": r.hurst,
                "fit": {
                    "slope": r.fit.slope,
                    "intercept": r.fit.intercept,
                    "n_points": len(r.scales),
                    "residual_rms": r.fit.residual_rms,
                },
                "points": [
                    {"scale": int(w), "statistic": float(s)}
                    for w, s in zip(r.scales, r.statistics)
                ],
                "warnings": list(r.warnings),
            }
            for r in results
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def report_json_reference(report) -> str:
    """A simulation report as json.dumps lays it out with indent=2."""
    meta = report.metadata
    doc = {
        "metadata": {
            "master_seed": meta.master_seed,
            "generator": meta.generator,
            "window_policy": {
                "min_window": meta.window_policy.min_window,
                "max_window_rule": meta.window_policy.max_window_rule,
            },
            "sd_mode": meta.sd_mode,
            "vtp_divisors_only": meta.vtp_divisors_only,
            "artifact_version": meta.artifact_version,
        },
        "cells": [
            {
                "lambda": c.cell.lam,
                "length": c.cell.length,
                "iterations": c.cell.iterations,
                "methods": {
                    method: {
                        "mean_hurst": stats.mean_hurst,
                        "mse": stats.mse,
                        "failure_count": stats.failure_count,
                    }
                    for method, stats in c.methods.items()
                },
            }
            for c in report.cells
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def estimates_csv_reference(results) -> str:
    """The estimate table, one line per (scale, statistic) pair, at 6
    significant digits."""
    def fmt(x):
        return f"{x:.6g}"

    lines = ["method,hurst,slope,intercept,residual_rms,n_points,warnings"]
    for r in results:
        lines.append(",".join([
            r.method, fmt(r.hurst), fmt(r.fit.slope), fmt(r.fit.intercept),
            fmt(r.fit.residual_rms), str(len(r.scales)), ";".join(r.warnings),
        ]))
    lines.append("# points")
    lines.append("method,scale,statistic")
    for r in results:
        for w, s in zip(r.scales, r.statistics):
            lines.append(f"{r.method},{int(w)},{fmt(float(s))}")
    return "\n".join(lines) + "\n"


def first_difference(got: str, expected: str):
    """(line number, got line, expected line) where two texts first differ,
    or None if they are equal. Keeps a failure on a long document readable
    without a full diff."""
    if got == expected:
        return None
    got_lines, expected_lines = got.split("\n"), expected.split("\n")
    for lineno, (a, b) in enumerate(zip(got_lines, expected_lines), start=1):
        if a != b:
            return lineno, a, b
    n = min(len(got_lines), len(expected_lines))
    return n + 1, got_lines[n:n + 1], expected_lines[n:n + 1]


def assert_results_equal(got, expected) -> None:
    """Two estimator results are equal field by field, their point arrays
    bit for bit and of the same dtype."""
    assert got.method == expected.method
    assert got.hurst == expected.hurst
    assert got.fit == expected.fit
    assert got.warnings == expected.warnings
    for name in ("scales", "statistics"):
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name
