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


def gather_plan_reference(n_obs: int, ws: tuple[int, ...]):
    """VTP's gather plan built one scale at a time: for each block size w,
    the start and end of its floor(N/w) blocks, their width, the offset of
    the scale's segment and its block count."""
    starts, ends, widths = [], [], []
    seg_starts, counts = [], []
    pos = 0
    for w in ws:
        nb = n_obs // w
        edges = w * np.arange(nb + 1)
        starts.append(edges[:-1])
        ends.append(edges[1:])
        widths.append(np.full(nb, float(w)))
        seg_starts.append(pos)
        counts.append(nb)
        pos += nb
    return (
        np.concatenate(starts),
        np.concatenate(ends),
        np.concatenate(widths),
        np.array(seg_starts),
        np.array(counts, dtype=float),
    )


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
                    "n_points": r.fit.n_points,
                    "residual_rms": r.fit.residual_rms,
                },
                "points": [
                    {"scale": p.scale, "statistic": p.statistic} for p in r.points
                ],
                "warnings": list(r.warnings),
            }
            for r in results
        ],
    }
    return json.dumps(doc, indent=2) + "\n"
