"""Series-file parsing and report serialization (JSON, CSV, plot data).

JSON carries full double precision and round-trips to an equal in-memory
report; CSV lays the grid out for humans (lambda rows, one column per
series length, separate Hurst and MSE column groups) at 4 decimal places.
Plot-data files hold the mean estimate against lambda, one column per N,
one file per (method, iteration count). All numeric output is rendered
with locale-independent formatting.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .base import EstimatorResult, WindowPolicy
from .errors import SeriesParseError
from .montecarlo import (
    METHODS,
    CellReport,
    MethodStats,
    ReportMetadata,
    SimulationCell,
    SimulationReport,
)

__all__ = [
    "read_series_file",
    "report_to_json",
    "report_from_json",
    "report_to_csv",
    "plot_data_files",
    "estimates_to_json",
    "estimates_to_csv",
]


def read_series_file(path) -> np.ndarray:
    """Parse a series file: one decimal observation per line, '#' comments.

    Blank lines are ignored. Any other unparseable or non-finite line, or
    a byte that is not UTF-8, raises SeriesParseError carrying its 1-based
    line number. Lines end at ``\\n``, ``\\r\\n`` or ``\\r``; a leading
    byte-order mark is skipped.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        head = exc.object[: exc.start]
        lineno = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        bad = exc.object[exc.start]
        raise SeriesParseError(lineno, f"not UTF-8 text ({exc.reason} 0x{bad:02x})") from None
    data = [line for line in map(str.strip, lines) if line and line[0] != "#"]
    try:
        values = np.fromiter(map(float, data), dtype=float, count=len(data))
        if np.isfinite(values).all():
            return values
    except ValueError:
        pass
    raise _first_bad_line(lines)


def _first_bad_line(lines: list[str]) -> SeriesParseError:
    """The error for the first data line that is not a finite number."""
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            value = float(line)
        except ValueError:
            return SeriesParseError(lineno, f"not a number: {line!r}")
        if not math.isfinite(value):
            return SeriesParseError(lineno, f"non-finite value: {line!r}")
    raise AssertionError("no bad line in a series that failed to parse")


# --- simulation reports -----------------------------------------------------


def _cell_dict(report: CellReport) -> dict:
    return {
        "lambda": report.cell.lam,
        "length": report.cell.length,
        "iterations": report.cell.iterations,
        "methods": {
            method: {
                "mean_hurst": stats.mean_hurst,
                "mse": stats.mse,
                "failure_count": stats.failure_count,
            }
            for method, stats in report.methods.items()
        },
    }


def report_to_json(report: SimulationReport) -> str:
    """Serialize a simulation report; deterministic for equal reports.

    Wall-clock duration is deliberately left out so identical configurations
    produce byte-identical files.
    """
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
        "cells": [_cell_dict(c) for c in report.cells],
    }
    return json.dumps(doc, indent=2) + "\n"


def report_from_json(text: str) -> SimulationReport:
    """Inverse of :func:`report_to_json` (duration comes back as 0)."""
    doc = json.loads(text)
    meta = doc["metadata"]
    metadata = ReportMetadata(
        master_seed=meta["master_seed"],
        generator=meta["generator"],
        window_policy=WindowPolicy(
            min_window=meta["window_policy"]["min_window"],
            max_window_rule=meta["window_policy"]["max_window_rule"],
        ),
        sd_mode=meta["sd_mode"],
        vtp_divisors_only=meta["vtp_divisors_only"],
        artifact_version=meta["artifact_version"],
    )
    cells = []
    for cd in doc["cells"]:
        cell = SimulationCell(
            lam=cd["lambda"], length=cd["length"], iterations=cd["iterations"]
        )
        methods = {
            method: MethodStats(
                mean_hurst=md["mean_hurst"],
                mse=md["mse"],
                failure_count=md["failure_count"],
            )
            for method, md in cd["methods"].items()
        }
        cells.append(CellReport(cell=cell, methods=methods))
    return SimulationReport(metadata=metadata, cells=tuple(cells))


def _fmt4(x: float) -> str:
    return f"{x:.4f}"


def _grid_axes(report: SimulationReport):
    lambdas = sorted({c.cell.lam for c in report.cells})
    sizes = sorted({c.cell.length for c in report.cells})
    iteration_counts = sorted({c.cell.iterations for c in report.cells})
    by_key = {(c.cell.lam, c.cell.length, c.cell.iterations): c for c in report.cells}
    return lambdas, sizes, iteration_counts, by_key


def report_to_csv(report: SimulationReport) -> str:
    """Comparison tables: per method, lambda x iterations rows, N columns."""
    lambdas, sizes, iteration_counts, by_key = _grid_axes(report)
    lines = []
    for method in METHODS:
        lines.append(f"# method={method}")
        header = (
            ["lambda", "iterations"]
            + [f"hurst_N{size}" for size in sizes]
            + [f"mse_N{size}" for size in sizes]
        )
        lines.append(",".join(header))
        for lam in lambdas:
            for iters in iteration_counts:
                row = [f"{lam:g}", str(iters)]
                for attr in ("mean_hurst", "mse"):
                    for size in sizes:
                        cell = by_key.get((lam, size, iters))
                        if cell is None or method not in cell.methods:
                            row.append("")
                        else:
                            row.append(_fmt4(getattr(cell.methods[method], attr)))
                lines.append(",".join(row))
        lines.append("")
    return "\n".join(lines)


def plot_data_files(report: SimulationReport) -> dict[str, str]:
    """Plot-ready CSV bodies keyed by file name.

    One file per (method, iteration count): mean Hurst estimate against
    lambda, one column per series length. These are the data series behind
    estimate-vs-lambda comparison charts.
    """
    lambdas, sizes, iteration_counts, by_key = _grid_axes(report)
    files = {}
    for method in METHODS:
        for iters in iteration_counts:
            lines = [",".join(["lambda"] + [f"hurst_N{size}" for size in sizes])]
            for lam in lambdas:
                row = [f"{lam:g}"]
                for size in sizes:
                    cell = by_key.get((lam, size, iters))
                    if cell is None or method not in cell.methods:
                        row.append("")
                    else:
                        row.append(_fmt4(cell.methods[method].mean_hurst))
                lines.append(",".join(row))
            name = f"hurst_vs_lambda_{method.lower()}_iter{iters}.csv"
            files[name] = "\n".join(lines) + "\n"
    return files


# --- single-series estimates ------------------------------------------------


def _fmt6g(x: float) -> str:
    return f"{x:.6g}"


# How json spells the floats that float.__repr__ spells otherwise.
_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(x: float) -> str:
    text = float.__repr__(x)
    return _JSON_NON_FINITE.get(text, text)


def _dumps_at(value, depth: int) -> str:
    """``json.dumps(value, indent=2)`` as it reads nested *depth* levels deep.

    json escapes every newline inside a string, so each newline in its
    output starts a line of the layout and takes the extra indent.
    """
    return json.dumps(value, indent=2).replace("\n", "\n" + "  " * depth)


def _points_json(r: EstimatorResult) -> str:
    """A result's "points" array, laid out as ``json.dumps(indent=2)`` nests it
    in :func:`estimates_to_json`, one f-string per point."""
    if not r.scales.size:
        return "[]"
    items = ",\n".join(
        f'        {{\n          "scale": {w},\n'
        f'          "statistic": {_json_float(s)}\n        }}'
        for w, s in zip(r.scales.tolist(), r.statistics.tolist())
    )
    return f"[\n{items}\n      ]"


def _result_json(r: EstimatorResult) -> str:
    fit = {
        "slope": r.fit.slope,
        "intercept": r.fit.intercept,
        "n_points": r.scales.size,
        "residual_rms": r.fit.residual_rms,
    }
    return (
        "    {\n"
        f'      "method": {json.dumps(r.method)},\n'
        f'      "hurst": {json.dumps(r.hurst)},\n'
        f'      "fit": {_dumps_at(fit, 3)},\n'
        f'      "points": {_points_json(r)},\n'
        f'      "warnings": {_dumps_at(list(r.warnings), 3)}\n'
        "    }"
    )


def estimates_to_json(results: list[EstimatorResult], input_path: str,
                      n_observations: int, options: dict) -> str:
    """The estimates as ``json.dumps(doc, indent=2) + "\\n"`` renders them.

    With an indent, json runs its pure-Python encoder, which costs several
    microseconds per point; the ``points`` arrays, thousands long on long
    series, are written directly instead, with the same bytes.
    """
    head = json.dumps(
        {"input": input_path, "n_observations": n_observations, "options": options},
        indent=2,
    )
    body = ",\n".join(map(_result_json, results))
    results_json = f"[\n{body}\n  ]" if results else "[]"
    return f'{head[:-2]},\n  "results": {results_json}\n}}\n'


def estimates_to_csv(results: list[EstimatorResult]) -> str:
    """Summary table plus the regression points, at 6 significant digits."""
    lines = ["method,hurst,slope,intercept,residual_rms,n_points,warnings"]
    for r in results:
        numbers = (r.hurst, r.fit.slope, r.fit.intercept, r.fit.residual_rms)
        lines.append(",".join([r.method, *map(_fmt6g, numbers), str(r.scales.size),
                               ";".join(r.warnings)]))
    lines += ["# points", "method,scale,statistic"]
    for r in results:
        lines.extend(f"{r.method},{w},{_fmt6g(s)}"
                     for w, s in zip(r.scales.tolist(), r.statistics.tolist()))
    return "\n".join(lines) + "\n"
