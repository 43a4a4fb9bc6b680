"""Series-file parsing and report serialization (JSON, CSV, plot data).

JSON carries full double precision and round-trips to an equal in-memory
report; CSV lays the grid out for humans (lambda rows, one column per
series length, separate Hurst and MSE column groups) at 4 decimal places.
Plot-data files hold the mean estimate against lambda, one column per N,
one file per (method, iteration count). All numeric output is rendered
with locale-independent formatting.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

from .base import EstimatorResult, WindowPolicy
from .errors import SeriesParseError
from .methods import METHODS

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
    byte-order mark is skipped. The file is opened once, so a pipe or FIFO
    reads as a regular file does.

    When the file can seek, the lines past a leading run of blank and
    comment lines (a header) go straight to ``float()`` as the open file
    yields them, so no copy of the whole text is made and ``float()``'s
    call is the one pass per value. It trims a subset of the whitespace
    ``str.strip()`` trims (that of ``str.isspace()`` but
    ``\\x1c``-``\\x1f``), so a line it accepts has the value of its
    stripped form, and every blank, whitespace or comment line makes it
    raise. A file on which it raises, that is not UTF-8 or that holds a
    non-finite value is read again whole from its start
    (:func:`_read_text`), which gives the same values, or the error. A file
    that cannot seek, such as a pipe, takes that whole-text pass at once.
    """
    with open(path, "r", encoding="utf-8-sig") as fh:
        if fh.seekable():
            try:
                values = np.fromiter(map(float, itertools.dropwhile(_skipped, fh)),
                                     dtype=float)
                if np.isfinite(values).all():
                    return values
            except ValueError:  # UnicodeDecodeError is one
                pass
            fh.seek(0)
        return _read_text(fh)


def _read_text(fh) -> np.ndarray:
    """:func:`read_series_file` from the whole text of the open file *fh*:
    its stripped data lines, or the SeriesParseError of its first bad line
    or byte."""
    try:
        lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        head = exc.object[: exc.start]
        lineno = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        bad = exc.object[exc.start]
        raise SeriesParseError(lineno, f"not UTF-8 text ({exc.reason} 0x{bad:02x})") from None
    data = [line for line in map(str.strip, lines) if line and line[0] != "#"]
    try:
        values = np.fromiter(map(float, data), dtype=float, count=len(data))
    except ValueError:
        values = None
    if values is not None and np.isfinite(values).all():
        return values
    raise _first_bad_line(lines)


def _skipped(line: str) -> bool:
    """Whether *line* is blank or a '#' comment."""
    line = line.strip()
    return not line or line[0] == "#"


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


# A report as json.dumps(doc, indent=2) lays it out: the whole document,
# one cell of its "cells" array and one method of a cell's "methods".
_REPORT_JSON = """{
  "metadata": {
    "master_seed": %s,
    "generator": %s,
    "window_policy": {
      "min_window": %s,
      "max_window_rule": %s
    },
    "sd_mode": %s,
    "vtp_divisors_only": %s,
    "artifact_version": %s
  },
  "cells": %s
}
"""
_CELL_JSON = """    {
      "lambda": %s,
      "length": %s,
      "iterations": %s,
      "methods": %s
    }"""
_METHOD_JSON = """        %s: {
          "mean_hurst": %s,
          "mse": %s,
          "failure_count": %s
        }"""


def _cell_json(report: CellReport, spelled) -> str:
    """One cell, as ``json.dumps(indent=2)`` nests it in the report;
    *spelled* yields json's spelling of the cell's numbers in order."""
    lam, length, iterations = itertools.islice(spelled, 3)
    items = ",\n".join([_METHOD_JSON % (json.dumps(method), *itertools.islice(spelled, 3))
                         for method in report.methods])
    return _CELL_JSON % (lam, length, iterations,
                         f"{{\n{items}\n      }}" if report.methods else "{}")


def report_to_json(report: SimulationReport) -> str:
    """Serialize a simulation report; deterministic for equal reports.

    Wall-clock duration is deliberately left out so identical configurations
    produce byte-identical files. The bytes are ``json.dumps(doc, indent=2)
    + "\\n"`` of the report's document. With an indent, json runs its
    pure-Python encoder, so the layout is filled in from templates instead,
    and json's C encoder spells every number, NaN included, in one call.
    """
    meta = report.metadata
    policy = meta.window_policy
    numbers = [meta.master_seed, policy.min_window, meta.vtp_divisors_only]
    for c in report.cells:
        numbers += c.cell.lam, c.cell.length, c.cell.iterations
        for stats in c.methods.values():
            numbers += stats.mean_hurst, stats.mse, stats.failure_count
    spelled = iter(json.dumps(numbers)[1:-1].split(", "))
    seed, min_window, divisors_only = itertools.islice(spelled, 3)
    body = ",\n".join([_cell_json(c, spelled) for c in report.cells])
    return _REPORT_JSON % (
        seed, json.dumps(meta.generator), min_window, json.dumps(policy.max_window_rule),
        json.dumps(meta.sd_mode), divisors_only, json.dumps(meta.artifact_version),
        f"[\n{body}\n  ]" if report.cells else "[]",
    )


def report_from_json(text: str) -> SimulationReport:
    """Inverse of :func:`report_to_json` (duration comes back as 0)."""
    # the report types load with the grid, which `hurstlab estimate` never runs
    from .montecarlo import (CellReport, MethodStats, ReportMetadata, SimulationCell,
                             SimulationReport)

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


def _size_values(by_key: dict, sizes: list, method: str, lam: float, iters: int,
                 attr: str) -> list[str]:
    """*method*'s *attr* in the (lam, size, iters) cell of each size, at 4
    places; blank where the grid has no such cell or it lacks the method."""
    cells = [by_key.get((lam, size, iters)) for size in sizes]
    return ["" if cell is None or method not in cell.methods
            else _fmt4(getattr(cell.methods[method], attr)) for cell in cells]


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
                    row += _size_values(by_key, sizes, method, lam, iters, attr)
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
                row = [f"{lam:g}"] + _size_values(by_key, sizes, method, lam, iters, "mean_hurst")
                lines.append(",".join(row))
            files[plot_data_name(method, iters)] = "\n".join(lines) + "\n"
    return files


def plot_data_name(method: str, iterations: int) -> str:
    """File name of the plot data for one method and iteration count."""
    return f"hurst_vs_lambda_{method.lower()}_iter{iterations}.csv"


# --- single-series estimates ------------------------------------------------


def _fmt6g(x: float) -> str:
    return f"{x:.6g}"


def _dumps_at(value, depth: int) -> str:
    """``json.dumps(value, indent=2)`` as it reads nested *depth* levels deep.

    json escapes every newline inside a string, so each newline in its
    output starts a line of the layout and takes the extra indent.
    """
    return json.dumps(value, indent=2).replace("\n", "\n" + "  " * depth)


# The text of a "points" array, as json.dumps(indent=2) nests it in
# estimates_to_json, around each point's scale and statistic: before the
# first scale, between a scale and its statistic, between a statistic and the
# next scale, and after the last statistic.
_POINTS_OPEN = '[\n        {\n          "scale": '
_POINT_MIDDLE = ',\n          "statistic": '
_POINT_NEXT = '\n        },\n        {\n          "scale": '
_POINTS_CLOSE = "\n        }\n      ]"


def _points_json(r: EstimatorResult) -> str:
    """A result's "points" array, laid out as ``json.dumps(indent=2)`` nests it
    in :func:`estimates_to_json`. json's C encoder spells the statistics,
    NaN and infinities included, and one ``"".join`` interleaves them with
    the scales and the layout's text."""
    n = r.scales.size
    if not n:
        return "[]"
    parts = [_POINT_NEXT, None, _POINT_MIDDLE, None] * n
    parts[0] = _POINTS_OPEN
    parts[1::4] = map(str, r.scales.tolist())
    parts[3::4] = json.dumps(r.statistics.tolist())[1:-1].split(", ")
    parts.append(_POINTS_CLOSE)
    return "".join(parts)


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
