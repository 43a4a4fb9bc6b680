"""Simulation grid driver: estimator bias and MSE on exponential data.

For every (lambda, N, iterations) cell the driver draws independent
Exponential(lambda) series, runs the three estimators, and aggregates the
mean estimate and the mean square error against the true value H = 0.5
(memoryless data has no long-range dependence). Iterations that fail inside
an estimator are counted per method and excluded from that method's
aggregates, so one pathological draw cannot void a 1000-iteration cell.
Failure is a property of the data: a failed iteration is a NaN row of the
method's batch. A configuration the method cannot estimate is not counted:
its error (``InsufficientWindows``, say) propagates from the first chunk.

Each chunk runs the method table, :data:`hurstlab.methods.METHODS`, which
the CLI's ``estimate`` runs too; ``estimate`` imports neither this module
nor :mod:`hurstlab.sampling`.

The harness defaults to the sample-SD rescaled range (see
:mod:`hurstlab.rs`): that is the convention under which the adjusted
statistic recenters independent data on H = 0.5.

A cell runs in chunks of rows: the chunk's series are drawn into a
(rows, N) matrix and each estimator fits every row at once. Determinism:
each iteration owns the RNG stream its (cell, iteration) key derives
(:func:`~hurstlab.sampling.exponential_rows`), every reduction that sets a
row's estimate runs along that row alone, and aggregation runs over the
per-iteration estimates in fixed order. Reports are therefore
bit-identical however a cell is split into chunks.

The cell, its per-method aggregates and the report are records
(:mod:`hurstlab.record`): immutable tuples that compare by type and
fields, so two reports of one configuration are equal whatever their
wall-clock durations. A cell's length and iteration count are integers.
"""

from __future__ import annotations

import time

import numpy as np

from . import __version__
from .base import DEFAULT_POLICY, WindowPolicy
from .errors import CellFailed, EmptyEstimates
from .methods import METHODS
from .record import Record, integer
from .sampling import GENERATOR_NAME, ExponentialSpec, exponential_rows

__all__ = [
    "TRUE_HURST",
    "METHODS",
    "DEFAULT_LAMBDAS",
    "DEFAULT_SIZES",
    "DEFAULT_ITERATION_COUNTS",
    "SimulationCell",
    "MethodStats",
    "CellReport",
    "ReportMetadata",
    "SimulationReport",
    "mse",
    "make_grid",
    "run_cell",
    "run_grid",
]

# i.i.d. data has H = 0.5; every MSE in the comparison is measured against it.
TRUE_HURST = 0.5

DEFAULT_LAMBDAS = (0.1, 0.5, 1.5, 3.0, 5.0, 7.0)
DEFAULT_SIZES = (128, 256, 512, 1024)
DEFAULT_ITERATION_COUNTS = (100, 500, 1000)

# Series values per chunk: a chunk has CHUNK_ELEMENTS // N rows, at least
# one, so memory stays flat however many iterations a cell has. The widest
# per-row array is VTP's block means, about N * (ln(N/4) + 0.58) values, so
# a chunk's working set is about CHUNK_ELEMENTS * (ln(N/4) + 0.58) float64
# values, 2.3 MB at N = 16384 (a 2 MiB L2 per core on the host of
# BENCH_20.json); a longer series is a chunk of its own. Each chunk pays a
# fixed cost of a few rows' time, so fewer, larger chunks are faster until
# they outgrow the cache: in BENCH_20.json's sweep, 32 Ki ran the default
# grid 5-9% faster than 16 Ki (which runs a 25-iteration N = 1024 cell as
# two chunks), and 64 Ki was slower than 32 Ki and raised peak RSS by 19%.
CHUNK_ELEMENTS = 32 * 1024


class SimulationCell(Record):
    """One (lambda, series length, iteration count) grid cell. The rate and
    the length must make an :class:`~hurstlab.sampling.ExponentialSpec`,
    else SeriesError; the count is an integer of at least 1, else
    ValueError. An integer field takes no float, not even 4.0."""

    __slots__ = ()

    def __new__(cls, lam: float, length: int, iterations: int):
        iterations = integer(iterations, ValueError, "iterations")
        if iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {iterations}")
        length = ExponentialSpec(lam, length).length
        return tuple.__new__(cls, (lam, length, iterations))


class MethodStats(Record):
    """Aggregates for one estimator within one cell."""

    __slots__ = ()

    def __new__(cls, mean_hurst: float, mse: float, failure_count: int):
        return tuple.__new__(cls, (mean_hurst, mse, failure_count))


class CellReport(Record):
    """One cell and its per-method aggregates, in report order."""

    __slots__ = ()

    def __new__(cls, cell: SimulationCell, methods: dict[str, MethodStats]):
        return tuple.__new__(cls, (cell, methods))


class ReportMetadata(Record):
    """Everything needed to reproduce the numbers, plus wall-clock timing.

    ``duration_seconds``, the last field, is informational and excluded
    from equality and hashing (and from the JSON serialization), so
    reports compare by content.
    """

    __slots__ = ()

    def __new__(cls, master_seed: int, generator: str, window_policy: WindowPolicy,
                sd_mode: str, vtp_divisors_only: bool, artifact_version: str,
                duration_seconds: float = 0.0):
        return tuple.__new__(cls, (master_seed, generator, window_policy, sd_mode,
                                   vtp_divisors_only, artifact_version, duration_seconds))

    def __eq__(self, other):
        if type(other) is type(self):
            return self[:-1] == other[:-1]
        return super().__eq__(other)

    def __hash__(self):
        return hash(self[:-1])


class SimulationReport(Record):
    """A grid run's metadata and its cell reports, in configuration order."""

    __slots__ = ()

    def __new__(cls, metadata: ReportMetadata, cells: tuple[CellReport, ...]):
        return tuple.__new__(cls, (metadata, cells))


def mse(estimates, true_h: float = TRUE_HURST) -> float:
    """Mean square error of a list of estimates against the true value: the
    bits of ``((arr - true_h) ** 2).mean()``, squared in place and summed by
    the reduction ``mean`` runs, without its per-call Python overhead."""
    arr = np.asarray(estimates, dtype=float)
    if arr.size == 0:
        raise EmptyEstimates("MSE over an empty list of estimates")
    dev = arr - true_h
    dev *= dev
    return float(np.add.reduce(dev, axis=None) / dev.size)


def make_grid(lambdas=DEFAULT_LAMBDAS, sizes=DEFAULT_SIZES,
              iteration_counts=DEFAULT_ITERATION_COUNTS) -> list[SimulationCell]:
    """The cross-product cell list in configuration order. An axis that
    repeats a value raises ValueError: reports key cells by coordinates."""
    for name, axis in (("lambdas", lambdas), ("sizes", sizes),
                       ("iteration_counts", iteration_counts)):
        if len(set(axis)) < len(axis):
            raise ValueError(f"{name} repeats a value: {list(axis)}")
    return [
        SimulationCell(lam=lam, length=size, iterations=iters)
        for lam in lambdas
        for size in sizes
        for iters in iteration_counts
    ]


def chunk_rows(length: int) -> int:
    """Rows per chunk for series of this length: see CHUNK_ELEMENTS."""
    return max(1, CHUNK_ELEMENTS // length)


def run_cell(cell: SimulationCell, master_seed: int,
             policy: WindowPolicy = DEFAULT_POLICY, *, cell_id: int = 0,
             sd_mode: str = "sample", vtp_divisors_only: bool = False) -> CellReport:
    """Run one cell: draw, estimate, aggregate.

    A series on which an estimator fails (a NaN row of its batch, by the
    rule of :data:`hurstlab.base.FAILURES`) counts as a failure of that
    method and is left out of its aggregates. Raises CellFailed if some
    method failed on every iteration. A configuration that a method cannot
    estimate at all (no usable windows or block sizes, say) raises that
    method's error from the first chunk, before the rest is drawn.
    """
    spec = ExponentialSpec(cell.lam, cell.length)
    estimates = np.full((cell.iterations, len(METHODS)), np.nan)
    step = chunk_rows(cell.length)
    for start in range(0, cell.iterations, step):
        stop = min(start + step, cell.iterations)
        x = exponential_rows(master_seed, cell_id, start, stop, spec)
        for j, batch in enumerate(METHODS.values()):
            estimates[start:stop, j] = batch(x, policy, sd_mode, vtp_divisors_only).hurst

    methods = {}
    for j, method in enumerate(METHODS):
        column = estimates[:, j]
        valid = column[np.isfinite(column)]
        failures = cell.iterations - valid.size
        if valid.size == 0:
            raise CellFailed(
                f"{method} failed on all {cell.iterations} iterations of "
                f"(lambda={cell.lam}, N={cell.length})"
            )
        methods[method] = MethodStats(
            mean_hurst=float(np.add.reduce(valid, axis=None) / valid.size),
            mse=mse(valid),
            failure_count=int(failures),
        )
    return CellReport(cell=cell, methods=methods)


def run_grid(cells, master_seed: int, policy: WindowPolicy = DEFAULT_POLICY, *,
             sd_mode: str = "sample", vtp_divisors_only: bool = False) -> SimulationReport:
    """Evaluate every cell and assemble the report in configuration order."""
    cells = list(cells)
    if not cells:
        raise EmptyEstimates("simulation grid has no cells")
    started = time.perf_counter()
    reports = tuple(
        run_cell(
            cell, master_seed, policy,
            cell_id=i, sd_mode=sd_mode, vtp_divisors_only=vtp_divisors_only,
        )
        for i, cell in enumerate(cells)
    )
    metadata = ReportMetadata(
        master_seed=master_seed,
        generator=GENERATOR_NAME,
        window_policy=policy,
        sd_mode=sd_mode,
        vtp_divisors_only=vtp_divisors_only,
        artifact_version=__version__,
        duration_seconds=time.perf_counter() - started,
    )
    return SimulationReport(metadata=metadata, cells=reports)
