"""Simulation grid driver: estimator bias and MSE on exponential data.

For every (lambda, N, iterations) cell the driver draws independent
Exponential(lambda) series, runs the three estimators, and aggregates the
mean estimate and the mean square error against the true value H = 0.5
(memoryless data has no long-range dependence). Iterations that fail inside
an estimator are counted per method and excluded from that method's
aggregates, so one pathological draw cannot void a 1000-iteration cell.

The harness defaults to the sample-SD rescaled range (see
:mod:`hurstlab.rs`): that is the convention under which the adjusted
statistic recenters independent data on H = 0.5.

A cell runs in chunks of rows: the chunk's series are drawn into a
(rows, N) matrix and each estimator fits every row at once. Determinism:
each iteration owns a pre-derived RNG stream, every reduction that sets a
row's estimate runs along that row alone, and aggregation runs over the
per-iteration estimates in fixed order. Reports are therefore
bit-identical however a cell is split into chunks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .base import DEFAULT_POLICY, WindowPolicy
from .dfa import dfa_batch
from .errors import CellFailed, EmptyEstimates, HurstLabError
from .rs import rsal_batch
from .sampling import GENERATOR_NAME, ExponentialSpec, derive_stream, exponential_sample
from .vtp import block_count, vtp_batch

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

METHODS = ("RSAL", "DFA", "VTP")

DEFAULT_LAMBDAS = (0.1, 0.5, 1.5, 3.0, 5.0, 7.0)
DEFAULT_SIZES = (128, 256, 512, 1024)
DEFAULT_ITERATION_COUNTS = (100, 500, 1000)

# Working-set budget of one chunk, in float64 values (256 KiB): a chunk has
# as many rows as fit in it with VTP's block means, the widest per-row
# array, so memory stays flat however many iterations a cell has.
CHUNK_ELEMENTS = 32 * 1024


@dataclass(frozen=True)
class SimulationCell:
    """One (lambda, series length, iteration count) grid cell."""

    lam: float
    length: int
    iterations: int

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        ExponentialSpec(self.lam, self.length)


@dataclass(frozen=True)
class MethodStats:
    """Aggregates for one estimator within one cell."""

    mean_hurst: float
    mse: float
    failure_count: int


@dataclass(frozen=True, eq=True)
class CellReport:
    cell: SimulationCell
    methods: dict[str, MethodStats]


@dataclass(frozen=True)
class ReportMetadata:
    """Everything needed to reproduce the numbers, plus wall-clock timing.

    ``duration_seconds`` is informational and excluded from equality (and
    from the JSON serialization), so reports compare by content.
    """

    master_seed: int
    generator: str
    window_policy: WindowPolicy
    sd_mode: str
    vtp_divisors_only: bool
    artifact_version: str
    duration_seconds: float = field(default=0.0, compare=False)


@dataclass(frozen=True)
class SimulationReport:
    metadata: ReportMetadata
    cells: tuple[CellReport, ...]


def mse(estimates, true_h: float = TRUE_HURST) -> float:
    """Mean square error of a list of estimates against the true value."""
    arr = np.asarray(estimates, dtype=float)
    if arr.size == 0:
        raise EmptyEstimates("MSE over an empty list of estimates")
    return float(((arr - true_h) ** 2).mean())


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


def chunk_rows(length: int, vtp_divisors_only: bool = False) -> int:
    """Rows per chunk for series of this length: see CHUNK_ELEMENTS.

    A length below 4 has no VTP blocks; it still gets chunks, and its cell
    fails like that of any other length the estimators cannot use.
    """
    return max(1, CHUNK_ELEMENTS // max(1, block_count(length, vtp_divisors_only)))


def run_cell(cell: SimulationCell, master_seed: int,
             policy: WindowPolicy = DEFAULT_POLICY, *, cell_id: int = 0,
             sd_mode: str = "sample", vtp_divisors_only: bool = False) -> CellReport:
    """Run one cell: draw, estimate, aggregate.

    A series on which an estimator fails counts as a failure of that
    method and is left out of its aggregates. Raises CellFailed if some
    method failed on every iteration.
    """
    spec = ExponentialSpec(cell.lam, cell.length)
    batches = (
        lambda x: rsal_batch(x, policy, sd_mode),
        lambda x: dfa_batch(x, policy),
        lambda x: vtp_batch(x, divisors_only=vtp_divisors_only),
    )
    estimates = np.full((cell.iterations, len(METHODS)), np.nan)
    step = chunk_rows(cell.length, vtp_divisors_only)
    for start in range(0, cell.iterations, step):
        stop = min(start + step, cell.iterations)
        x = np.stack([
            exponential_sample(derive_stream(master_seed, cell_id, k), spec)
            for k in range(start, stop)
        ])
        for j, batch in enumerate(batches):
            try:
                estimates[start:stop, j] = batch(x).hurst
            except HurstLabError:
                pass  # the configuration itself is unusable: every row fails

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
            mean_hurst=float(valid.mean()),
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
