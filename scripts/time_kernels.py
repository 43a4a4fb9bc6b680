"""Microseconds per series of the draw and of the R/Sal, DFA and VTP kernels,
milliseconds per cold VTP estimate, per estimate document and per one-cell
``simulate`` call.

Usage, from anywhere:

    python3 scripts/time_kernels.py --root CHECKOUT --seed 1 --calls 200

Imports hurstlab from ``CHECKOUT/src`` only, so two checkouts can be timed
with one copy of this script. For N = 128 and N = 1024 it draws one chunk
of exponential series, as many rows as ``montecarlo.chunk_rows`` gives a
simulation cell of that length, and times ``rsal_batch``, ``dfa_batch`` and
``vtp_batch`` on it after one warm-up call. The ``draw`` row times
``run_cell`` on a cell of one such chunk, seeded with ``--seed``, with the
three kernels replaced by a stub at ``hurstlab.montecarlo.rsal_batch``,
``dfa_batch`` and ``vtp_batch``: what is left is deriving and sampling the
chunk's streams, plus the aggregation of one cell. If those rows run without
calling the stub, the script stops with an error rather than time the real
kernels under the ``draw`` name. It prints the rows per
chunk of each length on stderr, and on stdout one JSON line with those rows
and the median call time divided by the row count. The ``draw_new_seed``
row is the ``draw`` row with a new seed on every call (``--seed`` plus the
call's number), so each call also hashes its (seed, cell id) prefix afresh,
as each operation of the benchmark's Monte Carlo workloads does.

The ``N32768`` rows use one exponential series of 32768 values, the
length of a long single-series estimate. ``rsal_batch`` and ``dfa_batch``
are timed on it as a one-row batch, in microseconds per call.
``vtp_cold.N32768`` times ``estimate_vtp`` on it with VTP's gather-plan
cache emptied before each call, in milliseconds per call, and gives the
``tracemalloc`` peak of one more such call, made untimed, in MiB.
``estimates_to_json.N32768`` times the JSON document of its R/Sal, DFA and
VTP estimates (8192 VTP points among them), in milliseconds per call.

The ``simulate_rewrite`` and ``simulate_fresh`` rows time one
``hurstlab.cli.main(["simulate", ...])`` call of one cell (rate 1.5,
N = 128, one iteration), in milliseconds per call: ``simulate_rewrite``
into a directory that already holds that call's report and plot files,
``simulate_fresh`` into an empty directory, a different one for each call,
all made before the timing. The directories are made under the system
temporary directory (``TMPDIR``), whose filesystem sets what rewriting a
file costs.

The perfbench tracer does not wrap these kernels, the chunk draw or the
output writes, so their per-layer rows are timed here.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import os
import sys
import tempfile
import time
import tracemalloc
from contextlib import redirect_stderr
from pathlib import Path
from types import SimpleNamespace

LENGTHS = (128, 1024)
LONG_LENGTH = 32768


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--calls", type=int, default=200)
    args = parser.parse_args()
    # One BLAS thread and one CPU, as perfbench/run.py times its workloads.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(args.root.resolve() / "src"))
    import numpy as np

    from hurstlab import montecarlo, vtp
    from hurstlab.cli import main as cli_main
    from hurstlab.dfa import dfa_batch, estimate_dfa
    from hurstlab.report import estimates_to_json
    from hurstlab.rs import estimate_rsal, rsal_batch
    from hurstlab.vtp import estimate_vtp, vtp_batch

    def median_s(call) -> float:
        call()
        times = []
        for _ in range(args.calls):
            start = time.perf_counter()
            call()
            times.append(time.perf_counter() - start)
        return float(np.median(times))

    def us_per_series(call, n_rows: int) -> float:
        return median_s(call) / n_rows * 1e6

    stub_calls = 0

    def stub_fit(x, *_, **__):
        nonlocal stub_calls
        stub_calls += 1
        return SimpleNamespace(hurst=np.full(x.shape[0], 0.5))

    rng = np.random.default_rng(args.seed)
    rows, metrics = {}, {}
    for n_obs in LENGTHS:
        rows[n_obs] = montecarlo.chunk_rows(n_obs)
        print(f"N = {n_obs}: {rows[n_obs]} rows per chunk", file=sys.stderr)
        cell = montecarlo.SimulationCell(lam=1.5, length=n_obs, iterations=rows[n_obs])
        kernels = montecarlo.rsal_batch, montecarlo.dfa_batch, montecarlo.vtp_batch
        montecarlo.rsal_batch = montecarlo.dfa_batch = montecarlo.vtp_batch = stub_fit
        stub_calls = 0
        try:
            metrics[f"draw.N{n_obs}.us_per_series"] = us_per_series(
                lambda: montecarlo.run_cell(cell, args.seed), rows[n_obs])
            seeds = itertools.count(args.seed)
            metrics[f"draw_new_seed.N{n_obs}.us_per_series"] = us_per_series(
                lambda: montecarlo.run_cell(cell, next(seeds)), rows[n_obs])
        finally:
            montecarlo.rsal_batch, montecarlo.dfa_batch, montecarlo.vtp_batch = kernels
        if not stub_calls:
            sys.exit("the draw rows never called the stub at hurstlab.montecarlo.rsal_batch, "
                     "dfa_batch and vtp_batch: run_cell no longer reaches its kernels "
                     "through that seam, so the rows would time the real kernels")
        x = rng.exponential(size=(rows[n_obs], n_obs))
        for kernel in (rsal_batch, dfa_batch, vtp_batch):
            metrics[f"{kernel.__name__}.N{n_obs}.us_per_series"] = us_per_series(
                lambda: kernel(x), rows[n_obs])

    series = rng.exponential(size=LONG_LENGTH)
    for kernel in (rsal_batch, dfa_batch):
        metrics[f"{kernel.__name__}.N{LONG_LENGTH}.us_per_series"] = us_per_series(
            lambda: kernel(series[None, :]), 1)

    def cold_vtp() -> None:
        vtp._gather_plan.cache_clear()
        estimate_vtp(series)

    cold = f"vtp_cold.N{LONG_LENGTH}"
    metrics[f"{cold}.ms_per_call"] = median_s(cold_vtp) * 1e3
    tracemalloc.start()
    cold_vtp()
    metrics[f"{cold}.peak_mib"] = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()

    results = [estimate_rsal(series), estimate_dfa(series), estimate_vtp(series)]
    options = {"method": "all", "min_window": 2, "max_window_rule": "half-N",
               "sd_mode": "sample", "vtp_divisors_only": False}
    metrics[f"estimates_to_json.N{LONG_LENGTH}.ms_per_call"] = median_s(
        lambda: estimates_to_json(results, "series.txt", LONG_LENGTH, options)) * 1e3

    def simulate(directory: Path) -> None:
        argv = ["simulate", "--lambdas", "1.5", "--sizes", "128", "--iteration-counts",
                "1", "--seed", str(args.seed), "--out", str(directory / "report.json")]
        with redirect_stderr(io.StringIO()) as err:
            code = cli_main(argv)
        if code != 0:
            sys.exit(f"simulate exited {code}: {err.getvalue()}")

    with tempfile.TemporaryDirectory(prefix="time_kernels-") as work:
        fresh = [Path(work, f"fresh{i}") for i in range(args.calls + 1)]
        for directory in fresh:
            directory.mkdir()
        unused = iter(fresh)
        metrics["simulate_rewrite.ms_per_call"] = median_s(
            lambda: simulate(Path(work))) * 1e3
        metrics["simulate_fresh.ms_per_call"] = median_s(
            lambda: simulate(next(unused))) * 1e3
    print(json.dumps({"numpy": np.__version__, "seed": args.seed, "rows": rows,
                      "calls": args.calls, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
