"""Microseconds per series of the draw and of the R/Sal, DFA and VTP kernels,
milliseconds per cold VTP estimate, per series-file read, per cold
``estimate`` call, per estimate document and per one-cell ``simulate`` call,
microseconds per short R/S and DFA window on the window-major and the axis
path, and the minor page faults of each timed call; or, with
``--cold-start``, seconds per fresh-interpreter ``estimate`` and
``simulate``, the modules each imports and microseconds per record
construction.

Usage, from anywhere:

    python3 scripts/time_kernels.py --root CHECKOUT --seed 1 --calls 200 \
        [--chunk-elements K] [--path-sweep | --cold-start]

Imports hurstlab from ``CHECKOUT/src`` only, so two checkouts can be timed
with one copy of this script (checkouts whose kernels' seam is
``hurstlab.methods``, or any checkout with ``--cold-start``).
``--chunk-elements K`` sets ``montecarlo.CHUNK_ELEMENTS`` to K in this
process before anything runs, so that each arm of a chunk-size sweep is one
command; the program itself has no such setting. For N = 128 and N = 1024 it draws one chunk
of exponential series, as many rows as ``montecarlo.chunk_rows`` gives a
simulation cell of that length, and times ``rsal_batch``, ``dfa_batch`` and
``vtp_batch`` on it after one warm-up call. The ``draw`` row times
``run_cell`` on a cell of one such chunk, seeded with ``--seed``, with the
three kernels replaced by a stub at ``hurstlab.methods.rsal_batch``,
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
``vtp_cold.N32768`` times ``estimate_vtp`` on it with every hurstlab
functools cache emptied before each call (VTP's plans among them), in
milliseconds per call, and gives the
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

The ``read_series`` and ``estimate_cold`` rows use one file each of 2048,
8304 and 32752 exponential values (the shortest, median and longest
lengths of the benchmark's estimate-files workload), written as
``perfbench/workloads.py`` writes its files: a ``#`` label line, then one
``repr`` per line. ``read_series.N*`` times ``read_series_file`` on it, and
``estimate_cold.N*`` one ``hurstlab.cli.main(["estimate", FILE])`` call
through perfbench's ``call_cli`` (stdout and stderr captured), with every
hurstlab functools cache emptied before each call, as estimate-files runs
it, both in milliseconds per call.

The ``path_sweep`` rows time, at each (rows, N) of ``SWEEP_SHAPES`` (the
Monte Carlo workloads' one-cell shapes, the default grid's 256-row chunks at
N = 128, then one row at each of the estimate-files lengths),
``rs_statistics`` and ``dfa_fluctuations`` at each one of the default
policy's R/S and DFA windows of up to ``SWEEP_WINDOW_MAX`` points, on the
window-major path (``.window_major``) and on the axis path (``.axis``), in
microseconds per call. Each path is forced by replacing
``regression.window_major`` in the ``rs`` or ``dfa`` module with a predicate
that always or never accepts, for that row only. The script stops if the
two paths' bits differ. ``.chosen`` is 1 where the real predicate sends
the window window-major and 0 where it keeps the axis path.
``--path-sweep`` prints only these rows.

``vtp_warm.N2048`` times ``scale_variances`` on one row of 2048 values at
the default block sizes, whose plan is cached after the warm-up call, in
microseconds per call.

The ``simulate_cell`` rows time one-cell ``simulate`` calls shaped like the
benchmark's timed operations (rate 1.5; the lengths and per-call iterations
of perfbench's ``MC_GRIDS``, today N = 128 and 256 with 50 iterations and
N = 512 and 1024 with 25), rewriting one directory's outputs, in
milliseconds per call. The ``simulate_cell_cold`` rows time the same calls
with every hurstlab functools cache emptied before each call by
``perfbench/tracing.py``'s ``clear_caches``, as the benchmark's
estimate-files workload does, so each call builds its per-length plans
afresh.

Every timed row also gives ``minflt_per_call``: the growth of
``resource.getrusage(RUSAGE_SELF).ru_minflt`` over its timed calls, per
call. A call that frees memory back to the system and takes it again
faults those pages afresh. Every row that runs ``run_cell`` (``draw``,
``draw_new_seed``, ``simulate_*``) gives ``chunks_per_call``, the number of
``exponential_rows`` calls, one per chunk, that one call makes.

The ``mc_sequence`` rows rebuild the process state of the benchmark's
Monte Carlo workloads, each in a fresh child process of this script
(``--mc-sequence WORKLOAD`` runs one of them alone). As
``perfbench/run.py`` does, the child makes the workload's untimed whole-grid
call, then runs 12 rounds of its one-cell ``hurstlab.cli.main`` calls, with
``perfbench/calibration.py``'s ``probe`` run after each call for
``PROBE_SHARE`` of the call's time. The workloads' lengths and per-call
iterations (``MC_GRIDS``), rates and whole-grid iterations (``FULL``), probe
share and CLI call are taken from perfbench's own modules, loaded read-only
from the ``perfbench`` directory beside this script without writing
bytecode, so the rows follow the benchmark if it changes. For each length
the rows give the one-cell call's median milliseconds (``ms_per_call``) and
its minor faults per call, and for each of ``rsal_batch``, ``dfa_batch`` and
``vtp_batch``, wrapped at ``hurstlab.methods``, and ``exponential_rows``,
wrapped at ``hurstlab.montecarlo``, for the rounds only, its median
microseconds (``us_per_call``) and minor faults per call. ``other_us_per_call`` is the median, over the one-cell
calls, of each call's time less the time it spent in those four seams: the
fixed cost around the estimators (argument parsing, aggregation, report
text and writes). ``probe_ms`` is the calibration kernel's median, a gauge
of the host's speed during the rounds. Whether glibc gives a call's pages
back and faults them in on the next call depends on the heap's layout,
which unrelated small allocations move: the same commit can read 0 or
hundreds of faults per call with a different environment or working
directory, so compare the two sides under one launch.

``--cold-start`` prints only the ``cold_start`` rows, which time fresh
interpreters as perfbench's ``setup_s`` does, with perfbench's own
``SetupTimer`` (run from CHECKOUT, ``sys.path`` led by its ``src``, each
spawn scaled to the reference speed by ``import numpy`` spawns just before
and after it): ``estimate`` of one file of perfbench's ``SETUP_LENGTH``
(6008) exponential values, written as its set-up file is, and one-iteration
``simulate`` of one cell at the Monte Carlo workloads' first rate and
shortest length, ``--calls`` spawns of each, alternating. For each command
the rows give the median scaled seconds (``setup_s``) and the median
measured seconds (``measured_s``), and ``modules``, every module in
``sys.modules`` when the command returns that a bare
``python -c "import numpy"`` (perfbench's reference spawn) does not load,
so a standard-library import that a command pulls in shows beside
hurstlab's own. The ``records`` rows, also printed, time one warm
interpreter run from CHECKOUT: microseconds per construction of a
``LogLogFits``, a ``MethodStats`` and a ``SimulationCell`` by keyword and
of a ``WindowPolicy`` by position, as the program builds each, and per
``hash`` of a ``WindowPolicy`` (``records.*.us_per_call``, each the median
of 9 ``timeit`` repeats of ``RECORD_CALLS`` calls through a lambda). This
mode imports no hurstlab in the script's own process, so it runs on any
checkout.

The perfbench tracer does not wrap these kernels, the chunk draw or the
output writes, so their per-layer rows are timed here.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from contextlib import redirect_stderr
from pathlib import Path
from types import SimpleNamespace

LENGTHS = (128, 1024)
LONG_LENGTH = 32768
# the estimate-files workload's shortest, median and longest file lengths
TEXT_LENGTHS = (2048, 8304, 32752)
# (rows, N) of the R/S and DFA window-major/axis sweep: the Monte Carlo
# workloads' one-cell shapes, the default grid's chunks at N = 128, then one
# row at each of TEXT_LENGTHS
SWEEP_SHAPES = ((50, 128), (50, 256), (25, 512), (25, 1024), (256, 128),
                *((1, n) for n in TEXT_LENGTHS))
SWEEP_WINDOW_MAX = 64
WARM_VTP_LENGTH = 2048
MC_ROUNDS = 12
# each seam's name and the hurstlab module whose global it is
MC_SEAMS = {"rsal_batch": "methods", "dfa_batch": "methods", "vtp_batch": "methods",
            "exponential_rows": "montecarlo"}
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def load_perfbench() -> SimpleNamespace:
    """perfbench's ``run``, ``workloads``, ``calibration`` and ``tracing``
    modules, imported from ``PERFBENCH`` without writing bytecode there."""
    saved = sys.dont_write_bytecode, list(sys.path)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
        import calibration
        import tracing
        import workloads
    finally:
        sys.dont_write_bytecode, sys.path[:] = saved
    return SimpleNamespace(run=run, workloads=workloads, calibration=calibration,
                           tracing=tracing)


def mc_sequence(workload: str, seed: int, perfbench: SimpleNamespace) -> dict:
    """The ``mc_sequence.WORKLOAD`` rows, measured in this process: see the
    module docstring."""
    import numpy as np

    from hurstlab import cli, montecarlo

    sizes, iterations = perfbench.run.MC_GRIDS[workload]
    scale = perfbench.workloads.FULL
    cells = [(lam, n) for lam in scale.lambdas for n in sizes]
    prefix = f"mc_sequence.{workload}"
    metrics = {}
    modules = {"hurstlab.cli": cli}

    def simulate(argv: list[str]) -> float:
        code, elapsed, _ = perfbench.workloads.call_cli(modules, ["simulate", *argv])
        if code != 0:
            sys.exit(f"simulate exited {code}")
        return elapsed

    # (seconds, faults) rows, filled in place: lists that grow would call
    # malloc where the benchmark's process does not, and move the heap
    # state being measured.
    per_size = len(scale.lambdas) * MC_ROUNDS
    tables = {n: np.zeros((per_size, 2)) for n in sizes}
    tables.update({(name, n): np.zeros((per_size * -(-iterations // montecarlo.chunk_rows(n)), 2))
                   for name in MC_SEAMS for n in sizes})
    tables.update({("other", n): np.zeros((per_size, 2)) for n in sizes})
    filled = dict.fromkeys(tables, 0)
    probes = np.zeros(per_size * len(sizes) + 1)

    def record(key, seconds: float, faults: int) -> None:
        tables[key][filled[key]] = seconds, faults
        filled[key] += 1

    seam_seconds = 0.0  # in the four seams, since the one-cell call began

    def wrap(name: str, func):
        def timed(*args, **kwargs):
            nonlocal seam_seconds
            n = args[4].length if name == "exponential_rows" else args[0].shape[-1]
            faults, start = minflt(), time.perf_counter()
            result = func(*args, **kwargs)
            elapsed = time.perf_counter() - start
            seam_seconds += elapsed
            record((name, n), elapsed, minflt() - faults)
            return result
        return timed

    with tempfile.TemporaryDirectory(prefix="time_kernels-mc-") as work:
        metrics[f"{prefix}.grid_call_s"] = simulate([
            "--lambdas", *map(str, scale.lambdas), "--sizes", *map(str, sizes),
            "--iteration-counts", str(scale.grid_iterations), "--seed", str(seed),
            "--out", str(Path(work, "grid.json"))])
        probes[0] = perfbench.calibration.probe()[0]
        seams = {name: importlib.import_module(f"hurstlab.{home}")
                 for name, home in MC_SEAMS.items()}
        originals = {name: getattr(module, name) for name, module in seams.items()}
        for name, func in originals.items():
            setattr(seams[name], name, wrap(name, func))
        try:
            for r in range(MC_ROUNDS):
                for i, (lam, n) in enumerate(cells):
                    faults, seam_seconds = minflt(), 0.0
                    elapsed = simulate([
                        "--lambdas", str(lam), "--sizes", str(n), "--iteration-counts",
                        str(iterations), "--seed", str(seed * len(cells) + i),
                        "--out", str(Path(work, f"cell{i}.json"))])
                    record(n, elapsed, minflt() - faults)
                    record(("other", n), elapsed - seam_seconds, 0)
                    probes[1 + r * len(cells) + i] = perfbench.calibration.probe(
                        perfbench.workloads.PROBE_SHARE * elapsed)[0]
        finally:
            for name, func in originals.items():
                setattr(seams[name], name, func)
    metrics[f"{prefix}.probe_ms"] = float(np.median(probes)) * 1e3
    for n in sizes:
        shape = f"{prefix}.N{n}x{iterations}"
        rows = [(n, shape, "ms", 1e3)]
        rows += [((name, n), f"{shape}.{name}", "us", 1e6) for name in MC_SEAMS]
        for key, row, unit, factor in rows:
            times, faults = tables[key][:filled[key]].T
            metrics[f"{row}.{unit}_per_call"] = float(np.median(times)) * factor
            metrics[f"{row}.minflt_per_call"] = float(faults.mean())
        other = tables["other", n][:filled["other", n], 0]
        metrics[f"{shape}.other_us_per_call"] = float(np.median(other)) * 1e6
    return metrics


# Every module in sys.modules once the command returns, listed on stdout; its
# own output goes to the null device.
MODULES_CODE = (
    "import os, sys; sys.path.insert(0, 'src'); from hurstlab.cli import main; "
    "out, sys.stdout = sys.stdout, open(os.devnull, 'w'); code = main(sys.argv[1:]); "
    "print(*sorted(sys.modules), file=out); raise SystemExit(code)")
# The modules of a bare `python -c "import numpy"`, perfbench's spawn reference:
# a command's ``modules`` row lists what it loads beyond these.
NUMPY_MODULES_CODE = "import os, sys, numpy; print(*sorted(sys.modules))"
# The ``records`` rows: warm microseconds per construction of four records,
# built as the program builds them, and per hash of a WindowPolicy, each the
# median of 9 timeit repeats of RECORD_CALLS calls (each through a lambda).
RECORD_CALLS = 20000
RECORDS_CODE = """\
import json, statistics, sys, timeit
sys.path.insert(0, 'src')
import numpy as np
from hurstlab.base import LogLogFits, WindowPolicy
from hurstlab.montecarlo import MethodStats, SimulationCell
a = np.zeros(50)
policy = WindowPolicy(2, 'half-N')
calls = {
    'LogLogFits': lambda: LogLogFits(method='DFA', scales=a, statistics=a, slope=a,
                                     intercept=a, residual_rms=a, hurst=a),
    'MethodStats': lambda: MethodStats(mean_hurst=0.5, mse=0.01, failure_count=0),
    'SimulationCell': lambda: SimulationCell(lam=1.5, length=128, iterations=50),
    'WindowPolicy': lambda: WindowPolicy(2, 'half-N'),
    'hash_WindowPolicy': lambda: hash(policy),
}
number = int(sys.argv[1])
print(json.dumps({f'records.{name}.us_per_call':
                  statistics.median(timeit.repeat(call, number=number, repeat=9)) / number * 1e6
                  for name, call in calls.items()}))
"""


def cold_start(root: Path, seed: int, spawns: int, perfbench: SimpleNamespace) -> dict:
    """The ``cold_start`` and ``records`` rows: see the module docstring."""
    import numpy as np

    def child(code: str, *args: str) -> str:
        run = subprocess.run([sys.executable, "-c", code, *args], cwd=root,
                             capture_output=True, text=True)
        if run.returncode:
            sys.exit(f"a child interpreter exited {run.returncode}: {run.stderr}")
        return run.stdout

    workloads = perfbench.workloads
    lam, n_obs = workloads.FULL.lambdas[0], min(perfbench.run.MC_GRIDS["mc-short"][0])
    metrics = {}
    with tempfile.TemporaryDirectory(prefix="time_kernels-cold-") as work:
        series = Path(work, "series-setup.txt")
        workloads._write_series(
            series, np.random.default_rng(seed).exponential(size=workloads.SETUP_LENGTH),
            "set-up series")
        commands = {
            "estimate": ["estimate", str(series)],
            "simulate": ["simulate", "--lambdas", str(lam), "--sizes", str(n_obs),
                         "--iteration-counts", "1", "--seed", str(seed),
                         "--out", str(Path(work, "setup.json"))],
        }
        result = workloads.Result()
        timers = {name: workloads.SetupTimer(root, argv, spawns, result)
                  for name, argv in commands.items()}
        for _ in range(spawns):
            for timer in timers.values():
                timer.spawn()
        if result.problems:
            sys.exit("\n".join(result.problems))
        numpy_modules = set(child(NUMPY_MODULES_CODE).split())
        for name, timer in timers.items():
            prefix = f"cold_start.{name}"
            metrics[f"{prefix}.setup_s"] = statistics.median(timer.times)
            metrics[f"{prefix}.measured_s"] = statistics.median(timer.measured)
            metrics[f"{prefix}.modules"] = [
                m for m in child(MODULES_CODE, *commands[name]).split() if m not in numpy_modules]
    metrics.update(json.loads(child(RECORDS_CODE, str(RECORD_CALLS))))
    return metrics


def path_sweep(rng, median_s) -> dict:
    """The ``path_sweep`` rows: see the module docstring. *median_s(name,
    call)* gives a call's median seconds and records its faults."""
    from hurstlab import dfa, regression, rs
    from hurstlab.base import DEFAULT_POLICY

    metrics = {}
    for n_rows, n_obs in SWEEP_SHAPES:
        x = rng.exponential(size=(n_rows, n_obs))
        for method, module, kernel, floor in (
                ("rsal", rs, lambda n: rs.rs_statistics(x, (n,), "sample"), 2),
                ("dfa", dfa, lambda n: dfa.dfa_fluctuations(x, (n,)), dfa.DFA_MIN_WINDOW)):
            windows = DEFAULT_POLICY.windows(n_obs, min_window=floor)
            for n in (n for n in windows if n <= SWEEP_WINDOW_MAX):
                prefix = f"path_sweep.{method}.{n_rows}x{n_obs}.n{n}"
                metrics[f"{prefix}.chosen"] = int(regression.window_major(n, x.size))
                want = None
                for path_name, accepts in (("window_major", True), ("axis", False)):
                    module.window_major = lambda n, size, accepts=accepts: accepts
                    try:
                        got = kernel(n).tobytes()
                        if want is not None and got != want:
                            sys.exit(f"{method} n = {n} at {n_rows} x {n_obs}: "
                                     "the two paths' bits differ")
                        want = got
                        name = f"{prefix}.{path_name}"
                        metrics[f"{name}.us_per_call"] = median_s(name, lambda: kernel(n)) * 1e6
                    finally:
                        module.window_major = regression.window_major
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--calls", type=int, default=200)
    parser.add_argument("--chunk-elements", type=int,
                        help="set montecarlo.CHUNK_ELEMENTS in this process")
    perfbench = load_perfbench()
    parser.add_argument("--mc-sequence", choices=perfbench.run.MC_GRIDS,
                        help="print only this workload's mc_sequence rows, "
                             "measured in this process")
    parser.add_argument("--path-sweep", action="store_true",
                        help="print only the path_sweep rows")
    parser.add_argument("--cold-start", action="store_true",
                        help="print only the cold_start rows, --calls spawns per command, "
                             "and the records rows")
    args = parser.parse_args()
    if args.chunk_elements is not None and args.chunk_elements < 1:
        parser.error("--chunk-elements must be >= 1")
    # One BLAS thread and one CPU, as perfbench/run.py times its workloads.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if args.cold_start:
        print(json.dumps({"seed": args.seed, "calls": args.calls, "metrics": cold_start(
            args.root.resolve(), args.seed, args.calls, perfbench)}))
        return 0
    sys.path.insert(0, str(args.root.resolve() / "src"))
    import numpy as np

    from hurstlab import cli, methods, montecarlo, vtp
    from hurstlab.cli import main as cli_main
    from hurstlab.dfa import dfa_batch, estimate_dfa
    from hurstlab.report import estimates_to_json, read_series_file
    from hurstlab.rs import estimate_rsal, rsal_batch
    from hurstlab.vtp import estimate_vtp, vtp_batch

    if args.chunk_elements is not None:
        montecarlo.CHUNK_ELEMENTS = args.chunk_elements
    if args.mc_sequence:
        print(json.dumps(mc_sequence(args.mc_sequence, args.seed, perfbench)))
        return 0
    metrics = {}
    for workload in () if args.path_sweep else perfbench.run.MC_GRIDS:
        child = [sys.executable, __file__, "--root", str(args.root), "--seed",
                 str(args.seed), "--mc-sequence", workload]
        if args.chunk_elements is not None:
            child += ["--chunk-elements", str(args.chunk_elements)]
        run = subprocess.run(child, capture_output=True, text=True)
        if run.returncode:
            sys.exit(f"--mc-sequence {workload} exited {run.returncode}: {run.stderr}")
        metrics.update(json.loads(run.stdout.splitlines()[-1]))
    chunks = 0
    draw_rows = montecarlo.exponential_rows

    def counted_rows(*a, **k):
        nonlocal chunks
        chunks += 1
        return draw_rows(*a, **k)

    montecarlo.exponential_rows = counted_rows

    def median_s(name: str, call) -> float:
        """Median seconds per call after one warm-up call; records the row's
        minor faults per call, and its chunks per call if it drew any."""
        nonlocal chunks
        call()
        times = []
        chunks = 0
        faults = minflt()
        for _ in range(args.calls):
            start = time.perf_counter()
            call()
            times.append(time.perf_counter() - start)
        faults = minflt() - faults
        metrics[f"{name}.minflt_per_call"] = faults / args.calls
        if chunks:
            metrics[f"{name}.chunks_per_call"] = chunks / args.calls
        return float(np.median(times))

    def us_per_series(name: str, call, n_rows: int) -> None:
        metrics[f"{name}.us_per_series"] = median_s(name, call) / n_rows * 1e6

    def ms_per_call(name: str, call) -> None:
        metrics[f"{name}.ms_per_call"] = median_s(name, call) * 1e3

    stub_calls = 0

    def stub_fit(x, *_, **__):
        nonlocal stub_calls
        stub_calls += 1
        return SimpleNamespace(hurst=np.full(x.shape[0], 0.5))

    rng = np.random.default_rng(args.seed)
    if args.path_sweep:
        metrics.update(path_sweep(rng, median_s))
        print(json.dumps({"numpy": np.__version__, "seed": args.seed, "calls": args.calls,
                          "metrics": metrics}))
        return 0
    rows = {}
    for n_obs in LENGTHS:
        rows[n_obs] = montecarlo.chunk_rows(n_obs)
        print(f"N = {n_obs}: {rows[n_obs]} rows per chunk", file=sys.stderr)
        cell = montecarlo.SimulationCell(lam=1.5, length=n_obs, iterations=rows[n_obs])
        kernels = methods.rsal_batch, methods.dfa_batch, methods.vtp_batch
        methods.rsal_batch = methods.dfa_batch = methods.vtp_batch = stub_fit
        stub_calls = 0
        try:
            us_per_series(f"draw.N{n_obs}",
                          lambda: montecarlo.run_cell(cell, args.seed), rows[n_obs])
            seeds = itertools.count(args.seed)
            us_per_series(f"draw_new_seed.N{n_obs}",
                          lambda: montecarlo.run_cell(cell, next(seeds)), rows[n_obs])
        finally:
            methods.rsal_batch, methods.dfa_batch, methods.vtp_batch = kernels
        if not stub_calls:
            sys.exit("the draw rows never called the stub at hurstlab.methods.rsal_batch, "
                     "dfa_batch and vtp_batch: run_cell no longer reaches its kernels "
                     "through that seam, so the rows would time the real kernels")
        x = rng.exponential(size=(rows[n_obs], n_obs))
        for kernel in (rsal_batch, dfa_batch, vtp_batch):
            us_per_series(f"{kernel.__name__}.N{n_obs}", lambda: kernel(x), rows[n_obs])

    series = rng.exponential(size=LONG_LENGTH)
    for kernel in (rsal_batch, dfa_batch):
        us_per_series(f"{kernel.__name__}.N{LONG_LENGTH}", lambda: kernel(series[None, :]), 1)

    def cold_vtp() -> None:
        perfbench.tracing.clear_caches()
        estimate_vtp(series)

    cold = f"vtp_cold.N{LONG_LENGTH}"
    ms_per_call(cold, cold_vtp)
    tracemalloc.start()
    cold_vtp()
    metrics[f"{cold}.peak_mib"] = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()

    warm = rng.exponential(size=(1, WARM_VTP_LENGTH))
    ws = vtp._default_ws(WARM_VTP_LENGTH, False)
    us_per_series(f"vtp_warm.N{WARM_VTP_LENGTH}", lambda: vtp.scale_variances(warm, ws), 1)

    with tempfile.TemporaryDirectory(prefix="time_kernels-text-") as work:
        modules = {"hurstlab.cli": cli}
        for n_obs in TEXT_LENGTHS:
            path = Path(work, f"series{n_obs}.txt")
            perfbench.workloads._write_series(path, rng.exponential(size=n_obs), f"N={n_obs}")
            ms_per_call(f"read_series.N{n_obs}", lambda: read_series_file(path))

            def cold_estimate() -> None:
                perfbench.tracing.clear_caches()
                code, _, _ = perfbench.workloads.call_cli(modules, ["estimate", str(path)])
                if code != 0:
                    sys.exit(f"estimate exited {code}")

            ms_per_call(f"estimate_cold.N{n_obs}", cold_estimate)

    metrics.update(path_sweep(rng, median_s))
    results = [estimate_rsal(series), estimate_dfa(series), estimate_vtp(series)]
    options = {"method": "all", "min_window": 2, "max_window_rule": "half-N",
               "sd_mode": "sample", "vtp_divisors_only": False}
    ms_per_call(f"estimates_to_json.N{LONG_LENGTH}",
                lambda: estimates_to_json(results, "series.txt", LONG_LENGTH, options))

    def simulate(directory: Path, n_obs: int = 128, iterations: int = 1) -> None:
        argv = ["simulate", "--lambdas", "1.5", "--sizes", str(n_obs), "--iteration-counts",
                str(iterations), "--seed", str(args.seed),
                "--out", str(directory / "report.json")]
        with redirect_stderr(io.StringIO()) as err:
            code = cli_main(argv)
        if code != 0:
            sys.exit(f"simulate exited {code}: {err.getvalue()}")

    with tempfile.TemporaryDirectory(prefix="time_kernels-") as work:
        fresh = [Path(work, f"fresh{i}") for i in range(args.calls + 1)]
        for directory in fresh:
            directory.mkdir()
        unused = iter(fresh)
        ms_per_call("simulate_rewrite", lambda: simulate(Path(work)))
        ms_per_call("simulate_fresh", lambda: simulate(next(unused)))
        # (N, iterations) of the benchmark's one-cell calls
        for n_obs, iterations in ((n, its) for sizes, its in perfbench.run.MC_GRIDS.values()
                                  for n in sizes):
            ms_per_call(f"simulate_cell.N{n_obs}x{iterations}",
                        lambda: simulate(Path(work), n_obs, iterations))

            def cold_call() -> None:
                perfbench.tracing.clear_caches()
                simulate(Path(work), n_obs, iterations)

            ms_per_call(f"simulate_cell_cold.N{n_obs}x{iterations}", cold_call)
    print(json.dumps({"numpy": np.__version__, "seed": args.seed, "rows": rows,
                      "chunk_elements": montecarlo.CHUNK_ELEMENTS, "calls": args.calls,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
