"""The benchmark's workloads: inputs from the seed, timed loops, gate checks.

Every workload drives hurstlab in this process through ``hurstlab.cli.main``
(looked up at each call, so the tracer's wrapper is used when installed),
one call after another, with the default single thread.

Each timed operation is repeated in rounds over the run. Between calls the
calibration kernel runs, and every call's time is scaled to the reference
host speed by the kernel's time either side of it (see calibration.py). The
latency percentiles are taken over the scaled times of the complete rounds;
``series_per_s`` uses each operation's median. The times as measured are
kept in the run's record and printed, not scaled.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import resource
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import calibration
import reference
import tracing

# The paper's six exponential rates. Fixed here, not read from hurstlab, so
# a change to the program's defaults cannot change the workload.
LAMBDAS = (0.1, 0.5, 1.5, 3.0, 5.0, 7.0)
METHODS = ("RSAL", "DFA", "VTP")

# The one-series operation whose cold cost setup_s measures for
# estimate-files. Not a multiple of 16, so it is never a length of the run.
SETUP_LENGTH = 6008


@dataclass(frozen=True)
class Scale:
    """How much work one run does; ``SMOKE`` shrinks it to a few seconds."""

    lambdas: tuple[float, ...]
    grid_iterations: int  # the untimed whole-grid call the gate checks
    setup_spawns: int
    files: int
    min_length: int
    max_length: int


# 200 iterations per cell keep every cell's mean R/Sal estimate about five
# standard errors inside the gate's 0.5 +/- 0.015 band at N = 128. A round
# over the files takes about 8 s, so that a 30-second run makes three.
FULL = Scale(lambdas=LAMBDAS, grid_iterations=200, setup_spawns=9, files=100,
             min_length=2048, max_length=32768)
SMOKE = Scale(lambdas=(1.5,), grid_iterations=200, setup_spawns=1, files=4,
              min_length=512, max_length=4096)


@dataclass
class Result:
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    notes: dict = field(default_factory=dict)


def call_cli(modules: dict, argv: list[str]) -> tuple[int, float, str]:
    """Run ``hurstlab.cli.main(argv)``; return exit code, seconds and stdout."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = modules["hurstlab.cli"].main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 1
        elapsed = time.perf_counter() - start
    if code:
        sys.stderr.write(err.getvalue())
    return code, elapsed, out.getvalue()


class SetupTimer:
    """Times fresh interpreters that import hurstlab and run one command.

    The spawns are spread over the timed loop (see :func:`_repeat`), so
    their median does not hang on the machine's load at one moment. Each
    spawn is scaled to the reference speed by calibration spawns either
    side of it."""

    CODE = ("import sys; sys.path.insert(0, 'src'); "
            "from hurstlab.cli import main; raise SystemExit(main(sys.argv[1:]))")

    def __init__(self, root: Path, argv: list[str], spawns: int, result: "Result"):
        self.root, self.argv, self.spawns, self.result = root, argv, spawns, result
        self.times: list[float] = []  # at the reference speed
        self.measured: list[float] = []

    def spawn(self) -> None:
        before = calibration.spawn_probe(self.root)
        elapsed, code, err = calibration.timed_spawn(
            [sys.executable, "-c", self.CODE, *self.argv], self.root)
        after = calibration.spawn_probe(self.root)
        self.measured.append(elapsed)
        self.times.append(calibration.at_reference_speed(
            elapsed, before, after, calibration.SPAWN_REFERENCE_S))
        if code:
            self.result.problems.append(
                f"set-up run exited {code}: "
                f"{err.decode(errors='replace').strip()[-300:]}")

    def median(self) -> float:
        while len(self.times) < self.spawns:
            self.spawn()
        return statistics.median(self.times)


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# The calibration probes after a call run for at least this share of the
# call's time, so that a long call is scaled by the host speed over a
# stretch around it, not by one run of the kernel.
PROBE_SHARE = 0.2


@dataclass
class Samples:
    """Each op's call times, at the reference speed and as measured, and
    the kernel's time in every probe."""

    times: list[list[float]]
    measured: list[list[float]]
    kernel: list[float] = field(default_factory=list)

    def rounds(self) -> int:
        """Rounds that every op completed."""
        return min(len(t) for t in self.times)

    def latencies(self, measured: bool = False) -> list[float]:
        """Call times of the complete rounds, so that every op counts as
        often as every other."""
        n = self.rounds()
        return [t for op in (self.measured if measured else self.times) for t in op[:n]]

    def op_medians(self, measured: bool = False) -> list[float]:
        return [statistics.median(t) for t in (self.measured if measured else self.times) if t]


def _repeat(ops: int, budget: float, run_op,
            setup: SetupTimer | None = None) -> Samples:
    """Time ops 0..ops-1 in rounds until `budget` seconds of op and probe
    time have passed, finishing at least one round. A calibration probe runs
    before the first op and after each one, and every call is scaled to the
    reference speed by the probes either side of it. The set-up spawns, if
    any, are spaced evenly over the budget."""
    s = Samples([[] for _ in range(ops)], [[] for _ in range(ops)])
    kernel, spent = calibration.probe()
    s.kernel.append(kernel)
    first_round = True
    while first_round or spent < budget:
        ok = False
        for i in range(ops):
            if setup and len(setup.times) < setup.spawns * min(1.0, spent / budget):
                setup.spawn()
            elapsed = run_op(i)
            kernel, probed = calibration.probe(PROBE_SHARE * (elapsed or 0.0))
            s.kernel.append(kernel)
            spent += probed
            if elapsed is not None:
                ok = True
                s.measured[i].append(elapsed)
                s.times[i].append(calibration.at_reference_speed(elapsed, s.kernel[-2],
                                                                 kernel))
                spent += elapsed
            if not first_round and spent >= budget:
                return s
        first_round = False
        if not ok:  # every op failed; the gate reports why
            break
    return s


def _latency_metrics(s: Samples, series_per_op: int, measured: bool = False) -> dict:
    per_op = s.op_medians(measured)
    calls = s.latencies(measured)
    if not calls:  # an op never succeeded; the gate reports why
        return {}
    return {
        "series_per_s": (series_per_op * len(per_op) / sum(per_op), "1/s"),
        "latency_p50_ms": (float(np.percentile(calls, 50)) * 1e3, "ms"),
        "latency_p90_ms": (float(np.percentile(calls, 90)) * 1e3, "ms"),
    }


def _measure(run_op, ops: int, budget: float, trace: bool, modules: dict,
             out_dir: Path, workload: str, expected_idle: frozenset,
             result: Result, cold: bool, setup: SetupTimer,
             series_per_op: int) -> None:
    """Untraced: spend the budget and put the end-to-end metrics in `result`.

    Traced: half the budget untraced, half with the tracer installed; the
    per-layer metrics come from the traced half. With ``cold``, hurstlab's
    caches are emptied before each op."""
    def untraced_op(i: int) -> float | None:
        if cold:
            tracing.clear_caches()
        return run_op(i)

    samples = _repeat(ops, budget if not trace else budget / 2, untraced_op,
                      None if trace else setup)
    result.metrics.update(_latency_metrics(samples, series_per_op))
    result.notes["latency"] = {
        "calls": len(samples.latencies()), "complete_rounds": samples.rounds(),
        "ops": ops, "kernel_median_ms": statistics.median(samples.kernel) * 1e3,
        "op_median_ms": [round(t * 1e3, 3) for t in samples.op_medians()],
        "as_measured": {k: v for k, (v, _) in
                        _latency_metrics(samples, series_per_op, measured=True).items()}}
    if not trace:
        result.metrics["peak_rss_mib"] = (peak_rss_mib(), "MiB")
        result.metrics["setup_s"] = (setup.median(), "s")
        result.notes["latency"]["as_measured"]["setup_s"] = statistics.median(setup.measured)
        return
    tracer = tracing.Tracer()

    def traced_op(i: int) -> float | None:
        if cold:
            tracer.clear_caches()
        return run_op(i)

    tracer.install(modules)
    try:
        traced = _repeat(ops, budget / 2, traced_op)
    finally:
        ratios = tracer.uninstall(modules)
    metrics, flagged = tracing.layer_metrics(tracer, ratios, expected_idle)
    result.metrics.update(metrics)
    if traced.rounds() and samples.rounds():  # else an op failed; the gate says so
        result.metrics["trace.overhead_frac"] = (
            sum(traced.op_medians()) / sum(samples.op_medians()) - 1.0, "frac")
    result.notes["idle_layers"] = flagged
    result.notes["errors_by_class"] = dict(tracer.errors)
    spans_path = out_dir / f"spans-{workload}.jsonl"
    tracer.write(spans_path)
    result.notes["spans_file"] = str(spans_path)
    result.notes["spans"] = len(tracer.spans)


# --- Monte Carlo -------------------------------------------------------------


def run_mc(modules, root: Path, work: Path, out_dir: Path, workload: str,
           sizes: tuple[int, ...], cell_iterations: int, scale: Scale, seed: int,
           seconds: float, trace: bool) -> Result:
    """``hurstlab simulate``: one untimed call over the whole grid, which the
    gate checks, then one-cell calls of `cell_iterations` series over the
    grid, round after round."""
    result = Result()
    cells = [(lam, n) for lam in scale.lambdas for n in sizes]
    lams, ns = [str(lam) for lam in scale.lambdas], [str(n) for n in sizes]

    setup = SetupTimer(root, ["simulate", "--lambdas", lams[0], "--sizes", ns[0],
                              "--iteration-counts", "1", "--seed", str(seed),
                              "--out", str(work / "setup.json")],
                       scale.setup_spawns, result)
    grid_path = work / "grid.json"
    code, grid_seconds, _ = call_cli(modules, [
        "simulate", "--lambdas", *lams, "--sizes", *ns, "--iteration-counts",
        str(scale.grid_iterations), "--seed", str(seed), "--out", str(grid_path)])
    if code:
        result.problems.append(f"whole-grid simulate exited {code}")
        return result
    grid = json.loads(grid_path.read_bytes())
    result.notes["grid_call_s"] = grid_seconds
    for method in METHODS:
        mses = [c["methods"][method]["mse"] for c in grid["cells"]]
        result.metrics[f"{method.lower()}_mse"] = (statistics.fmean(mses), "1")
    result.attempted = len(cells) * scale.grid_iterations * len(METHODS)
    result.failed = sum(m["failure_count"] for c in grid["cells"]
                        for m in c["methods"].values())

    # Each cell has its own master seed, so cells draw different data.
    argvs = [["simulate", "--lambdas", str(lam), "--sizes", str(n),
              "--iteration-counts", str(cell_iterations),
              "--seed", str(seed * len(cells) + i), "--out", str(work / f"cell{i}.json")]
             for i, (lam, n) in enumerate(cells)]
    first: dict[int, bytes] = {}
    failures: dict[int, int] = {}
    # Checked against the reference after the timed loop, so that the
    # reference's arrays do not count in peak_rss_mib.
    to_check = [(grid, seed, True)]

    def run_op(i: int) -> float | None:
        code, elapsed, _ = call_cli(modules, argvs[i])
        result.attempted += cell_iterations * len(METHODS)
        if code:
            result.failed += cell_iterations * len(METHODS)
            result.problems.append(f"simulate cell {i} exited {code}")
            return None
        body = (work / f"cell{i}.json").read_bytes()
        if i not in first:
            first[i] = body
            doc = json.loads(body)
            failures[i] = sum(m["failure_count"] for c in doc["cells"]
                              for m in c["methods"].values())
            to_check.append((doc, seed * len(cells) + i, False))
        elif body != first[i]:
            result.problems.append(f"simulate cell {i} wrote a different report")
        result.failed += failures[i]
        return elapsed

    _measure(run_op, len(cells), seconds, trace, modules, out_dir, workload,
             frozenset({"report.read_series_file", "report.estimates_to_json"}),
             result, cold=False, setup=setup, series_per_op=cell_iterations)
    for doc, cell_seed, band in to_check:
        result.problems += reference.check_report(doc, cell_seed, band=band)
    result.notes["gate"] = (f"whole grid ({len(cells)} cells x {scale.grid_iterations} "
                            f"iterations) and every timed cell checked against the "
                            f"reference (rel_tol {reference.REL_TOL}, abs_tol "
                            f"{reference.ABS_TOL}); R/Sal mean band "
                            f"{reference.TRUE_HURST} +/- {reference.RSAL_BAND}; "
                            f"repeated cells byte-identical, traced or not")
    return result


# --- estimate-files ----------------------------------------------------------


def _series(seed: int, index: int, length: int) -> np.ndarray:
    rng = np.random.default_rng([seed, 0x5E71E5, index])
    return rng.exponential(1.0 / LAMBDAS[index % len(LAMBDAS)], size=length)


def _lengths(count: int, scale: Scale) -> list[int]:
    """One length per log-spaced step from min_length to max_length, rounded
    down to a multiple of 16 (so every estimator has windows), never
    repeated. The ladder is the same for every seed: the cost of R/Sal and
    DFA grows with the number of divisors of N, so seed-drawn lengths would
    move the latency percentiles by far more than the program's own noise."""
    span = math.log(scale.max_length / scale.min_length)
    lengths: list[int] = []
    for i in range(count):
        n = 16 * int(scale.min_length * math.exp(span * i / (count - 1)) // 16)
        lengths.append(max(n, lengths[-1] + 16) if lengths else n)
    return lengths


def _write_series(path: Path, x: np.ndarray, label: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {label}\n")
        fh.write("\n".join(map(repr, x.tolist())))
        fh.write("\n")


def run_estimate_files(modules, root: Path, work: Path, out_dir: Path,
                       workload: str, scale: Scale, seed: int, seconds: float,
                       trace: bool) -> Result:
    """Closed loop, one client: ``hurstlab estimate FILE``, file after file,
    in rounds over the whole set. Before every call hurstlab's caches are
    emptied, so each call is as cold as a fresh ``hurstlab estimate``
    process."""
    result = Result()
    lengths = _lengths(scale.files, scale)
    paths = []
    for i, n in enumerate(lengths):
        path = work / f"series-{i:03d}.txt"
        _write_series(path, _series(seed, i, n), f"seed={seed} index={i} n={n}")
        paths.append(path)
    setup_path = work / "series-setup.txt"
    _write_series(setup_path, _series(seed, scale.files, SETUP_LENGTH), "set-up series")

    setup = SetupTimer(root, ["estimate", str(setup_path)], scale.setup_spawns, result)
    call_cli(modules, ["estimate", str(setup_path)])  # untimed warm-up

    estimates: dict[int, dict[str, float]] = {}
    digests: dict[int, bytes] = {}

    def run_op(i: int) -> float | None:
        code, elapsed, out = call_cli(modules, ["estimate", str(paths[i])])
        result.attempted += 1
        if code:
            result.failed += 1
            result.problems.append(f"estimate {paths[i].name} exited {code}")
            return None
        digest = hashlib.sha256(out.encode()).digest()
        if i in digests:
            if digest != digests[i]:
                result.problems.append(f"estimate {paths[i].name}: output changed "
                                       "between rounds")
            return elapsed
        digests[i] = digest
        try:
            doc = json.loads(out)
            estimates[i] = {r["method"]: r["hurst"] for r in doc["results"]}
        except (ValueError, KeyError, TypeError) as exc:
            result.problems.append(f"estimate {paths[i].name}: bad JSON ({exc})")
        return elapsed

    _measure(run_op, len(paths), seconds, trace, modules, out_dir, workload,
             frozenset({"montecarlo.run_cell", "sampling.derive_stream",
                        "sampling.exponential_sample", "report.report_to_json",
                        "report.plot_data_files"}), result, cold=True, setup=setup,
             series_per_op=1)

    squared: dict[str, list[float]] = {m: [] for m in METHODS}
    for i, got in sorted(estimates.items()):
        expected = reference.estimate_series(_series(seed, i, lengths[i]))
        for method in METHODS:
            h = got.get(method)
            if not isinstance(h, float) or not math.isfinite(h):
                result.problems.append(f"{paths[i].name} {method}: hurst {h!r} not finite")
            elif not reference.close(h, expected[method]):
                result.problems.append(f"{paths[i].name} {method}: hurst {h!r} != "
                                       f"reference {expected[method]!r}")
            else:
                squared[method].append((h - reference.TRUE_HURST) ** 2)
    for method in METHODS:
        values = squared[method]
        result.metrics[f"{method.lower()}_mse"] = (
            statistics.fmean(values) if values else math.nan, "1")
    result.notes["gate"] = (f"{len(estimates)} of {len(paths)} files' outputs parsed "
                            f"and checked against the reference (rel_tol "
                            f"{reference.REL_TOL}, abs_tol {reference.ABS_TOL}); "
                            f"repeated calls byte-identical, traced or not")
    return result
