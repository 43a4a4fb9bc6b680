"""hurstlab benchmark: one command per workload, metrics on the last line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mc-short --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs half the
budget untraced and half traced and prints the per-layer metrics.
``--smoke`` shrinks every workload to a few seconds. The last line of
stdout is ``{"correct", "attempted", "failed", "metrics"}``; lines before it
are for people. A run whose outputs fail the correctness gate prints the
problems and ``correct: false`` with no metrics, and exits 1. The full
record (environment, notes, metrics) goes to ``.perfbench-out/``.
See perfbench/METRICS.md for what each metric means and what should move it.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import shutil
import sys
from pathlib import Path

WORKLOADS = ("mc-short", "mc-long", "estimate-files")
# Series lengths, and iterations per timed one-cell call: each call takes
# 30 to 60 ms, so that a 30-second run repeats every cell 25 times or more.
MC_GRIDS = {"mc-short": ((128, 256), 50), "mc-long": ((512, 1024), 25)}
SMOKE_CELL_ITERATIONS = 10
END_TO_END = ("setup_s", "series_per_s", "latency_p50_ms", "latency_p90_ms",
              "peak_rss_mib")
OUT_DIR = ".perfbench-out"
# One BLAS thread: the benchmark measures the program on one core, not how
# the scheduler shares the machine's few cores between BLAS threads.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs: every workload in a few seconds")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def _import_hurstlab(root: Path) -> dict:
    """Import hurstlab from ``root/src`` and nowhere else."""
    src = root / "src"
    if not (src / "hurstlab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no hurstlab sources under {src}; "
                         "run from the root of a hurstlab checkout")
    sys.path.insert(0, str(src))
    names = ("hurstlab", "hurstlab.cli", "hurstlab.montecarlo", "hurstlab.base",
             "hurstlab.rs", "hurstlab.dfa", "hurstlab.vtp")
    modules = {name: importlib.import_module(name) for name in names}
    origin = Path(modules["hurstlab"].__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SystemExit(f"perfbench: imported hurstlab from {origin}, not {src}")
    return modules


def _git_commit(root: Path) -> str | None:
    """HEAD of ``root/.git`` read from its files; None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(root: Path, modules: dict, seed: int, nproc: int) -> dict:
    import numpy
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((root / "src" / "hurstlab").glob("*.py")))
    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(root),
        "seed": seed,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        # Informational, not gated: tracked by the roadmap.
        "src_hurstlab_lines": src_lines,
        "hurstlab_all_names": len(modules["hurstlab"].__all__),
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    for name in THREAD_ENV:  # before numpy is imported; set-up runs inherit it
        os.environ[name] = "1"
    nproc = len(os.sched_getaffinity(0))
    # One CPU for the timed calls, the calibration probes and the set-up
    # spawns (which inherit it), so that the probes gauge the speed of the
    # CPU the work runs on: on a shared host the CPUs slow down separately.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    root = Path.cwd()
    modules = _import_hurstlab(root)
    import calibration
    import workloads

    scale = workloads.SMOKE if args.smoke else workloads.FULL
    out_dir = root / OUT_DIR
    work = out_dir / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    trace = bool(args.trace)
    try:
        if args.workload in MC_GRIDS:
            sizes, cell_iterations = MC_GRIDS[args.workload]
            if args.smoke:
                cell_iterations = SMOKE_CELL_ITERATIONS
            result = workloads.run_mc(modules, root, work, out_dir, args.workload,
                                      sizes, cell_iterations, scale, args.seed,
                                      args.seconds, trace)
        else:
            result = workloads.run_estimate_files(modules, root, work, out_dir,
                                                  args.workload, scale, args.seed,
                                                  args.seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed_frac = result.failed / result.attempted if result.attempted else 1.0
    if trace:
        result.metrics["failed_frac"] = (failed_frac, "frac")
        shown = {k: v for k, v in result.metrics.items() if k not in END_TO_END}
    else:
        shown = {k: result.metrics[k] for k in END_TO_END if k in result.metrics}
    env = environment(root, modules, args.seed, nproc)
    record = {"workload": args.workload, "trace": args.trace, "smoke": args.smoke,
              "seconds": args.seconds, "environment": env, "notes": result.notes,
              "problems": result.problems, "attempted": result.attempted,
              "failed": result.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()}}
    (out_dir / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}"
          + (" smoke" if args.smoke else ""))
    print("environment " + json.dumps(env))
    correct = not result.problems and result.attempted > 0
    if not correct:
        for problem in result.problems:
            print(f"gate FAILED: {problem}")
        print(json.dumps({"correct": False, "attempted": result.attempted,
                          "failed": result.failed, "metrics": {}}))
        return 1
    print(f"gate passed: {result.notes['gate']}")
    print(f"failed_frac {failed_frac:.6g} "
          f"({result.failed} of {result.attempted} operations)")
    lat = result.notes["latency"]
    print(f"latency: {lat['calls']} calls, {lat['complete_rounds']} complete rounds "
          f"over {lat['ops']} operations; times scaled to the reference host speed "
          f"(calibration kernel: median {lat['kernel_median_ms']:.3f} ms here, "
          f"{calibration.REFERENCE_S * 1e3:g} ms at the reference)")
    print("as measured, not scaled: " + ", ".join(
        f"{k} {v:.6g}" for k, v in lat["as_measured"].items()))
    for name in result.notes.get("idle_layers", []):
        print(f"idle layer (no calls recorded): {name}")
    for cls, n in sorted(result.notes.get("errors_by_class", {}).items()):
        print(f"errors.{cls}.count {n}")
    # Untraced runs also compute the estimators' MSE; it is printed here
    # and declared with the per-layer metrics (see METRICS.md).
    for name, (value, unit) in (result.metrics if not trace else shown).items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({"correct": True, "attempted": result.attempted,
                      "failed": result.failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in shown.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
