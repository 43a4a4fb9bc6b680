"""Alternating benchmark pairs of two commits, with each run's heap state.

Usage, from anywhere inside a hurstlab checkout:

    python3 scripts/bench_pairs.py PARENT [CHANGE] --workload W --pairs K \
        --seed-base S [--seconds 30] [--launch-dirs L1,L2,...] > RECORD.json

Exports PARENT and CHANGE (default ``HEAD``) with ``git archive`` into two
sibling directories of equal path length under a new temporary directory,
then runs ``perfbench/run.py --workload W --seed SEED --seconds SECONDS``
from each export's root, K pairs with seeds S, S + 1, ..., the parent first
on even pair indices and the change first on odd ones.

With ``--launch-dirs``, each of the directories L1, L2, ... (which must not
exist; each is created for the run and removed after it) holds its own
exports of both commits in place of the temporary directory, so the same
pairs run from export paths of different lengths: the launch, not only the
commit, decides which heap state glibc leaves a run in (BENCH_22.json's
launch sweep). Pair i runs in L1, then in L2, and so on, before pair i + 1.
Each launch gets its own summary and runs, under the key ``W.launchJ``
(J = 1, 2, ...).

Each run's minor page faults and peak RSS come from ``os.wait4`` on the
run's own process, so a run whose heap was trimmed and faulted in again on
every call shows as such; ``minflt_per_call`` divides the faults (the
untimed set-up's among them) by the run's timed calls, which its
``.perfbench-out`` record gives. Each run's record goes to stderr as it
ends, after its key. Stdout gets one JSON document whose ``workloads``
section has the shape of the committed ``BENCH_*.json`` files: for each
launch of the workload, the launch, a summary of every end-to-end metric
that ``BENCHMARK.json`` names, and every run.

For each metric the summary gives each side's median and quartiles
(linear interpolation, numpy's default), the change in the medians in
percent, the median of the per-pair ratios change / parent, the number
of pairs in which the change is better (in the metric's ``better``
direction), and whether the medians differ by more than the parent's
interquartile range. ``heap_state_pairs`` lists the seeds of the pairs
whose two runs' fault counts differ by more than ``FAULT_FACTOR``: those
pairs compare heap states as much as commits. Uses the standard
library only.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
# A heap trimmed and faulted in again on every call faults several times
# as often as one that is not (BENCH_22.json's launch sweep).
FAULT_FACTOR = 2.0


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) by linear interpolation between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarise(runs: list[dict], metrics: list[tuple[str, str]]) -> dict:
    """The summary of *runs* (dicts with ``seed``, ``side`` and each metric),
    paired by seed; *metrics* are (name, ``"higher"`` or ``"lower"``)."""
    by_seed = {}
    for run in runs:
        by_seed.setdefault(run["seed"], {})[run["side"]] = run
    pairs = [by_seed[seed] for seed in sorted(by_seed) if len(by_seed[seed]) == 2]
    summary = {"pairs": len(pairs), "seeds": [pair["parent"]["seed"] for pair in pairs]}
    for name, better in metrics:
        parent = [pair["parent"][name] for pair in pairs]
        change = [pair["change"][name] for pair in pairs]
        p_q1, p_median, p_q3 = quartiles(parent)
        c_q1, c_median, c_q3 = quartiles(change)
        sign = 1 if better == "higher" else -1
        summary[name] = {
            "parent_median": round(p_median, 4), "parent_q1": round(p_q1, 4),
            "parent_q3": round(p_q3, 4), "change_median": round(c_median, 4),
            "change_q1": round(c_q1, 4), "change_q3": round(c_q3, 4),
            "change_pct": round((c_median / p_median - 1) * 100, 2),
            "median_pair_ratio": round(statistics.median(
                c / p for p, c in zip(parent, change)), 4),
            "pairs_change_better": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
            "medians_differ_more_than_parent_iqr": abs(c_median - p_median) > p_q3 - p_q1,
        }
    summary["heap_state_pairs"] = [
        pair["parent"]["seed"] for pair in pairs
        if max(pair["parent"]["minflt"], pair["change"]["minflt"])
        > FAULT_FACTOR * min(pair["parent"]["minflt"], pair["change"]["minflt"])]
    summary["failed"] = sum(run["failed"] for run in runs)
    summary["attempted"] = sum(run["attempted"] for run in runs)
    summary["all_correct"] = all(run["correct"] for run in runs)
    return summary


def export(rev: str, dest: Path) -> str:
    """Extract *rev* of this checkout's repository into *dest*; returns the
    full commit id."""
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", f"{rev}^{{commit}}"],
                            capture_output=True, text=True, check=True).stdout.strip()
    archive = dest.with_suffix(".tar")
    subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", "-o", str(archive), commit],
                   check=True)
    dest.mkdir()
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()
    return commit


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run from *root*: its metrics and counts, its
    number of timed calls (from the run's record file), and the process's
    minor faults, in all and per timed call, and peak RSS from ``os.wait4``."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds)]
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        proc = subprocess.Popen(argv, cwd=root, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        lines = out.read().decode().splitlines()
        if proc.returncode or not lines:
            err.seek(0)
            raise SystemExit(f"{argv} in {root} exited {proc.returncode}: "
                             f"{err.read().decode()[-2000:]}")
    result = json.loads(lines[-1])
    record = json.loads((root / ".perfbench-out" / f"{workload}-trace0.json").read_text())
    calls = record["notes"]["latency"]["calls"]
    return {**{name: round(metric["value"], 4) for name, metric in result["metrics"].items()},
            "attempted": result["attempted"], "failed": result["failed"],
            "correct": result["correct"], "timed_calls": calls, "minflt": usage.ru_minflt,
            "minflt_per_call": round(usage.ru_minflt / max(calls, 1), 1),
            "maxrss_mib": round(usage.ru_maxrss / 1024, 2)}


def _launch(roots: dict, seconds: float) -> str:
    """How the runs from the exports at *roots* were launched."""
    return (f"fresh `git archive` exports of both commits in sibling directories at "
            f"{len(str(roots['parent']))}-character paths, one {seconds:g} s run per "
            f"side per seed, pairs alternating which side runs first (parent first on "
            f"even pair indices)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change", nargs="?", default="HEAD")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed-base", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--launch-dirs", type=lambda text: [Path(d).absolute()
                                                            for d in text.split(",")])
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("need --pairs >= 1 and --seconds > 0")
    if args.launch_dirs and (len(set(args.launch_dirs)) < len(args.launch_dirs)
                             or any(d.exists() for d in args.launch_dirs)):
        parser.error("--launch-dirs must name distinct directories that do not exist yet")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = [(m["name"], m["better"]) for m in spec["end_to_end"]]
    with contextlib.ExitStack() as stack:
        if args.launch_dirs:
            bases = args.launch_dirs
            for base in bases:
                base.mkdir(parents=True)
                stack.callback(shutil.rmtree, base)
        else:
            bases = [Path(stack.enter_context(tempfile.TemporaryDirectory(prefix="bench_pairs-")))]
        launches = [{side: Path(base, side[:1]) for side in SIDES} for base in bases]
        for roots in launches:
            commits = {side: export(rev, roots[side])
                       for side, rev in zip(SIDES, (args.parent, args.change))}
        keys = ([args.workload] if len(launches) == 1
                else [f"{args.workload}.launch{j}" for j in range(1, len(launches) + 1)])
        runs = [[] for _ in launches]
        for i in range(args.pairs):
            seed = args.seed_base + i
            for key, roots, launch_runs in zip(keys, launches, runs):
                for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                    run = {"seed": seed, "side": side,
                           **run_once(roots[side], args.workload, seed, args.seconds)}
                    launch_runs.append(run)
                    print(key, json.dumps(run), file=sys.stderr)
    doc = {"parent_commit": commits["parent"], "change_commit": commits["change"],
           "command": f"python3 perfbench/run.py --workload {args.workload} --seed S "
                      f"--seconds {args.seconds:g}, from each export's root",
           "workloads": {key: {"launch": _launch(roots, args.seconds),
                               "summary": summarise(launch_runs, metrics), "runs": launch_runs}
                         for key, roots, launch_runs in zip(keys, launches, runs)}}
    print(json.dumps(doc, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
