"""Check that a revision and the working tree give the same outputs.

Usage, from anywhere:

    python3 scripts/compare_outputs.py REV

Exports REV with ``git archive`` into a temporary directory and runs one
suite on that export and on the working tree, each side importing hurstlab
from its own ``src`` and running its own demos. Prints ``identical`` and
exits 0 when every output matches; otherwise prints the first differing
line of every file that differs and exits 1.

The suite:

- ``hurstlab simulate --seed 42`` on the default grid, in JSON and in CSV,
  each with its plot-data files; then the same with
  ``--vtp-divisors-only --sd-mode population --min-window 4``.
- ``hurstlab estimate`` with every ``--method`` and ``--format``, with and
  without ``--vtp-divisors-only``, on the 100 lengths of the benchmark's
  estimate-files workload (2048 to 32752 seeded exponential draws), a
  constant file, a 3-point file, a doubly integrated Gaussian walk (its DFA
  slope is above 1) and a series whose squares overflow float64. Each
  call's stdout, stderr and exit code are compared.
- The usage cases: ``hurstlab --help``, ``--version``, each subcommand's
  ``--help``, no arguments, an unknown command, and for each subcommand a
  missing argument, an option it does not take and a bad option value. Each
  call's stdout, stderr and exit code are compared, so every help and usage
  text is checked byte for byte.
- The stdout, stderr and exit code of each ``demos/*.py``, and the files it
  writes.

The series files are drawn from fixed seeds into the temporary directory,
so no data is committed. Wall-clock durations (``in 11.3s``) and each
side's own path are masked before the comparison. The two sides run at the
same time, one process each, on one host, so they share its libm and numpy
build.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import math
import os
import re
import subprocess
import sys
import tarfile
import tempfile
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SEED = 42
SIMULATE_RUNS = {
    "default": [],
    "options": ["--vtp-divisors-only", "--sd-mode", "population", "--min-window", "4"],
}
METHOD_CHOICES = ("rsal", "dfa", "vtp", "all")
# Argument lists that print help or usage and exit; "FILE" is a series file.
USAGE_RUNS = (
    ["--help"], ["--version"], [], ["estimat", "FILE"],
    ["estimate", "--help"], ["simulate", "--help"], ["expected-rs", "--help"],
    ["estimate"], ["estimate", "FILE", "--lambdas", "1"],
    ["estimate", "FILE", "--method", "mle"], ["estimate", "FILE", "--min-window", "two"],
    ["simulate", "--bogus"], ["simulate", "--sizes", "x"], ["simulate", "--format", "xml"],
    ["expected-rs"], ["expected-rs", "16", "--method", "rsal"],
    ["--version", "estimate", "FILE"], ["-h", "simulate"],
)
# Help text wraps at the terminal's width, which each side reads from COLUMNS.
COLUMNS = "80"
DURATION = re.compile(r"\bin \d+\.\d+s\b")


def write_series(path: Path, values) -> None:
    path.write_text("".join(f"{x!r}\n" for x in values.tolist()), encoding="utf-8")


def make_data(data: Path) -> None:
    """The estimate inputs: the benchmark's length ladder (one length per
    log-spaced step from 2048 to 32768, rounded down to a multiple of 16)
    and four edge cases."""
    lambdas = (0.1, 0.5, 1.5, 3.0, 5.0, 7.0)
    lengths: list[int] = []
    for i in range(100):
        n = 16 * int(2048 * math.exp(math.log(16) * i / 99) // 16)
        lengths.append(max(n, lengths[-1] + 16) if lengths else n)
    for i, n in enumerate(lengths):
        rng = np.random.default_rng([SEED, i])
        write_series(data / f"series-{i:03d}.txt",
                     rng.exponential(1.0 / lambdas[i % len(lambdas)], size=n))
    write_series(data / "constant.txt", np.full(1024, 2.5))
    write_series(data / "three-points.txt", np.arange(1.0, 4.0))
    walk = np.cumsum(np.cumsum(np.random.default_rng(SEED).normal(size=4096)))
    write_series(data / "dfa-slope-above-1.txt", walk)
    write_series(data / "overflow.txt", np.random.default_rng(SEED).exponential(size=256) * 1e200)


def run_cli(main, argv: list[str], root: Path) -> str:
    """One in-process ``hurstlab`` call as a record of its exit code, stdout
    and stderr. Each call sees a warnings registry as fresh as a new
    process's; an exception that escapes main is recorded by class and
    message, as exit 1."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("default", RuntimeWarning)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = f"1, uncaught {type(exc).__name__}: {exc}"
    stderr = DURATION.sub("in <duration>", err.getvalue().replace(str(root), "<root>"))
    return (f"### hurstlab {' '.join(argv)}\nexit {code}\n--- stdout\n{out.getvalue()}"
            f"--- stderr\n{stderr}")


def run_side(root: Path, data: Path, out: Path) -> int:
    """Run the suite on the checkout at *root*, writing every output under
    *out*."""
    sys.path.insert(0, str(root / "src"))
    from hurstlab.cli import main

    os.chdir(out)
    for name, options in SIMULATE_RUNS.items():
        for fmt in ("json", "csv"):
            directory = Path(f"simulate-{name}-{fmt}")
            directory.mkdir()
            argv = ["simulate", "--seed", str(SEED), "--format", fmt,
                    "--out", str(directory / f"report.{fmt}"), *options]
            (directory / "cli.txt").write_text(run_cli(main, argv, root), encoding="utf-8")

    Path("estimate").mkdir()
    for path in sorted(data.iterdir()):
        records = [run_cli(main, ["estimate", str(path), "--method", method,
                                  "--format", fmt, *divisors], root)
                   for divisors in ([], ["--vtp-divisors-only"])
                   for fmt in ("json", "csv") for method in METHOD_CHOICES]
        Path("estimate", path.name).write_text("".join(records), encoding="utf-8")

    series = str(data / "series-000.txt")
    records = [run_cli(main, [series if arg == "FILE" else arg for arg in argv], root)
               for argv in USAGE_RUNS]
    Path("usage.txt").write_text("".join(records).replace(str(data), "<data>"),
                                 encoding="utf-8")

    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    for demo in sorted((root / "demos").glob("*.py")):
        directory = Path("demos", demo.stem)
        directory.mkdir(parents=True)
        proc = subprocess.run([sys.executable, str(demo)], cwd=directory, env=env,
                              capture_output=True, text=True)
        stdout = DURATION.sub("in <duration>", proc.stdout)
        stderr = proc.stderr.replace(str(root), "<root>")
        (directory / "run.txt").write_text(
            f"exit {proc.returncode}\n--- stdout\n{stdout}--- stderr\n{stderr}",
            encoding="utf-8")
    return 0


def export(rev: str, dest: Path) -> None:
    proc = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                          capture_output=True)
    if proc.returncode:
        sys.exit(f"git archive {rev} failed: {proc.stderr.decode(errors='replace').strip()}")
    with tarfile.open(fileobj=io.BytesIO(proc.stdout)) as tar:
        tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))


def differences(left: Path, right: Path, rev: str) -> list[str]:
    """Each file where the two output trees differ, with its first differing
    line, in file-name order."""
    def files(top: Path) -> set[str]:
        return {str(p.relative_to(top)) for p in top.rglob("*") if p.is_file()}

    names_left, names_right = files(left), files(right)
    found = []
    for name in sorted(names_left | names_right):
        if name not in names_right:
            found.append(f"{name}: written by {rev} only")
            continue
        if name not in names_left:
            found.append(f"{name}: written by the working tree only")
            continue
        a = (left / name).read_bytes().decode("utf-8", "replace").split("\n")
        b = (right / name).read_bytes().decode("utf-8", "replace").split("\n")
        if a == b:
            continue
        line = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
        header = next((a[i] for i in range(min(line, len(a) - 1), -1, -1)
                       if a[i].startswith("### ")), None)
        shown = [f"{name} line {line + 1}:"]
        if header:
            shown.append(f"  in {header[4:]}")
        for side, lines in ((rev, a), ("working tree", b)):
            text = repr(lines[line][:200]) if line < len(lines) else "(end of file)"
            shown.append(f"  {side}: {text}")
        found.append("\n".join(shown))
    return found


def main() -> int:
    if len(sys.argv) == 5 and sys.argv[1] == "--run-side":
        return run_side(*map(Path, sys.argv[2:]))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("rev", help="the revision to compare the working tree with")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="compare_outputs-") as work:
        work = Path(work)
        sides = {"rev": work / "rev", "tree": ROOT}
        export(args.rev, sides["rev"])
        (work / "data").mkdir()
        make_data(work / "data")
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1", "COLUMNS": COLUMNS}
        procs = {}
        for name, root in sides.items():
            (work / f"out-{name}").mkdir()
            with open(work / f"{name}.log", "w") as log:
                procs[name] = subprocess.Popen(
                    [sys.executable, str(Path(__file__).resolve()), "--run-side", str(root),
                     str(work / "data"), str(work / f"out-{name}")],
                    env=env, stdout=log, stderr=subprocess.STDOUT)
        for name, proc in procs.items():
            if proc.wait():
                side = args.rev if name == "rev" else "the working tree"
                sys.exit(f"the suite failed on {side}:\n{(work / f'{name}.log').read_text()}")
        found = differences(work / "out-rev", work / "out-tree", args.rev)
    print("\n".join(found) or "identical")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
