"""Command-line interface.

Subcommands:
  estimate     Hurst estimate(s) for a series file, JSON or CSV on stdout.
  simulate     Run the Monte Carlo grid, write report + plot-data files.
  expected-rs  Print the small-sample E(R/S)_n correction table.

Exit codes: 0 success, 2 invalid input (found from the input's length and
range and the options alone), 3 data the estimators cannot handle, 4 output
I/O error. The master seed resolves as CLI flag, then the HURSTLAB_SEED
environment variable, then the built-in default; it must lie in
[0, 2**64 - 1], the range the stream derivation distinguishes.

simulate writes its report and, beside it, one plot-data CSV per (method,
iteration count). Two outputs that are one file, by name, symlink or hard
link, exit 2 before any cell runs; :func:`_write_output` writes each.

A call builds the options of its own subcommand only, and only simulate
imports the grid (:mod:`hurstlab.montecarlo`) and, through it, the sampler:
``estimate`` loads the estimators, :mod:`hurstlab.methods` and
:mod:`hurstlab.report` alone.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from . import __version__
from .base import MAX_WINDOW_RULES, WindowPolicy
from .dfa import dfa_plan
from .errors import (
    HurstLabError,
    InsufficientWindows,
    InvalidWindow,
    SeriesError,
)
from .methods import METHODS
from .report import (
    estimates_to_csv,
    estimates_to_json,
    plot_data_files,
    plot_data_name,
    read_series_file,
    report_to_csv,
    report_to_json,
)
from .rs import expected_rs
from .series import SD_MODES, as_series

DEFAULT_SEED = 42
SEED_ENV_VAR = "HURSTLAB_SEED"
MAX_SEED = 2**64 - 1
# expected-rs rows cost O(n) time and memory; the library function is unbounded.
MAX_EXPECTED_RS_N = 10**6
MAX_EXPECTED_RS_ROWS = 1000
# An iteration's time grows as N log N (VTP's blocks); at this length one takes
# about 40 ms through the three estimators, and VTP's working arrays, which
# grow as N, peak near 3.5 MiB (BENCH_27.json, 1 x 65536 cold).
MAX_SIMULATE_SIZE = 65536
# A cell holds three float64 estimates per iteration (24 MB at this count)
# and takes about 100 s at N = 128; far larger counts fail to allocate.
MAX_SIMULATE_ITERATIONS = 10**6

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_ESTIMATION = 3
EXIT_IO = 4


def _policy_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--min-window", type=int, default=2,
                        help="smallest subseries length used (default 2)")
    parser.add_argument("--max-window-rule", choices=MAX_WINDOW_RULES,
                        default="half-N",
                        help="largest window: N/2 or N itself (default half-N)")
    parser.add_argument("--sd-mode", choices=sorted(SD_MODES), default="sample",
                        help="standard-deviation denominator for R/S (default sample)")
    parser.add_argument("--vtp-divisors-only", action="store_true",
                        help="restrict VTP block sizes to divisors of N")


COMMANDS = ("estimate", "simulate", "expected-rs")


@functools.lru_cache(maxsize=len(COMMANDS) + 1)
def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI parser, built once per process and command; ``parse_args``
    keeps no state in it between calls, and every default is immutable.

    Every subcommand has its parser, so the top-level usage and help stay
    whole, but only *command*'s takes its options; ``None`` gives every
    subcommand its options, for an argument list that does not start with
    one. ``simulate``'s options load the grid's defaults."""
    parser = argparse.ArgumentParser(
        prog="hurstlab",
        description="Hurst exponent estimation and Monte Carlo comparison",
    )
    parser.add_argument("--version", action="version", version=f"hurstlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    est = sub.add_parser("estimate", help="estimate H from a series file")
    sim = sub.add_parser("simulate", help="run the Monte Carlo comparison grid")
    exp = sub.add_parser("expected-rs", help="print E(R/S)_n correction values")

    if command in ("estimate", None):
        est.add_argument("input", help="series file: one observation per line, '#' comments")
        est.add_argument("--method", choices=[*map(str.lower, METHODS), "all"], default="all")
        est.add_argument("--format", choices=("json", "csv"), default="json")
        _policy_options(est)
        est.set_defaults(func=cmd_estimate)

    if command in ("simulate", None):
        from .montecarlo import DEFAULT_ITERATION_COUNTS, DEFAULT_LAMBDAS, DEFAULT_SIZES

        sim.add_argument("--lambdas", type=float, nargs="+", default=DEFAULT_LAMBDAS)
        sim.add_argument("--sizes", type=int, nargs="+", default=DEFAULT_SIZES)
        sim.add_argument("--iteration-counts", type=int, nargs="+",
                         default=DEFAULT_ITERATION_COUNTS)
        sim.add_argument("--seed", type=int, default=None,
                         help=f"master seed (default: ${SEED_ENV_VAR} or {DEFAULT_SEED})")
        sim.add_argument("--out", default=None,
                         help="report path (default hurst_report.<format>)")
        sim.add_argument("--format", choices=("json", "csv"), default="json")
        _policy_options(sim)
        sim.set_defaults(func=cmd_simulate)

    if command in ("expected-rs", None):
        exp.add_argument("n", help="window length or inclusive range, e.g. 16 or 338..342")
        exp.set_defaults(func=cmd_expected_rs)

    return parser


class _InputError(HurstLabError):
    """Bad flag/environment value; maps to the input-error exit code."""


def _resolve_seed(flag_value: int | None) -> int:
    if flag_value is not None:
        seed, source = flag_value, "--seed"
    else:
        env = os.environ.get(SEED_ENV_VAR)
        if env is None:
            return DEFAULT_SEED
        try:
            seed, source = int(env), SEED_ENV_VAR
        except ValueError:
            raise _InputError(f"{SEED_ENV_VAR}={env!r} is not an integer") from None
    if not 0 <= seed <= MAX_SEED:
        raise _InputError(f"{source} {seed} is outside [0, 2**64 - 1]")
    return seed


def cmd_estimate(args) -> int:
    policy = WindowPolicy(args.min_window, args.max_window_rule)
    try:
        values = read_series_file(args.input)
    except OSError as exc:
        print(f"hurstlab: cannot read {args.input}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    values = as_series(values)
    wanted = METHODS if args.method == "all" else [args.method.upper()]
    results = [METHODS[name](values[None, :], policy, args.sd_mode,
                             args.vtp_divisors_only).result() for name in wanted]

    options = {
        "method": args.method,
        "min_window": policy.min_window,
        "max_window_rule": policy.max_window_rule,
        "sd_mode": args.sd_mode,
        "vtp_divisors_only": args.vtp_divisors_only,
    }
    if args.format == "json":
        sys.stdout.write(
            estimates_to_json(results, args.input, values.size, options)
        )
    else:
        sys.stdout.write(estimates_to_csv(results))
    return EXIT_OK


def _write_output(path: Path, text: str) -> None:
    """Write ``text`` as UTF-8 with ``\\n`` line ends, on every system, over
    the file at ``path``, creating it if missing. An existing file keeps its
    mode and links: the new bytes go over the old, and a longer old tail is
    cut off. It is never truncated to zero first, because ext4 starts
    writeback at close() of a file truncated and rewritten that way
    (auto_da_alloc, ext4(5)), which cost more than the writes. Outputs are
    not fsynced: one written just before a crash may hold a mix of old and
    new blocks, unmarked, so regenerate it from its seed."""
    data = text.encode("utf-8")
    # O_BINARY (Windows only) keeps the bytes as given, without \r added.
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    try:
        # A FIFO or device reports size 0, so it is never truncated.
        old_size = os.fstat(fd).st_size
        # os.write may write less than it is given: a pipe, say, or a signal
        rest = memoryview(data)
        while rest:
            rest = rest[os.write(fd, rest):]
        if old_size > len(data):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _check_distinct_outputs(out: Path, plot_paths: list[Path]) -> None:
    """Raise before any cell runs if two of simulate's outputs are one file,
    by name, symlink or hard link; one write would lose the other. A path is
    known by the file it reaches, or, when os.stat cannot follow it (new, a
    dangling symlink, a loop, a name over NAME_MAX), by where its name
    leads. realpath returns on any such error, so a path that cannot be
    opened exits 4 at its write, not here."""
    seen = {}
    for path in [out, *plot_paths]:
        try:
            st = os.stat(path)
            identity = st.st_dev, st.st_ino
        except OSError:
            identity = os.path.realpath(path)
        first = seen.setdefault(identity, path)
        if first is not path:
            raise _InputError(f"--out {out} is also the path of a plot-data file"
                              if first is out else
                              f"plot-data files {first} and {path} are the same file")


def cmd_simulate(args) -> int:
    from .montecarlo import make_grid, run_grid

    policy = WindowPolicy(args.min_window, args.max_window_rule)
    seed = _resolve_seed(args.seed)
    try:
        cells = make_grid(args.lambdas, args.sizes, args.iteration_counts)
    except ValueError as exc:
        raise _InputError(str(exc)) from None
    for size in args.sizes:
        if size > MAX_SIMULATE_SIZE:
            raise _InputError(f"size {size} is above the limit of {MAX_SIMULATE_SIZE}")
        # DFA's window set is the smallest: R/Sal and VTP have 2 scales where it has 2
        dfa_plan(size, policy)
    too_many = [n for n in args.iteration_counts if n > MAX_SIMULATE_ITERATIONS]
    if too_many:
        raise _InputError(f"iteration count {too_many[0]} is above the limit of "
                          f"{MAX_SIMULATE_ITERATIONS}")
    out = Path(args.out) if args.out else Path(f"hurst_report.{args.format}")
    # built once: the same Path objects are checked, written and printed
    plot_paths = {name: out.parent / name for name in
                  (plot_data_name(method, n) for n in args.iteration_counts for method in METHODS)}
    _check_distinct_outputs(out, list(plot_paths.values()))
    report = run_grid(
        cells, seed, policy,
        sd_mode=args.sd_mode,
        vtp_divisors_only=args.vtp_divisors_only,
    )

    body = report_to_json(report) if args.format == "json" else report_to_csv(report)
    try:
        _write_output(out, body)
        written = [out]
        for name, content in plot_data_files(report).items():
            path = plot_paths[name]
            _write_output(path, content)
            written.append(path)
    except OSError as exc:
        print(f"hurstlab: cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO

    print(
        f"hurstlab: {len(report.cells)} cell(s) in "
        f"{report.metadata.duration_seconds:.1f}s; wrote "
        + ", ".join(str(p) for p in written),
        file=sys.stderr,
    )
    return EXIT_OK


def _parse_n_range(text: str) -> range:
    lo, sep, hi = text.partition("..")
    first = int(lo)
    last = int(hi) if sep else first
    if last < first:
        raise ValueError(f"empty range {text!r}")
    if last > MAX_EXPECTED_RS_N:
        raise ValueError(f"n={last} is above the limit of {MAX_EXPECTED_RS_N}")
    if last - first >= MAX_EXPECTED_RS_ROWS:
        raise ValueError(f"range {text!r} has {last - first + 1} rows, "
                         f"above the limit of {MAX_EXPECTED_RS_ROWS}")
    return range(first, last + 1)


def cmd_expected_rs(args) -> int:
    try:
        ns = _parse_n_range(args.n)
        rows = [(n, expected_rs(n)) for n in ns]
    except (ValueError, InvalidWindow) as exc:
        print(f"hurstlab: invalid n: {exc}", file=sys.stderr)
        return EXIT_INPUT
    print("n,expected_rs")
    for n, value in rows:
        print(f"{n},{value:.10g}")
    return EXIT_OK


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SeriesError, InsufficientWindows, InvalidWindow, _InputError) as exc:
        print(f"hurstlab: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except HurstLabError as exc:
        print(f"hurstlab: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ESTIMATION


if __name__ == "__main__":
    sys.exit(main())
