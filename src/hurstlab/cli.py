"""Command-line interface.

Subcommands:
  estimate     Hurst estimate(s) for a series file, JSON or CSV on stdout.
  simulate     Run the Monte Carlo grid, write report + plot-data files.
  expected-rs  Print the small-sample E(R/S)_n correction table.

Exit codes: 0 success, 2 input/parse error, 3 estimation/simulation error,
4 output I/O error. The master seed resolves as CLI flag, then the
HURSTLAB_SEED environment variable, then the built-in default; it must lie
in [0, 2**64 - 1], the range the stream derivation distinguishes.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .base import MAX_WINDOW_RULES, WindowPolicy
from .dfa import estimate_dfa
from .errors import (
    HurstLabError,
    InsufficientWindows,
    InvalidWindow,
    SeriesParseError,
)
from .montecarlo import (
    DEFAULT_ITERATION_COUNTS,
    DEFAULT_LAMBDAS,
    DEFAULT_SIZES,
    make_grid,
    run_grid,
)
from .report import (
    estimates_to_csv,
    estimates_to_json,
    plot_data_files,
    read_series_file,
    report_to_csv,
    report_to_json,
)
from .rs import estimate_rsal, expected_rs
from .series import SD_MODES, as_series
from .vtp import estimate_vtp

DEFAULT_SEED = 42
SEED_ENV_VAR = "HURSTLAB_SEED"
MAX_SEED = 2**64 - 1
MIN_CLI_OBSERVATIONS = 16
# expected-rs rows cost O(n) time and memory; the library function is unbounded.
MAX_EXPECTED_RS_N = 10**6
MAX_EXPECTED_RS_ROWS = 1000

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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; ``parse_args`` keeps no state
    in it between calls, and every default is immutable."""
    parser = argparse.ArgumentParser(
        prog="hurstlab",
        description="Hurst exponent estimation and Monte Carlo comparison",
    )
    parser.add_argument("--version", action="version", version=f"hurstlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="estimate H from a series file")
    est.add_argument("input", help="series file: one observation per line, '#' comments")
    est.add_argument("--method", choices=("rsal", "dfa", "vtp", "all"), default="all")
    est.add_argument("--format", choices=("json", "csv"), default="json")
    _policy_options(est)
    est.set_defaults(func=cmd_estimate)

    sim = sub.add_parser("simulate", help="run the Monte Carlo comparison grid")
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

    exp = sub.add_parser("expected-rs", help="print E(R/S)_n correction values")
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


def _build_policy(args) -> WindowPolicy:
    try:
        return WindowPolicy(min_window=args.min_window,
                            max_window_rule=args.max_window_rule)
    except ValueError as exc:
        raise _InputError(str(exc)) from None


def cmd_estimate(args) -> int:
    policy = _build_policy(args)
    try:
        values = read_series_file(args.input)
    except OSError as exc:
        print(f"hurstlab: cannot read {args.input}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if values.size < MIN_CLI_OBSERVATIONS:
        raise InsufficientWindows(
            f"series of length {values.size} is below the CLI minimum of "
            f"{MIN_CLI_OBSERVATIONS} observations"
        )
    series = as_series(values)

    runners = {
        "rsal": lambda: estimate_rsal(series, policy, args.sd_mode),
        "dfa": lambda: estimate_dfa(series, policy),
        "vtp": lambda: estimate_vtp(series, divisors_only=args.vtp_divisors_only),
    }
    wanted = ("rsal", "dfa", "vtp") if args.method == "all" else (args.method,)
    # A series whose squares exceed the float64 range would otherwise give
    # NaN or meaningless estimates with exit 0.
    try:
        with np.errstate(over="raise"):
            results = [runners[name]() for name in wanted]
    except FloatingPointError as exc:
        print(f"hurstlab: {exc}: the series values are too large to estimate "
              "in float64 arithmetic", file=sys.stderr)
        return EXIT_ESTIMATION

    options = {
        "method": args.method,
        "min_window": policy.min_window,
        "max_window_rule": policy.max_window_rule,
        "sd_mode": args.sd_mode,
        "vtp_divisors_only": args.vtp_divisors_only,
    }
    if args.format == "json":
        sys.stdout.write(
            estimates_to_json(results, args.input, series.shape[0], options)
        )
    else:
        sys.stdout.write(estimates_to_csv(results))
    return EXIT_OK


def cmd_simulate(args) -> int:
    policy = _build_policy(args)
    seed = _resolve_seed(args.seed)
    try:
        cells = make_grid(args.lambdas, args.sizes, args.iteration_counts)
    except ValueError as exc:
        raise _InputError(str(exc)) from None
    report = run_grid(
        cells, seed, policy,
        sd_mode=args.sd_mode,
        vtp_divisors_only=args.vtp_divisors_only,
    )

    out = Path(args.out) if args.out else Path(f"hurst_report.{args.format}")
    body = report_to_json(report) if args.format == "json" else report_to_csv(report)
    try:
        out.write_text(body, encoding="utf-8")
        written = [out]
        for name, content in plot_data_files(report).items():
            path = out.parent / name
            path.write_text(content, encoding="utf-8")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SeriesParseError, _InputError) as exc:
        print(f"hurstlab: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except HurstLabError as exc:
        print(f"hurstlab: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ESTIMATION


if __name__ == "__main__":
    sys.exit(main())
