import json
import os
import stat
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from hurstlab.cli import (
    COMMANDS,
    MAX_EXPECTED_RS_N,
    MAX_EXPECTED_RS_ROWS,
    MAX_SIMULATE_ITERATIONS,
    MAX_SIMULATE_SIZE,
    _write_output,
    build_parser,
    main,
)
from hurstlab.montecarlo import METHODS
from hurstlab.sampling import ExponentialSpec, exponential_rows


@pytest.fixture
def series_file(tmp_path):
    def make(length=1024, lam=1.5, seed=77, name="series.txt"):
        sample = exponential_rows(seed, 0, 0, 1, ExponentialSpec(lam, length))[0]
        path = tmp_path / name
        path.write_text("# seeded exponential draws\n" + "\n".join(f"{x:.17g}" for x in sample) + "\n")
        return path

    return make


class TestEstimate:
    def test_rsal_band_on_exponential_file(self, series_file, capsys):
        assert main(["estimate", str(series_file()), "--method", "rsal"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n_observations"] == 1024
        (result,) = doc["results"]
        assert result["method"] == "RSAL"
        assert 0.43 <= result["hurst"] <= 0.57
        assert len(result["points"]) == 9  # divisors of 1024 in [2, 512]

    def test_all_matches_single_method_runs(self, series_file, capsys):
        path = series_file(length=256)
        assert main(["estimate", str(path), "--method", "all"]) == 0
        combined = json.loads(capsys.readouterr().out)
        hursts = {r["method"]: r["hurst"] for r in combined["results"]}
        assert list(hursts) == ["RSAL", "DFA", "VTP"]
        for method in METHODS:
            assert main(["estimate", str(path), "--method", method.lower()]) == 0
            (single,) = json.loads(capsys.readouterr().out)["results"]
            assert single["hurst"] == hursts[single["method"]]

    @pytest.mark.parametrize("method", ["dfa", "all"])
    def test_dfa_slope_above_one_warns_in_json_and_csv(self, tmp_path, capsys, method):
        # a doubly integrated Gaussian series: its DFA slope is above 1
        walk = np.cumsum(np.cumsum(np.random.default_rng(3).normal(size=4096)))
        path = tmp_path / "walk.txt"
        path.write_text("".join(f"{x!r}\n" for x in walk.tolist()))
        assert main(["estimate", str(path), "--method", method]) == 0
        (dfa,) = [r for r in json.loads(capsys.readouterr().out)["results"]
                  if r["method"] == "DFA"]
        assert dfa["fit"]["slope"] > 1.0
        assert dfa["warnings"] == ["NONSTATIONARY_OR_DETREND_FAIL"]
        assert main(["estimate", str(path), "--method", method, "--format", "csv"]) == 0
        header, *summary = capsys.readouterr().out.split("# points")[0].splitlines()
        rows = {row.split(",")[0]: dict(zip(header.split(","), row.split(",")))
                for row in summary}
        assert rows["DFA"]["warnings"] == "NONSTATIONARY_OR_DETREND_FAIL"

    def test_csv_matches_json_values(self, series_file, capsys):
        path = series_file(length=128)
        assert main(["estimate", str(path), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert main(["estimate", str(path), "--format", "csv"]) == 0
        csv_out = capsys.readouterr().out
        summary = csv_out.splitlines()[1].split(",")
        assert summary[0] == "RSAL"
        assert float(summary[1]) == pytest.approx(doc["results"][0]["hurst"], rel=1e-5)

    def test_parse_error_names_line(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("1\n2\n3\n4\n5\n6\noops\n")
        assert main(["estimate", str(path)]) == 2
        assert "line 7" in capsys.readouterr().err

    def test_invalid_utf8_names_line(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"1.0\n2.0\n\xff\xfe3\n")
        assert main(["estimate", str(path)]) == 2
        assert capsys.readouterr().err == (
            "hurstlab: line 3: not UTF-8 text (invalid start byte 0xff)\n")

    def test_leading_byte_order_mark_skipped(self, series_file, tmp_path, capsys):
        path = series_file(length=256)
        assert main(["estimate", str(path)]) == 0
        plain = json.loads(capsys.readouterr().out)
        bom_path = tmp_path / "bom.txt"
        bom_path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes().split(b"\n", 1)[1])
        assert main(["estimate", str(bom_path)]) == 0
        with_bom = json.loads(capsys.readouterr().out)
        assert with_bom["results"] == plain["results"]

    def test_repeated_calls_in_one_process_are_independent(self, series_file, capsys):
        path = series_file(length=512)
        assert main(["estimate", str(path), "--method", "rsal"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(["estimate", str(path)]) == 0
        second = json.loads(capsys.readouterr().out)
        assert first["options"]["method"] == "rsal"
        assert second["options"]["method"] == "all"
        assert [r["method"] for r in first["results"]] == ["RSAL"]
        assert [r["method"] for r in second["results"]] == ["RSAL", "DFA", "VTP"]
        assert second["results"][0] == first["results"][0]

    def test_short_file_is_estimation_error(self, tmp_path, capsys):
        # DFA has one window at N = 8, so the input is invalid: exit 2
        path = tmp_path / "short.txt"
        path.write_text("\n".join(str(i + 1) for i in range(8)) + "\n")
        assert main(["estimate", str(path)]) == 2
        assert capsys.readouterr().err == (
            "hurstlab: policy yields 1 window(s) for N=8 (need >= 2; divisors of N in [4, 4])\n")

    def test_twelve_point_file_estimates(self, tmp_path, capsys):
        # the window policy alone decides whether a series is long enough
        path = tmp_path / "twelve.txt"
        sample = exponential_rows(5, 0, 0, 1, ExponentialSpec(1.0, 12))[0]
        path.write_text("".join(f"{x!r}\n" for x in sample.tolist()))
        assert main(["estimate", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [len(r["points"]) for r in doc["results"]] == [4, 2, 3]

    @pytest.mark.parametrize("method", ["all", "rsal", "dfa", "vtp"])
    def test_overflowing_squares_are_estimation_error(self, tmp_path, capsys, method):
        # finite values whose squares exceed the float64 range: as_series
        # rejects them before any estimate, so the exit code is 2
        sample = exponential_rows(5, 0, 0, 1, ExponentialSpec(1.0, 256))[0]
        path = tmp_path / "huge.txt"
        path.write_text("".join(f"{x!r}\n" for x in (sample * 1e200).tolist()))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["estimate", str(path), "--method", method]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("hurstlab: series: |x| up to ")
        assert err.endswith(" overflows float64 squares above 1.6367e+150 at N = 256\n")

    def test_failure_over_many_scales_is_one_short_line(self, tmp_path, capsys):
        # every one of the 8192 default block sizes fails; listing them all
        # took a 48100-byte line
        path = tmp_path / "constant.txt"
        path.write_text("2.5\n" * 32768)
        assert main(["estimate", str(path), "--method", "vtp"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "hurstlab: ZeroVariance: aggregated variance is 0 at 8192 of 8192 w in 1..8192\n"
        assert len(err.encode()) < 200

    @pytest.mark.parametrize("scale, rule", [(1e200, "|x| up to"), (1e154, "|x| up to"),
                                             (1e-170, "spread")])
    def test_out_of_range_series_exits_2(self, tmp_path, capsys, scale, rule):
        sample = np.random.default_rng(42).exponential(size=256) * scale
        path = tmp_path / "scaled.txt"
        path.write_text("".join(f"{x!r}\n" for x in sample.tolist()))
        assert main(["estimate", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"hurstlab: series: {rule} ")

    @pytest.mark.parametrize("command", ["estimate", "simulate"])
    def test_min_window_below_two_exits_2(self, series_file, capsys, monkeypatch, command):
        monkeypatch.setattr("hurstlab.montecarlo.run_cell", _no_cell_may_run)
        path = series_file(length=64)
        argv = ([command, str(path)] if command == "estimate" else
                [command, "--sizes", "64", "--out", str(path.parent / "r.json")])
        assert main([*argv, "--min-window", "1"]) == 2
        assert capsys.readouterr().err == "hurstlab: min_window must be >= 2, got 1\n"

    def test_missing_file(self, tmp_path, capsys):
        assert main(["estimate", str(tmp_path / "nope.txt")]) == 2

    def test_policy_flags_respected(self, series_file, capsys):
        path = series_file(length=256)
        assert main(["estimate", str(path), "--method", "rsal", "--min-window", "16"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [p["scale"] for p in doc["results"][0]["points"]] == [16, 32, 64, 128]
        assert doc["options"]["min_window"] == 16


def _no_cell_may_run(*args, **kwargs):
    raise AssertionError("a cell ran despite invalid input")


def _no_row_may_run(n):
    raise AssertionError(f"expected_rs({n}) ran despite invalid input")


class _GridReached(Exception):
    pass


class TestSimulate:
    def test_writes_report_and_plot_data(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        args = [
            "simulate", "--lambdas", "0.5", "--sizes", "64", "--iteration-counts", "5",
            "--seed", "7", "--out", str(out),
        ]
        assert main(args) == 0
        doc = json.loads(out.read_text())
        assert doc["metadata"]["master_seed"] == 7
        assert len(doc["cells"]) == 1
        assert (tmp_path / "hurst_vs_lambda_rsal_iter5.csv").exists()

        first = out.read_bytes()
        assert main(args) == 0
        assert out.read_bytes() == first

    def test_csv_format(self, tmp_path):
        out = tmp_path / "report.csv"
        assert main([
            "simulate", "--lambdas", "0.5", "--sizes", "64",
            "--iteration-counts", "5", "--out", str(out), "--format", "csv",
        ]) == 0
        assert out.read_text().startswith("# method=RSAL")

    def test_unviable_size_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("hurstlab.montecarlo.run_cell", _no_cell_may_run)
        assert main([
            "simulate", "--lambdas", "0.5", "--sizes", "12",
            "--iteration-counts", "3", "--out", str(tmp_path / "r.json"),
            "--min-window", "8",
        ]) == 2

    @pytest.mark.parametrize("sizes", [["3"], ["127"], ["128", "127"]],
                             ids=["3", "127", "128-127"])
    def test_size_without_windows_exits_2_before_any_cell(self, tmp_path, capsys,
                                                          monkeypatch, sizes):
        # every size's DFA window set is checked before any cell runs
        monkeypatch.setattr("hurstlab.montecarlo.run_cell", _no_cell_may_run)
        out = tmp_path / "r.json"
        assert main([
            "simulate", "--lambdas", "0.5", "--sizes", *sizes,
            "--iteration-counts", "3", "--out", str(out),
        ]) == 2
        size = int(sizes[-1])
        assert capsys.readouterr().err == (
            f"hurstlab: policy yields 0 window(s) for N={size} "
            f"(need >= 2; divisors of N in [4, {size // 2}])\n")
        assert not out.exists()

    @pytest.mark.parametrize("lambdas, message", [
        (["0.5", "1", "2", "1e308"], "Exponential(1e+308) draws: spread 4.94066e-324 "
                                     "underflows float64 squares below 2**-458"),
        (["1e-320"], "Exponential(1e-320) draws: |x| up to inf overflows float64 "
                     "squares above 4.62927e+150 at N = 128"),
        (["5e140"], "Exponential(5e+140) draws: spread 2.22045e-157 "
                    "underflows float64 squares below 2**-458"),
    ])
    def test_rate_out_of_range_exits_2_before_any_cell(self, tmp_path, capsys, monkeypatch,
                                                       lambdas, message):
        monkeypatch.setattr("hurstlab.montecarlo.run_cell", _no_cell_may_run)
        out = tmp_path / "r.json"
        assert main(["simulate", "--lambdas", *lambdas, "--iteration-counts", "1000",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"hurstlab: {message}\n"
        assert not out.exists()

    def test_unwritable_output_exits_4(self, tmp_path):
        out = tmp_path / "missing-dir" / "report.json"
        assert main([
            "simulate", "--lambdas", "0.5", "--sizes", "64",
            "--iteration-counts", "3", "--out", str(out),
        ]) == 4

    def test_seed_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HURSTLAB_SEED", "123")
        out = tmp_path / "report.json"
        assert main([
            "simulate", "--lambdas", "0.5", "--sizes", "64",
            "--iteration-counts", "3", "--out", str(out),
        ]) == 0
        assert json.loads(out.read_text())["metadata"]["master_seed"] == 123

    def test_flag_overrides_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HURSTLAB_SEED", "123")
        out = tmp_path / "report.json"
        assert main([
            "simulate", "--lambdas", "0.5", "--sizes", "64",
            "--iteration-counts", "3", "--seed", "9", "--out", str(out),
        ]) == 0
        assert json.loads(out.read_text())["metadata"]["master_seed"] == 9

    @pytest.mark.parametrize("flag, value", [
        ("--iteration-counts", "0"),
        ("--lambdas", "-1"),
        ("--sizes", "1"),
    ])
    def test_invalid_grid_exits_2_before_any_cell(self, tmp_path, capsys, monkeypatch,
                                                  flag, value):
        monkeypatch.setattr("hurstlab.montecarlo.run_cell", _no_cell_may_run)
        args = {"--lambdas": "0.5", "--sizes": "64", "--iteration-counts": "3"}
        args[flag] = value
        argv = ["simulate", "--out", str(tmp_path / "r.json")]
        for name, text in args.items():
            argv += [name, text]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("hurstlab: ") and err.count("\n") == 1
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("flag, values", [
        ("--lambdas", ["1", "1.0"]),
        ("--sizes", ["128", "64", "128"]),
        ("--iteration-counts", ["5", "5"]),
    ])
    def test_repeated_grid_value_exits_2(self, tmp_path, capsys, monkeypatch, flag,
                                         values):
        # the report keys cells by their coordinates: a repeated cell would
        # silently replace the other in the CSV and plot-data files
        monkeypatch.setattr("hurstlab.montecarlo.run_cell", _no_cell_may_run)
        args = {"--lambdas": ["0.5"], "--sizes": ["64"], "--iteration-counts": ["3"]}
        args[flag] = values
        argv = ["simulate", "--out", str(tmp_path / "r.json")]
        for name, texts in args.items():
            argv += [name, *texts]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"hurstlab: {flag[2:].replace('-', '_')} repeats a value")
        assert err.count("\n") == 1
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("size", [MAX_SIMULATE_SIZE + 1, 10**9])
    def test_size_limit_exits_2_before_any_plan(self, tmp_path, capsys, monkeypatch, size):
        # the limit is checked before any cell runs, so no plan is built
        monkeypatch.setattr("hurstlab.montecarlo.run_cell", _no_cell_may_run)
        assert main([
            "simulate", "--lambdas", "0.5", "--sizes", "64", str(size),
            "--iteration-counts", "3", "--out", str(tmp_path / "r.json"),
        ]) == 2
        assert capsys.readouterr().err == (
            f"hurstlab: size {size} is above the limit of {MAX_SIMULATE_SIZE}\n")
        assert not (tmp_path / "r.json").exists()

    def test_size_limit_is_inclusive(self, tmp_path, monkeypatch):
        def reached(cells, *args, **kwargs):
            raise _GridReached(cells)

        monkeypatch.setattr("hurstlab.montecarlo.run_grid", reached)
        with pytest.raises(_GridReached) as grid:
            main(["simulate", "--lambdas", "0.5", "--sizes", str(MAX_SIMULATE_SIZE),
                  "--iteration-counts", "3", "--out", str(tmp_path / "r.json")])
        assert [cell.length for cell in grid.value.args[0]] == [MAX_SIMULATE_SIZE]

    @pytest.mark.parametrize("count", [MAX_SIMULATE_ITERATIONS + 1, 10**13])
    def test_iteration_limit_exits_2_before_any_cell(self, tmp_path, capsys, monkeypatch,
                                                     count):
        # a cell allocates its estimates, three per iteration, before any draw
        monkeypatch.setattr("hurstlab.montecarlo.run_grid", _no_cell_may_run)
        assert main([
            "simulate", "--lambdas", "0.5", "--sizes", "64",
            "--iteration-counts", "3", str(count), "--out", str(tmp_path / "r.json"),
        ]) == 2
        assert capsys.readouterr().err == (
            f"hurstlab: iteration count {count} is above the limit of "
            f"{MAX_SIMULATE_ITERATIONS}\n")
        assert not (tmp_path / "r.json").exists()

    def test_iteration_limit_is_inclusive(self, tmp_path, monkeypatch):
        def reached(cells, *args, **kwargs):
            raise _GridReached(cells)

        # the stub stands in for the grid: no cell of this size runs here
        monkeypatch.setattr("hurstlab.montecarlo.run_grid", reached)
        with pytest.raises(_GridReached) as grid:
            main(["simulate", "--lambdas", "0.5", "--sizes", "64", "--iteration-counts",
                  str(MAX_SIMULATE_ITERATIONS), "--out", str(tmp_path / "r.json")])
        assert [cell.iterations for cell in grid.value.args[0]] == [MAX_SIMULATE_ITERATIONS]

    def test_negative_seed_flag_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("hurstlab.montecarlo.run_cell", _no_cell_may_run)
        assert main([
            "simulate", "--lambdas", "0.5", "--sizes", "64",
            "--iteration-counts", "3", "--seed", "-1", "--out", str(tmp_path / "r.json"),
        ]) == 2
        assert "--seed -1" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-1", str(2**64)])
    def test_out_of_range_environment_seed_exits_2(self, tmp_path, capsys, monkeypatch,
                                                   value):
        monkeypatch.setattr("hurstlab.montecarlo.run_cell", _no_cell_may_run)
        monkeypatch.setenv("HURSTLAB_SEED", value)
        assert main([
            "simulate", "--lambdas", "0.5", "--sizes", "64",
            "--iteration-counts", "3", "--out", str(tmp_path / "r.json"),
        ]) == 2
        assert f"HURSTLAB_SEED {value}" in capsys.readouterr().err

    def test_bad_environment_seed_exits_2(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HURSTLAB_SEED", "not-a-seed")
        assert main([
            "simulate", "--lambdas", "0.5", "--sizes", "64",
            "--iteration-counts", "3", "--out", str(tmp_path / "r.json"),
        ]) == 2


def _small_grid(out, *extra):
    return ["simulate", "--lambdas", "0.5", "1.5", "--sizes", "64", "--iteration-counts",
            "3", "--seed", "11", "--out", str(out), *extra]


def _tree_bytes(directory):
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


class TestSimulateOutputFiles:
    @pytest.mark.parametrize("old", [b"", b"x" * 5000], ids=["new", "longer"])
    def test_short_writes_are_finished(self, tmp_path, monkeypatch, old):
        path = tmp_path / "out.json"
        if old:
            path.write_bytes(old)
        text = "".join(f"line {i}: \u00e9\n" for i in range(300))
        real_write = os.write
        calls = []

        def write_at_most_7(fd, data):
            calls.append(len(data))
            return real_write(fd, bytes(data[:7]))

        with monkeypatch.context() as patch:
            patch.setattr(os, "write", write_at_most_7)
            _write_output(path, text)
        data = text.encode("utf-8")
        assert path.read_bytes() == data
        assert len(calls) == -(-len(data) // 7)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("junk", [b"x" * 100_000, b"short\n", b""],
                             ids=["longer", "shorter", "empty"])
    def test_rewrite_over_existing_files_equals_fresh_run(self, tmp_path, fmt, junk):
        fresh, rerun = tmp_path / "fresh", tmp_path / "rerun"
        fresh.mkdir()
        rerun.mkdir()
        assert main(_small_grid(fresh / f"r.{fmt}", "--format", fmt)) == 0
        reference = tmp_path / "reference"
        reference.write_text("")
        for path in fresh.iterdir():
            assert path.stat().st_mode == reference.stat().st_mode
        for name in _tree_bytes(fresh):
            (rerun / name).write_bytes(junk)
        assert main(_small_grid(rerun / f"r.{fmt}", "--format", fmt)) == 0
        assert _tree_bytes(rerun) == _tree_bytes(fresh)
        assert len(_tree_bytes(fresh)) == 4

    @pytest.mark.skipif(not hasattr(os, "symlink"), reason="needs symlinks")
    def test_symlinked_and_hard_linked_report_written_through(self, tmp_path):
        assert main(_small_grid(tmp_path / "fresh.json")) == 0
        expected = (tmp_path / "fresh.json").read_bytes()
        target = tmp_path / "data" / "report.json"
        target.parent.mkdir()
        target.write_bytes(b"x" * 100_000)
        target.chmod(0o640)
        os.link(target, tmp_path / "hard.json")
        link = tmp_path / "link.json"
        link.symlink_to(target)
        assert main(_small_grid(link)) == 0
        assert link.is_symlink()
        assert target.read_bytes() == expected
        assert (tmp_path / "hard.json").read_bytes() == expected
        assert stat.S_IMODE(target.stat().st_mode) == 0o640

    @pytest.mark.parametrize("kind", ["directory", "symlink-loop", "name-too-long"])
    def test_unopenable_out_exits_4(self, tmp_path, capsys, kind):
        out = tmp_path / "report.json"
        if kind == "directory":
            out.mkdir()
        elif kind == "symlink-loop":
            out.symlink_to(out)
        else:
            # over NAME_MAX, so even lstat of the name fails
            out = tmp_path / ("r" * 300 + ".json")
        assert main(_small_grid(out)) == 4
        assert "cannot write output" in capsys.readouterr().err

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
    def test_fifo_out_receives_whole_report(self, tmp_path):
        assert main(_small_grid(tmp_path / "fresh.json")) == 0
        fifo = tmp_path / "pipe.json"
        os.mkfifo(fifo)
        received = []

        def read():
            with open(fifo, "rb") as reader:
                received.append(reader.read())

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        # truncate() on a FIFO fails, which would exit 4
        assert main(_small_grid(fifo)) == 0
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert received == [(tmp_path / "fresh.json").read_bytes()]

    @pytest.mark.parametrize("fmt, name", [
        ("json", "hurst_vs_lambda_vtp_iter3.csv"),
        ("csv", "hurst_vs_lambda_rsal_iter10.csv"),
    ])
    def test_out_naming_a_plot_file_exits_2_before_any_cell(self, tmp_path, capsys,
                                                           monkeypatch, fmt, name):
        monkeypatch.setattr("hurstlab.montecarlo.run_cell", _no_cell_may_run)
        out = tmp_path / name
        assert main(["simulate", "--lambdas", "0.5", "--sizes", "64", "--iteration-counts",
                     "3", "10", "--format", fmt, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"hurstlab: --out {out} is also the path of a plot-data file\n")
        assert not out.exists()

    @pytest.mark.skipif(not hasattr(os, "symlink"), reason="needs symlinks")
    def test_out_linked_to_a_plot_file_exits_2(self, tmp_path, monkeypatch):
        monkeypatch.setattr("hurstlab.montecarlo.run_cell", _no_cell_may_run)
        link = tmp_path / "report.json"
        link.symlink_to(tmp_path / "hurst_vs_lambda_dfa_iter3.csv")
        assert main(_small_grid(link)) == 2

    @pytest.mark.skipif(not hasattr(os, "symlink"), reason="needs symlinks")
    @pytest.mark.parametrize("kind", ["symlink", "hard link"])
    def test_plot_file_linked_to_out_exits_2_before_any_cell(self, tmp_path, capsys,
                                                             monkeypatch, kind):
        monkeypatch.setattr("hurstlab.montecarlo.run_cell", _no_cell_may_run)
        out = tmp_path / "report.json"
        out.write_bytes(b"old report")
        plot = tmp_path / "hurst_vs_lambda_vtp_iter3.csv"
        if kind == "symlink":
            plot.symlink_to(out)
        else:
            os.link(out, plot)
        assert main(_small_grid(out)) == 2
        assert capsys.readouterr().err == (
            f"hurstlab: --out {out} is also the path of a plot-data file\n")
        assert out.read_bytes() == b"old report"

    def test_hard_linked_plot_files_exit_2_before_any_cell(self, tmp_path, capsys,
                                                           monkeypatch):
        monkeypatch.setattr("hurstlab.montecarlo.run_cell", _no_cell_may_run)
        rsal = tmp_path / "hurst_vs_lambda_rsal_iter3.csv"
        dfa = tmp_path / "hurst_vs_lambda_dfa_iter3.csv"
        rsal.write_bytes(b"old plot")
        os.link(rsal, dfa)
        assert main(_small_grid(tmp_path / "report.json")) == 2
        assert capsys.readouterr().err == (
            f"hurstlab: plot-data files {rsal} and {dfa} are the same file\n")
        assert rsal.read_bytes() == b"old plot"
        assert not (tmp_path / "report.json").exists()


class TestExpectedRs:
    def test_single_value(self, capsys):
        assert main(["expected-rs", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,expected_rs"
        n, value = lines[1].split(",")
        assert n == "2"
        assert float(value) == pytest.approx(0.75, abs=1e-10)

    def test_range_spans_branch_seam(self, capsys):
        assert main(["expected-rs", "338..342"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()[1:]]
        values = [float(v) for _, v in rows]
        assert len(values) == 5
        # increasing everywhere except the formula's 340 -> 341 branch
        # switch, and no step anywhere near 1% in magnitude
        steps = [b / a - 1.0 for a, b in zip(values, values[1:])]
        assert all(abs(s) < 0.01 for s in steps)
        assert steps[0] > 0 and steps[1] > 0 and steps[3] > 0
        assert abs(steps[2]) < 0.005

    def test_invalid_n_exits_2(self, capsys):
        assert main(["expected-rs", "1"]) == 2
        assert main(["expected-rs", "notanumber"]) == 2
        assert main(["expected-rs", "10..4"]) == 2

    @pytest.mark.parametrize("text, message", [
        (str(MAX_EXPECTED_RS_N + 1), "above the limit of"),
        ("99999999999", "above the limit of"),
        ("2..100000000", "above the limit of"),
        (f"2..{MAX_EXPECTED_RS_ROWS + 2}", f"{MAX_EXPECTED_RS_ROWS + 1} rows"),
    ])
    def test_limits_exit_2_before_any_row(self, capsys, monkeypatch, text, message):
        monkeypatch.setattr("hurstlab.cli.expected_rs", _no_row_may_run)
        assert main(["expected-rs", text]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("hurstlab: invalid n: ")
        assert message in captured.err and captured.err.count("\n") == 1

    @pytest.mark.parametrize("text", [
        str(MAX_EXPECTED_RS_N), f"2..{MAX_EXPECTED_RS_ROWS + 1}",
    ])
    def test_limits_are_inclusive(self, capsys, monkeypatch, text):
        monkeypatch.setattr("hurstlab.cli.expected_rs", lambda n: 1.0)
        assert main(["expected-rs", text]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == (1 if ".." not in text else MAX_EXPECTED_RS_ROWS)


class TestParserPerCommand:
    @pytest.mark.parametrize("argv", [
        ["estimate", "series.txt"],
        ["estimate", "series.txt", "--method", "dfa", "--format", "csv", "--min-window", "4",
         "--max-window-rule", "full-N", "--sd-mode", "population", "--vtp-divisors-only"],
        ["simulate"],
        ["simulate", "--lambdas", "0.5", "2", "--sizes", "64", "--iteration-counts", "3",
         "--seed", "9", "--out", "r.csv", "--format", "csv", "--vtp-divisors-only"],
        ["expected-rs", "338..342"],
    ])
    def test_one_command_parses_as_the_full_parser(self, argv):
        assert build_parser(argv[0]).parse_args(argv) == build_parser(None).parse_args(argv)

    @pytest.mark.parametrize("argv", [
        *([command, "--help"] for command in COMMANDS),
        ["estimate"], ["estimate", "f", "--method", "mle"], ["simulate", "--sizes", "x"],
        ["expected-rs"], ["estimate", "f", "--lambdas", "1"], ["simulate", "--bogus"],
    ])
    def test_one_command_prints_as_the_full_parser(self, capsys, argv):
        with pytest.raises(SystemExit) as one:
            main(argv)
        printed = capsys.readouterr()
        with pytest.raises(SystemExit) as full:
            build_parser(None).parse_args(argv)
        assert capsys.readouterr() == printed and printed.out + printed.err
        assert one.value.code == full.value.code


def _fresh_python(code: str, *args: str) -> str:
    """Run *code* in a fresh interpreter that imports hurstlab from this
    checkout's ``src``; returns its stdout."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestColdStart:
    def test_estimate_loads_neither_the_grid_nor_the_sampler(self, series_file):
        code = (
            "import contextlib, io, json, sys\n"
            "from hurstlab.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
            "    code = main(['estimate', sys.argv[1]])\n"
            "names = ('hurstlab.montecarlo', 'hurstlab.sampling', 'numpy.random')\n"
            "print(json.dumps([code, len(json.loads(out.getvalue())['results']),\n"
            "                  [name for name in names if name in sys.modules]]))\n"
        )
        assert json.loads(_fresh_python(code, str(series_file(length=256)))) == [0, 3, []]

    def test_every_exported_name_loads_on_access(self):
        code = (
            "import json, sys\n"
            "import hurstlab\n"
            "loaded = sorted(m for m in ('hurstlab.montecarlo', 'hurstlab.sampling')\n"
            "                if m in sys.modules)\n"
            "listed = dir(hurstlab)\n"
            "star = {}\n"
            "exec('from hurstlab import *', star)\n"
            "print(json.dumps([loaded, hurstlab.__all__, listed, sorted(star)]))\n"
        )
        loaded, names, listed, star = json.loads(_fresh_python(code))
        assert loaded == []
        assert len(names) == 18
        assert set(names) <= set(listed) and set(names) <= set(star)
