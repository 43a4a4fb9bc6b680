import json
import warnings

import numpy as np
import pytest

from hurstlab.cli import MAX_EXPECTED_RS_N, MAX_EXPECTED_RS_ROWS, main
from hurstlab.sampling import ExponentialSpec, derive_stream, exponential_sample


@pytest.fixture
def series_file(tmp_path):
    def make(length=1024, lam=1.5, seed=77, name="series.txt"):
        sample = exponential_sample(derive_stream(seed, 0, 0), ExponentialSpec(lam, length))
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
        for method in ("rsal", "dfa", "vtp"):
            assert main(["estimate", str(path), "--method", method]) == 0
            (single,) = json.loads(capsys.readouterr().out)["results"]
            assert single["hurst"] == hursts[single["method"]]

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
        path = tmp_path / "short.txt"
        path.write_text("\n".join(str(i + 1) for i in range(8)) + "\n")
        assert main(["estimate", str(path)]) == 3
        assert "InsufficientWindows" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["all", "rsal", "dfa", "vtp"])
    def test_overflowing_squares_are_estimation_error(self, tmp_path, capsys, method):
        # finite values whose squares exceed the float64 range
        sample = exponential_sample(derive_stream(5, 0, 0), ExponentialSpec(1.0, 256))
        path = tmp_path / "huge.txt"
        path.write_text("".join(f"{x!r}\n" for x in (sample * 1e200).tolist()))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["estimate", str(path), "--method", method]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("hurstlab: overflow encountered in multiply: the series values "
                       "are too large to estimate in float64 arithmetic\n")

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

    def test_unviable_size_exits_3(self, tmp_path, capsys):
        assert main([
            "simulate", "--lambdas", "0.5", "--sizes", "12",
            "--iteration-counts", "3", "--out", str(tmp_path / "r.json"),
            "--min-window", "8",
        ]) == 3

    def test_size_without_vtp_scales_exits_3(self, tmp_path, capsys):
        assert main([
            "simulate", "--lambdas", "0.5", "--sizes", "3",
            "--iteration-counts", "3", "--out", str(tmp_path / "r.json"),
        ]) == 3
        assert "CellFailed" in capsys.readouterr().err

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
