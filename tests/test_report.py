import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hurstlab.base import EstimatorResult
from hurstlab.dfa import estimate_dfa
from hurstlab.errors import SeriesParseError
from hurstlab.montecarlo import make_grid, run_grid
from hurstlab.regression import RegressionFit
from hurstlab.report import (
    estimates_to_csv,
    estimates_to_json,
    plot_data_files,
    read_series_file,
    report_from_json,
    report_to_csv,
    report_to_json,
)
from hurstlab.rs import estimate_rsal
from hurstlab.vtp import estimate_vtp
from oracles import (
    ReferenceParseError,
    estimates_csv_reference,
    estimates_json_reference,
    first_difference,
    read_series_reference,
)


@pytest.fixture(scope="module")
def small_report():
    cells = make_grid(lambdas=[0.1, 1.5], sizes=[32, 64], iteration_counts=[5, 10])
    return run_grid(cells, 42)


class TestReadSeriesFile:
    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "series.txt"
        path.write_text("# header\n1.5\n\n  2.5\n# trailing comment\n-3.0\n")
        np.testing.assert_allclose(read_series_file(path), [1.5, 2.5, -3.0])

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "series.txt"
        path.write_text("1\n2\n3\n4\n5\n6\nnot-a-number\n8\n")
        with pytest.raises(SeriesParseError, match="line 7") as excinfo:
            read_series_file(path)
        assert excinfo.value.line_number == 7

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "series.txt"
        path.write_text("1.0\ninf\n")
        with pytest.raises(SeriesParseError, match="line 2"):
            read_series_file(path)

    def test_only_newline_characters_end_lines(self, tmp_path):
        # form feed, vertical tab, \x1c-\x1e, \x85 and U+2028 end a line for
        # str.splitlines, but not in a text file: inside a line they are a
        # bad number, at its ends whitespace
        path = tmp_path / "series.txt"
        path.write_text("\x0c1.5\x85\n2.5\u2028\n3\x0b4\n", encoding="utf-8")
        with pytest.raises(SeriesParseError, match="line 3") as excinfo:
            read_series_file(path)
        assert str(excinfo.value) == "line 3: not a number: '3\\x0b4'"

    def test_first_bad_line_wins(self, tmp_path):
        path = tmp_path / "series.txt"
        path.write_text("1\r\n2\rinf\r\nabc\n")
        with pytest.raises(SeriesParseError) as excinfo:
            read_series_file(path)
        assert str(excinfo.value) == "line 3: non-finite value: 'inf'"


# Tokens a series file may hold, each with the padding a line may carry.
_PAD = st.text(alphabet=" \t\x0b\x0c\x1c\x1d\x1e\x85\u2028", max_size=2)
_FLOAT_REPR = st.floats(allow_nan=False, allow_infinity=False).map(repr)
_INT = st.integers(-10**20, 10**20).map(str)
_EXPONENT = st.builds("{}e{}".format, st.integers(-999, 999), st.integers(-320, 320))
_UNDERSCORED = st.lists(st.integers(1, 999), min_size=2, max_size=4).map(
    lambda parts: "_".join(map(str, parts)))
_NUMBER = st.one_of(_FLOAT_REPR, _INT, _EXPONENT, _UNDERSCORED)
_COMMENT = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\n\r"),
    max_size=8,
)
_FILLER = st.one_of(st.just(""), _PAD, st.builds("# {}".format, _COMMENT))
_BAD = st.sampled_from(["nan", "inf", "-Infinity", "1.2.3", "abc", "1__0", "0x10"])


@st.composite
def _series_files(draw) -> bytes:
    lines = draw(st.lists(st.one_of(
        st.builds("{}{}{}".format, _PAD, _NUMBER, _PAD), _FILLER), max_size=30))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(_BAD))
    endings = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                            min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, endings))
    if lines and draw(st.booleans()):
        text = text[: -len(endings[-1])]  # no final newline
    return text.encode("utf-8")


@settings(max_examples=300, deadline=None)
@given(content=_series_files())
def test_series_file_parses_as_reference_or_names_its_line(content):
    """A series file either parses to the reference's array or fails with
    the reference's line number and message."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "series.txt"
        path.write_bytes(content)
        try:
            expected = read_series_reference(path)
        except ReferenceParseError as ref:
            with pytest.raises(SeriesParseError) as excinfo:
                read_series_file(path)
            assert excinfo.value.line_number == ref.line_number
            assert str(excinfo.value) == str(ref)
        else:
            got = read_series_file(path)
            assert got.dtype == expected.dtype
            np.testing.assert_array_equal(got, expected)


class TestJsonRoundTrip:
    def test_round_trip_equality(self, small_report):
        text = report_to_json(small_report)
        assert report_from_json(text) == small_report

    def test_rerun_serializes_to_identical_bytes(self, small_report):
        cells = [c.cell for c in small_report.cells]
        rerun = run_grid(cells, 42)
        assert report_to_json(rerun) == report_to_json(small_report)

    def test_schema_shape(self, small_report):
        doc = json.loads(report_to_json(small_report))
        assert set(doc) == {"metadata", "cells"}
        assert "duration" not in json.dumps(doc["metadata"])
        cell = doc["cells"][0]
        assert set(cell) == {"lambda", "length", "iterations", "methods"}
        assert set(cell["methods"]) == {"RSAL", "DFA", "VTP"}
        assert set(cell["methods"]["RSAL"]) == {"mean_hurst", "mse", "failure_count"}


class TestCsv:
    def test_cells_match_json_at_printed_precision(self, small_report):
        doc = json.loads(report_to_json(small_report))
        by_key = {
            (c["lambda"], c["length"], c["iterations"]): c["methods"] for c in doc["cells"]
        }
        lines = report_to_csv(small_report).splitlines()
        method = None
        header = None
        for line in lines:
            if line.startswith("# method="):
                method = line.split("=", 1)[1]
                header = None
            elif line and header is None:
                header = line.split(",")
            elif line:
                row = dict(zip(header, line.split(",")))
                lam, iters = float(row["lambda"]), int(row["iterations"])
                for size in (32, 64):
                    stats = by_key[(lam, size, iters)][method]
                    assert float(row[f"hurst_N{size}"]) == pytest.approx(
                        stats["mean_hurst"], abs=5e-5
                    )
                    assert float(row[f"mse_N{size}"]) == pytest.approx(
                        stats["mse"], abs=5e-5
                    )

    def test_locale_independent_formatting(self, small_report):
        body = report_to_csv(small_report)
        assert "," in body  # CSV separator
        assert ";" not in body
        for token in body.replace("\n", ",").split(","):
            assert " " not in token.strip() or token.startswith("#")


class TestPlotData:
    def test_one_file_per_method_and_iteration_count(self, small_report):
        files = plot_data_files(small_report)
        assert len(files) == 6  # 3 methods x 2 iteration counts
        assert "hurst_vs_lambda_rsal_iter5.csv" in files

    def test_lambda_rows_and_size_columns(self, small_report):
        body = plot_data_files(small_report)["hurst_vs_lambda_dfa_iter10.csv"]
        lines = body.strip().splitlines()
        assert lines[0] == "lambda,hurst_N32,hurst_N64"
        assert [ln.split(",")[0] for ln in lines[1:]] == ["0.1", "1.5"]


def _real_estimates(exp_series, n_obs: int) -> list[EstimatorResult]:
    series = exp_series(n_obs, lam=0.5, seed=n_obs)
    return [estimate_rsal(series), estimate_dfa(series), estimate_vtp(series),
            estimate_vtp(series, divisors_only=True)]


class TestEstimatesJson:
    """The hand-rendered estimate document against json.dumps(indent=2)."""

    OPTIONS = {"method": "all", "min_window": 2, "max_window_rule": "half-N",
               "sd_mode": "sample", "vtp_divisors_only": False}

    @pytest.mark.parametrize("n_obs", [2048, 6008, 32768])
    def test_real_estimates(self, exp_series, n_obs):
        results = _real_estimates(exp_series, n_obs)
        args = (results, f"runs/series_{n_obs}.txt", n_obs, self.OPTIONS)
        got = estimates_to_json(*args)
        assert first_difference(got, estimates_json_reference(*args)) is None

    def test_no_results(self):
        args = ([], "empty.txt", 0, {})
        assert estimates_to_json(*args) == estimates_json_reference(*args)


_STATISTIC = st.one_of(
    st.floats(),  # NaN and the infinities included: json spells them its own way
    st.floats(min_value=0.0, max_value=2.2250738585072014e-308),  # subnormals
    st.floats(min_value=1e300, allow_infinity=False),
)
_TEXT = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=12)


@st.composite
def _estimate_results(draw) -> EstimatorResult:
    scales = draw(st.lists(st.integers(1, 10**6), max_size=12))
    statistics = draw(st.lists(_STATISTIC, min_size=len(scales), max_size=len(scales)))
    fit = RegressionFit(slope=draw(_STATISTIC), intercept=draw(st.floats()),
                        residual_rms=draw(st.floats()))
    return EstimatorResult(method=draw(_TEXT), hurst=draw(st.floats()), fit=fit,
                           scales=np.array(scales, dtype=np.int64),
                           statistics=np.array(statistics, dtype=float),
                           warnings=tuple(draw(st.lists(_TEXT, max_size=2))))


@settings(max_examples=200, deadline=None)
@given(
    results=st.lists(_estimate_results(), max_size=3),
    input_path=st.one_of(_TEXT, st.just('dir "quoted"\\series\u00e9\U0001f600.txt')),
    n_observations=st.integers(0, 10**9),
    options=st.dictionaries(_TEXT, st.one_of(_TEXT, st.booleans(), st.integers(),
                                             st.floats()), max_size=4),
)
def test_estimates_json_matches_json_dumps(results, input_path, n_observations, options):
    args = (results, input_path, n_observations, options)
    assert estimates_to_json(*args) == estimates_json_reference(*args)


class TestEstimatesCsv:
    """The estimate table against the per-point reference writer."""

    @pytest.mark.parametrize("n_obs", [2048, 6008, 32768])
    def test_real_estimates(self, exp_series, n_obs):
        results = _real_estimates(exp_series, n_obs)
        got = estimates_to_csv(results)
        assert first_difference(got, estimates_csv_reference(results)) is None

    def test_no_results(self):
        assert estimates_to_csv([]) == estimates_csv_reference([])


@settings(max_examples=200, deadline=None)
@given(results=st.lists(_estimate_results(), max_size=3))
def test_estimates_csv_matches_reference(results):
    assert estimates_to_csv(results) == estimates_csv_reference(results)
