import numpy as np
import pytest

from hurstlab.base import WindowPolicy
from hurstlab.errors import CellFailed, EmptyEstimates, InsufficientWindows
from hurstlab.montecarlo import (
    METHODS,
    SimulationCell,
    chunk_rows,
    make_grid,
    mse,
    run_cell,
    run_grid,
)
from hurstlab.rs import estimate_rsal, rsal_batch
from hurstlab.sampling import ExponentialSpec, exponential_rows
from oracles import exponential_rows_reference


class TestMse:
    def test_zero_error(self):
        assert mse([0.5, 0.5], 0.5) == 0.0

    def test_symmetric_spread(self):
        assert mse([0.4, 0.6], 0.5) == pytest.approx(0.01, abs=1e-15)

    def test_single_estimate(self):
        assert mse([0.55], 0.5) == pytest.approx(0.0025, abs=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(EmptyEstimates):
            mse([], 0.5)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("shape", [1, 2, 7, 8, 9, 129, 4097, (30, 40)])
    def test_bits_of_mean_squared_deviation(self, seed, shape):
        a = np.random.default_rng(seed).normal(0.5, 0.1, shape)
        before = a.copy()
        assert mse(a) == float(((a - 0.5) ** 2).mean())
        np.testing.assert_array_equal(a, before)


class TestMakeGrid:
    def test_full_default_grid(self):
        assert len(make_grid()) == 72

    def test_configuration_order(self):
        grid = make_grid(lambdas=[0.1, 0.5], sizes=[64], iteration_counts=[5, 10])
        assert grid == [
            SimulationCell(0.1, 64, 5),
            SimulationCell(0.1, 64, 10),
            SimulationCell(0.5, 64, 5),
            SimulationCell(0.5, 64, 10),
        ]


class TestRunCell:
    # the default budget holds the N = 128 cell in one chunk and splits the
    # N = 1024 cell into full chunks and a remainder; 7-row chunks end mid-cell
    @pytest.mark.parametrize("length, iterations", [(128, 60), (1024, 40)])
    def test_deterministic_across_runs_and_chunking(self, monkeypatch, length, iterations):
        cell = SimulationCell(lam=1.5, length=length, iterations=iterations)
        first = run_cell(cell, 42)
        second = run_cell(cell, 42)
        monkeypatch.setattr("hurstlab.montecarlo.CHUNK_ELEMENTS", 7 * length)
        assert chunk_rows(length) == 7
        chunked = run_cell(cell, 42)
        assert first == second == chunked

    @pytest.mark.parametrize("length", [128, 1024])
    @pytest.mark.parametrize("start, stop", [(7, 14), (63, 70)])
    def test_mid_cell_chunk_equals_numpy_rows(self, length, start, stop):
        spec = ExponentialSpec(1.5, length)
        chunk = exponential_rows(42, 3, start, stop, spec)
        expected = exponential_rows_reference(42, 3, range(start, stop), length, 1.5)
        np.testing.assert_array_equal(chunk, expected)
        np.testing.assert_array_equal(chunk, exponential_rows(42, 3, 0, 100, spec)[start:stop])

    def test_large_sample_cell_lands_on_half(self):
        # lambda=0.1, N=1024: adjusted R/S mean lands tightly on 0.5
        cell = SimulationCell(lam=0.1, length=1024, iterations=300)
        report = run_cell(cell, 42)
        stats = report.methods["RSAL"]
        assert stats.failure_count == 0
        assert abs(stats.mean_hurst - 0.5) < 0.015
        assert 0.0002 <= stats.mse <= 0.0010

    def test_no_windows_raises_insufficient_windows_from_first_chunk(self, monkeypatch):
        # divisors of 12 in [8, 6] is empty: the configuration, not the
        # data, fails, so its own error stops the cell at the first chunk
        chunks = []

        def counted(master_seed, cell_id, start, stop, spec):
            chunks.append(start)
            return exponential_rows(master_seed, cell_id, start, stop, spec)

        monkeypatch.setattr("hurstlab.montecarlo.exponential_rows", counted)
        monkeypatch.setattr("hurstlab.montecarlo.CHUNK_ELEMENTS", 12)
        cell = SimulationCell(lam=1.0, length=12, iterations=3)
        with pytest.raises(InsufficientWindows, match="N=12"):
            run_cell(cell, 42, WindowPolicy(min_window=8))
        assert chunks == [0]

    def test_cell_failed_when_every_row_fails(self, monkeypatch):
        def failed(x, policy, sd_mode):
            fits = rsal_batch(x, policy, sd_mode)
            return fits._replace(hurst=np.full_like(fits.hurst, np.nan))

        monkeypatch.setattr("hurstlab.methods.rsal_batch", failed)
        cell = SimulationCell(lam=1.0, length=64, iterations=9)
        with pytest.raises(CellFailed, match="RSAL failed on all 9 iterations"):
            run_cell(cell, 42)

    def test_partial_failures_counted_and_excluded(self, monkeypatch):
        seen = {"rows": 0}
        real = rsal_batch

        def flaky(x, policy, sd_mode):
            # every third series of the cell fails
            fits = real(x, policy, sd_mode)
            row = seen["rows"] + np.arange(1, x.shape[0] + 1)
            seen["rows"] += x.shape[0]
            return fits._replace(hurst=np.where(row % 3 == 0, np.nan, fits.hurst))

        monkeypatch.setattr("hurstlab.methods.rsal_batch", flaky)
        cell = SimulationCell(lam=1.0, length=64, iterations=9)
        report = run_cell(cell, 42)
        assert report.methods["RSAL"].failure_count == 3
        assert report.methods["DFA"].failure_count == 0
        assert np.isfinite(report.methods["RSAL"].mean_hurst)


class TestRunGrid:
    def test_empty_grid_rejected(self):
        with pytest.raises(EmptyEstimates):
            run_grid([], 42)

    def test_single_cell_grid_matches_run_cell(self):
        cell = SimulationCell(lam=0.5, length=64, iterations=20)
        report = run_grid([cell], 42)
        assert len(report.cells) == 1
        assert report.cells[0] == run_cell(cell, 42)

    def test_cell_order_matches_configuration(self):
        cells = make_grid(lambdas=[3.0, 0.1], sizes=[64, 32], iteration_counts=[4])
        report = run_grid(cells, 42)
        assert [c.cell for c in report.cells] == cells

    def test_metadata_records_configuration(self):
        cell = SimulationCell(lam=0.5, length=64, iterations=5)
        report = run_grid([cell], 99, sd_mode="population")
        meta = report.metadata
        assert meta.master_seed == 99
        assert "pcg64" in meta.generator
        assert meta.sd_mode == "population"
        assert meta.window_policy == WindowPolicy()
        assert meta.duration_seconds > 0
        assert all(set(c.methods) == set(METHODS) for c in report.cells)


class TestLambdaSharing:
    def test_rsal_identical_when_uniforms_shared(self):
        # Exponential(lam) is a 1/lam scaling of Exponential(1); with the
        # same underlying uniforms the adjusted R/S estimate is identical
        for k in range(20):
            x_a = exponential_rows(5, 0, k, k + 1, ExponentialSpec(0.1, 256))[0]
            x_b = exponential_rows(5, 0, k, k + 1, ExponentialSpec(7.0, 256))[0]
            np.testing.assert_allclose(x_a * 0.1, x_b * 7.0, rtol=1e-12)
            assert estimate_rsal(x_a).hurst == pytest.approx(
                estimate_rsal(x_b).hurst, abs=1e-12
            )
