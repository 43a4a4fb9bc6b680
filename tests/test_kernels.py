"""The batched estimator kernels against their one-row case.

Every estimator has one implementation, which fits a (rows, N) matrix of
series at once; ``estimate_*`` runs it on one row. These tests require each
row of a batch to come out bit for bit as the same series estimated alone,
which is what keeps a Monte Carlo report independent of how its cells are
chunked.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hurstlab.base import DEFAULT_POLICY, WindowPolicy
from hurstlab.dfa import dfa_batch, estimate_dfa
from hurstlab.montecarlo import SimulationCell, mse, run_cell
from hurstlab.rs import estimate_rsal, rsal_batch
from hurstlab.sampling import ExponentialSpec, derive_stream, exponential_sample
from hurstlab.vtp import estimate_vtp, vtp_batch

POLICIES = (DEFAULT_POLICY, WindowPolicy(min_window=4, max_window_rule="full-N"))


def _matrix(seed: int, rows: int, n_obs: int) -> np.ndarray:
    return np.random.default_rng(seed).exponential(size=(rows, n_obs))


@settings(max_examples=40, deadline=None)
@given(
    n_obs=st.sampled_from([48, 96, 100, 128, 256]),
    rows=st.integers(1, 9),
    seed=st.integers(0, 2**32 - 1),
    sd_mode=st.sampled_from(["population", "sample"]),
    policy=st.sampled_from(POLICIES),
    divisors_only=st.booleans(),
)
def test_batch_rows_equal_single_series_estimates(n_obs, rows, seed, sd_mode, policy,
                                                  divisors_only):
    x = _matrix(seed, rows, n_obs)
    rsal = rsal_batch(x, policy, sd_mode)
    dfa = dfa_batch(x, policy)
    vtp = vtp_batch(x, divisors_only=divisors_only)
    for k in range(rows):
        assert rsal.result(k) == estimate_rsal(x[k], policy, sd_mode)
        single_dfa = estimate_dfa(x[k], policy)
        assert dfa.result(k, warnings=single_dfa.warnings) == single_dfa
        assert vtp.result(k) == estimate_vtp(x[k], divisors_only=divisors_only)


@settings(max_examples=25, deadline=None)
@given(
    n_obs=st.sampled_from([64, 100, 128]),
    seed=st.integers(0, 2**32 - 1),
    position=st.integers(0, 5),
    level=st.integers(-9, 9),
)
def test_constant_row_fails_alone(n_obs, seed, position, level):
    x = _matrix(seed, 5, n_obs)
    mixed = np.insert(x, position, float(level), axis=0)
    for batch in (rsal_batch, dfa_batch, vtp_batch):
        hurst = batch(mixed).hurst
        assert np.isnan(hurst[position])
        np.testing.assert_array_equal(np.delete(hurst, position), batch(x).hurst)
        assert np.isfinite(batch(x).hurst).all()


def test_run_cell_counts_constant_row_as_failure(monkeypatch):
    real = exponential_sample

    def with_constant_row(stream, spec):
        if stream.stream_id[1] == 2:
            return np.full(spec.length, 3.0)
        return real(stream, spec)

    monkeypatch.setattr("hurstlab.montecarlo.exponential_sample", with_constant_row)
    cell = SimulationCell(lam=1.0, length=128, iterations=6)
    report = run_cell(cell, 42)
    spec = ExponentialSpec(1.0, 128)
    others = [real(derive_stream(42, 0, k), spec) for k in (0, 1, 3, 4, 5)]
    for method, estimate in (("RSAL", estimate_rsal), ("DFA", estimate_dfa),
                             ("VTP", estimate_vtp)):
        stats = report.methods[method]
        hurst = np.array([estimate(series).hurst for series in others])
        assert stats.failure_count == 1
        assert stats.mean_hurst == float(hurst.mean())
        assert stats.mse == mse(hurst)
