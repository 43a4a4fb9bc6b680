"""The batched estimator kernels against their one-row case.

Every estimator has one implementation, which fits a (rows, N) matrix of
series at once; ``estimate_*`` runs it on one row. These tests require each
row of a batch to come out bit for bit as the same series estimated alone,
which is what keeps a Monte Carlo report independent of how its cells are
chunked. Short windows over enough values run window-major
(``regression.window_major``), so whether a window takes that path depends
on the batch's size; the window-major path must equal the reductions along
the last axis, ``fit_rows`` among them, bit for bit.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hurstlab.base import DEFAULT_POLICY, FAILURES, MAX_WINDOW_RULES, WindowPolicy
from hurstlab.dfa import DFA_MIN_WINDOW, _fluctuations, dfa_batch, estimate_dfa
from hurstlab.errors import InsufficientWindows
from hurstlab.montecarlo import SimulationCell, mse, run_cell
from hurstlab.regression import (
    WINDOW_MAJOR_MAX,
    WINDOW_MAJOR_VALUES,
    abscissae,
    fit_rows,
    window_major,
    window_major_copy,
    window_major_rms,
)
from hurstlab.rs import (
    _rescaled_ranges,
    _rescaled_ranges_along_axis,
    estimate_rsal,
    rs_statistics,
    rsal_batch,
)
from hurstlab.sampling import ExponentialSpec, exponential_rows
from hurstlab.vtp import _default_ws, estimate_vtp, vtp_batch
from oracles import assert_results_equal, rescaled_ranges_reference, rs_statistics_reference

POLICIES = (DEFAULT_POLICY, WindowPolicy(min_window=4, max_window_rule="full-N"))
# Lengths the default policy can estimate, each with every policy; and short
# series under full-N, whose last window is the whole series.
CASES = st.one_of(
    st.tuples(st.sampled_from([48, 96, 100, 128, 256]), st.sampled_from(POLICIES)),
    st.tuples(st.sampled_from([8, 16]), st.just(POLICIES[1])),
)


def _matrix(seed: int, rows: int, n_obs: int) -> np.ndarray:
    return np.random.default_rng(seed).exponential(size=(rows, n_obs))


@settings(max_examples=50, deadline=None)
@given(
    case=CASES,
    rows=st.integers(1, 9),
    seed=st.integers(0, 2**32 - 1),
    sd_mode=st.sampled_from(["population", "sample"]),
    divisors_only=st.booleans(),
)
def test_batch_rows_equal_single_series_estimates(case, rows, seed, sd_mode, divisors_only):
    n_obs, policy = case
    x = _matrix(seed, rows, n_obs)
    rsal = rsal_batch(x, policy, sd_mode)
    dfa = dfa_batch(x, policy)
    vtp = vtp_batch(x, divisors_only=divisors_only)
    for k in range(rows):
        assert_results_equal(rsal.result(k), estimate_rsal(x[k], policy, sd_mode))
        assert_results_equal(dfa.result(k), estimate_dfa(x[k], policy))
        assert_results_equal(vtp.result(k),
                             estimate_vtp(x[k], divisors_only=divisors_only))


@settings(max_examples=200, deadline=None)
@given(
    n_obs=st.one_of(st.integers(1, 300), st.integers(1, 10**5)),
    min_window=st.integers(2, 40),
    rule=st.sampled_from(MAX_WINDOW_RULES),
    floor=st.sampled_from([2, DFA_MIN_WINDOW]),
)
@example(n_obs=8, min_window=2, rule="half-N", floor=DFA_MIN_WINDOW)
@example(n_obs=12, min_window=6, rule="full-N", floor=2)
@example(n_obs=27720, min_window=2, rule="half-N", floor=2)
def test_window_policy_gives_the_divisors_in_range(n_obs, min_window, rule, floor):
    """The R/S and DFA kernels reshape by each window unchecked, so
    WindowPolicy.windows is the one gate: every divisor of N from the larger
    floor to N/2 or N, ascending, and InsufficientWindows below two."""
    policy = WindowPolicy(min_window, rule)
    lo = max(min_window, floor)
    hi = n_obs if rule == "full-N" else n_obs // 2
    expected = [d for d in range(lo, hi + 1) if n_obs % d == 0]
    if len(expected) < 2:
        with pytest.raises(InsufficientWindows):
            policy.windows(n_obs, floor)
    else:
        assert policy.windows(n_obs, floor) == expected


def test_dfa_window_set_is_the_smallest():
    """simulate checks only DFA's windows before any cell runs: wherever
    they number 2 or more, so do R/Sal's windows and both default VTP scale
    sets. Exhaustive over N = 2..600, min_window 2..24 and both rules."""
    for n_obs in range(2, 601):
        vtp_sets = [_default_ws(n_obs, divisors_only) for divisors_only in (False, True)]
        for min_window in range(2, 25):
            for rule in MAX_WINDOW_RULES:
                policy = WindowPolicy(min_window, rule)
                try:
                    policy.windows(n_obs, DFA_MIN_WINDOW)
                except InsufficientWindows:
                    continue
                assert len(policy.windows(n_obs)) >= 2
                assert all(len(set(ws)) >= 2 for ws in vtp_sets), (n_obs, min_window, rule)


def _subseries(seed: int, rows: int, d: int, n: int) -> np.ndarray:
    """(rows, d, n) subseries of mixed magnitude, among them constant ones
    (zero SD, -0.0 included), affine ones, and ones whose DFA profile is
    affine (zero fluctuation)."""
    rng = np.random.default_rng(seed)
    seg = rng.exponential(size=(rows, d, n)) * 10.0 ** rng.integers(-3, 7, (rows, d, 1))
    kind = rng.integers(0, 5, (rows, d))
    seg[kind == 1] = rng.choice([0.0, -0.0, 2.5, -7e5], ((kind == 1).sum(), 1))
    intercept, slope = rng.normal(size=(2, (kind == 2).sum(), 1)) * 100.0
    seg[kind == 2] = intercept + slope * np.arange(n)
    seg[kind == 3, 1:] = rng.normal(size=((kind == 3).sum(), 1))
    return seg


def _assert_bits_equal(got, want) -> None:
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def _assert_window_major_equals_axis(seg: np.ndarray) -> None:
    # the window-major path works on its own copy, never on the input
    given_bytes = seg.tobytes()
    for ddof in (0, 1):
        _assert_bits_equal(_rescaled_ranges(seg, ddof), _rescaled_ranges_along_axis(seg, ddof))
    n = seg.shape[-1]
    t = np.arange(1.0, n + 1.0)
    if n >= 3:
        _assert_bits_equal([_fluctuations(seg)],
                           [fit_rows(t, np.cumsum(seg, axis=-1))[2]])
    for x in (t, np.log(t + 1.0)):
        got = window_major_rms(abscissae(x), window_major_copy(seg))
        _assert_bits_equal([got.reshape(seg.shape[:-1])], [fit_rows(x, seg)[2]])
    assert seg.tobytes() == given_bytes


@pytest.mark.parametrize("n", range(2, WINDOW_MAJOR_MAX + 2))
def test_window_major_paths_equal_axis_paths_at_the_predicate_edge(n):
    # at each n, the least size window_major accepts and the size one
    # subseries below it; past WINDOW_MAJOR_MAX every size takes the axis path
    least = WINDOW_MAJOR_VALUES * n * n
    for seed, shape, accepted in ((n, (WINDOW_MAJOR_VALUES, n, n), True),
                                  (n + 1, (1, WINDOW_MAJOR_VALUES * n - 1, n), False)):
        seg = _subseries(seed, *shape)
        assert seg.size == least - (0 if accepted else n)
        assert window_major(n, seg.size) == (accepted and n <= WINDOW_MAJOR_MAX)
        _assert_window_major_equals_axis(seg)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 70),
    d=st.integers(1, 40),
    n=st.integers(2, WINDOW_MAJOR_MAX),
)
@example(seed=0, rows=1, d=1, n=4)  # one subseries: its transpose is a C-ordered view
def test_window_major_paths_equal_axis_paths(seed, rows, d, n):
    # the axis paths, which the other windows and every log-log fit run,
    # are the reference
    seg = _subseries(seed, rows, d, n)
    _assert_window_major_equals_axis(seg)


# (rows, N, n): the axis path lays its profiles out subseries-major when
# the subseries outnumber the window's points (rows * N >= n * n, equality
# at n = 128) and row-major otherwise (n = 512 and 16384)
@pytest.mark.parametrize("rows, n_obs, n", [
    (50, 128, 16), (50, 128, 32), (50, 128, 64),
    (16, 1024, 128), (16, 1024, 512),
    (1, 32768, 16), (1, 32768, 16384),
])
def test_rescaled_range_axis_path_keeps_bytes_in_either_layout(rows, n_obs, n):
    seg = _subseries(n, rows, n_obs // n, n)
    seg[0, 0] = 0.0
    if n_obs // n > 2:
        seg[0, -1] = -0.0
    if rows > 1:
        seg[1] = 4.25  # every subseries constant: a NaN statistic
    x = seg.reshape(rows, n_obs)
    for ddof, sd_mode in ((0, "population"), (1, "sample")):
        rs, ok = _rescaled_ranges_along_axis(seg, ddof)
        assert rs.flags.c_contiguous and ok.flags.c_contiguous
        _assert_bits_equal((rs, ok), rescaled_ranges_reference(seg, ddof))
        _assert_bits_equal([rs_statistics(x, [n], sd_mode)],
                           [rs_statistics_reference(x, [n], ddof)])


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


def _mixed_matrix(seed: int, rows: int, n_obs: int) -> np.ndarray:
    """Exponential rows mixed with constant rows, affine rows, rows that
    are constant after the first value of each 4-value window (their DFA
    profile is linear at n = 4) and one exponential row scaled by 1e200."""
    rng = np.random.default_rng(seed)
    x = rng.exponential(size=(rows, n_obs))
    kind = rng.integers(0, 4, rows)
    x[kind == 1] = rng.choice([0.0, -0.0, 2.5, -7e5], ((kind == 1).sum(), 1))
    intercept, slope = rng.normal(size=(2, (kind == 2).sum(), 1)) * 100.0
    x[kind == 2] = intercept + slope * np.arange(n_obs)
    x[kind == 3] = np.where(np.arange(n_obs) % 4 == 0, x[kind == 3], 1.5)
    x[rng.integers(rows)] = rng.exponential(size=n_obs) * 1e200
    return x


@settings(max_examples=40, deadline=None)
@given(
    n_obs=st.sampled_from([64, 100, 128, 256]),
    rows=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_result_raises_exactly_for_nan_rows(n_obs, rows, seed):
    x = _mixed_matrix(seed, rows, n_obs)
    with np.errstate(over="ignore", invalid="ignore"):
        batches = rsal_batch(x), dfa_batch(x), vtp_batch(x)
    for fits in batches:
        errors = tuple({error for error, _ in FAILURES[fits.method]})
        for k in range(rows):
            if np.isnan(fits.hurst[k]):
                with pytest.raises(errors):
                    fits.result(k)
            else:
                assert np.isfinite(fits.result(k).hurst)


def test_run_cell_counts_constant_row_as_failure(monkeypatch):
    def with_constant_row(master_seed, cell_id, start, stop, spec):
        x = exponential_rows(master_seed, cell_id, start, stop, spec)
        x[np.arange(start, stop) == 2] = 3.0
        return x

    monkeypatch.setattr("hurstlab.montecarlo.exponential_rows", with_constant_row)
    cell = SimulationCell(lam=1.0, length=128, iterations=6)
    report = run_cell(cell, 42)
    spec = ExponentialSpec(1.0, 128)
    others = [exponential_rows(42, 0, k, k + 1, spec)[0] for k in (0, 1, 3, 4, 5)]
    for method, estimate in (("RSAL", estimate_rsal), ("DFA", estimate_dfa),
                             ("VTP", estimate_vtp)):
        stats = report.methods[method]
        hurst = np.array([estimate(series).hurst for series in others])
        assert stats.failure_count == 1
        assert stats.mean_hurst == float(hurst.mean())
        assert stats.mse == mse(hurst)
