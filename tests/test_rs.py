import math

import numpy as np
import pytest

from hurstlab.base import WindowPolicy
from hurstlab.errors import (
    AllSubseriesDegenerate,
    InsufficientWindows,
    InvalidWindow,
    NonPositiveStatistic,
)
from hurstlab.rs import estimate_rs, estimate_rsal, expected_rs, rs_statistics
from oracles import rescaled_range_reference


def _rs(values, windows, sd_mode="population"):
    """Mean R/S of one series at each window."""
    return rs_statistics(np.array([values], dtype=float), windows, sd_mode)[0]


class TestRescaledRange:
    """R/S of a single subseries: the window is the whole series."""

    def test_arithmetic_progression(self):
        assert _rs([1, 2, 3], [3])[0] == pytest.approx(math.sqrt(1.5), abs=1e-12)

    def test_degenerate_marker(self):
        assert math.isnan(_rs([5, 5, 5], [3])[0])

    def test_two_points(self):
        assert _rs([1, 3], [2])[0] == pytest.approx(1.0, abs=1e-12)

    def test_sample_mode(self):
        # R = 1, sample SD of [1,2,3] is 1
        assert _rs([1, 2, 3], [3], "sample")[0] == pytest.approx(1.0, abs=1e-12)


class TestRsStatistic:
    def test_two_identical_progressions(self):
        assert _rs([1, 2, 3, 1, 3, 5], [3])[0] == pytest.approx(math.sqrt(1.5), abs=1e-6)

    def test_matches_brute_force(self, exp_series):
        series = exp_series(96, seed=21)
        windows = (2, 3, 4, 8, 16, 48)
        for sd_mode, ddof in (("population", 0), ("sample", 1)):
            stats = _rs(series, windows, sd_mode)
            for n, value in zip(windows, stats):
                assert value == pytest.approx(
                    rescaled_range_reference(series, n, ddof), rel=1e-12
                )

    def test_constant_series_degenerate(self):
        assert np.isnan(_rs([3.0] * 8, [2, 4])).all()
        with pytest.raises(AllSubseriesDegenerate,
                           match=r"^every subseries has zero SD at n=\[2, 4\]$"):
            estimate_rs([3.0] * 8)

    def test_whole_series_window(self, exp_series):
        series = exp_series(32, seed=2)
        value = _rs(series, [2, 32])[1]
        assert value == pytest.approx(rescaled_range_reference(series, 32, 0), rel=1e-12)

    def test_degenerate_subseries_excluded(self):
        # first pair constant, second informative
        assert _rs([2.0, 2.0, 1.0, 3.0], [2])[0] == pytest.approx(1.0, abs=1e-12)


class TestTwoPointWindow:
    """The R/S of a 2-point window does not depend on the data: a pair with
    difference d has deviations -d/2 and d/2, a profile ranging over |d|/2
    and an SD of |d|/sqrt(2) (sample) or |d|/2 (population), so its R/S is
    1/sqrt(2) or 1."""

    U = 2.0**-53  # unit roundoff of float64

    @pytest.mark.parametrize("exponent", [-300, 0, 300])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_constant_statistic(self, seed, exponent):
        # Integers below 2**20 in magnitude, times a power of 2: the pair's
        # sum, mean and deviations, the profile's end (0), the range and the
        # sum of squares d**2 / 2 are then exact. With the population SD,
        # sqrt(d**2 / 4) = |d| / 2 is exact too, so every pair's R/S is 1
        # and so is their mean.
        rng = np.random.default_rng(seed)
        x = rng.integers(-2**20 + 1, 2**20, size=(4, 128)) * 2.0**exponent
        x[:, 1::2] += np.where(x[:, 1::2] == x[:, ::2], 2.0**exponent, 0.0)
        x[0, :2] = 2.0**exponent  # one tied pair, left out of its row's mean
        assert np.all(rs_statistics(x, [2], "population") == 1.0)
        # With the sample SD, sqrt(d**2 / 2) and the quotient each round
        # once, so a pair is within 2u / (1 - u) of 1/sqrt(2). The mean's
        # sum of k = 64 such values adds at most (k - 1)u / (1 - (k - 1)u)
        # relative, its division by k one more u, and the reference
        # math.sqrt(0.5) is itself within u of 1/sqrt(2).
        u, k = self.U, x.shape[1] // 2
        rel = (1 + 2 * u / (1 - u)) * (1 + (k - 1) * u / (1 - (k - 1) * u)) * (1 + u) - 1
        anchor = math.sqrt(0.5)
        got = rs_statistics(x, [2], "sample")
        assert np.all(np.abs(got - anchor) <= anchor * (rel + u) / (1 - u))

    def test_row_of_tied_pairs_fails(self, exp_series):
        tied = np.repeat(exp_series(64, seed=3), 2)
        with pytest.raises(AllSubseriesDegenerate,
                           match=r"^every subseries has zero SD at n=\[2\]$"):
            estimate_rsal(tied)


class TestExpectedRs:
    def test_n2_hand_value(self):
        assert expected_rs(2) == pytest.approx(0.75, abs=1e-12)

    def test_invalid_window(self):
        with pytest.raises(InvalidWindow):
            expected_rs(1)

    def test_non_integer_window(self):
        # with n = 16 cached, an equal float must still reach the integer check
        expected_rs(16)
        for n in (16.5, 16.0):
            with pytest.raises(InvalidWindow, match="integer"):
                expected_rs(n)

    def test_branch_continuity_at_seam(self):
        n = 340
        gamma_branch = (
            (n - 0.5) / n
            * math.exp(math.lgamma((n - 1) / 2) - math.lgamma(n / 2))
            / math.sqrt(math.pi)
            * np.sqrt((n - np.arange(1, n)) / np.arange(1, n)).sum()
        )
        asymptotic_branch = (
            (n - 0.5) / n
            / math.sqrt(n * math.pi / 2)
            * np.sqrt((n - np.arange(1, n)) / np.arange(1, n)).sum()
        )
        assert abs(gamma_branch / asymptotic_branch - 1.0) < 0.005
        assert expected_rs(340) == pytest.approx(gamma_branch, rel=1e-12)
        assert expected_rs(341) < expected_rs(342)

    def test_asymptotic_ratio(self):
        ratio = expected_rs(1000) / math.sqrt(1000 * math.pi / 2)
        assert 0.95 <= ratio <= 1.0

    def test_increasing_within_branches(self):
        # strictly increasing on each side of the n=340 branch switch; the
        # switch itself steps down by ~0.07% (the asymptote sits slightly
        # below the exact gamma form), bounded well inside 0.5% relative
        values = {n: expected_rs(n) for n in range(2, 4097)}
        for n in range(2, 4096):
            if n == 340:
                assert 0.0 < (values[340] - values[341]) / values[340] < 0.005
            else:
                assert values[n + 1] > values[n]

    def test_bounded_by_asymptote(self):
        for n in range(2, 4097):
            assert 0.0 < expected_rs(n) < math.sqrt(0.5 * math.pi * n)


class TestAdjustRsPoints:
    """The small-sample correction inside estimate_rsal, on R/S values
    injected in place of the kernel's."""

    def test_expectation_matched_series_gives_half(self, monkeypatch):
        # R/S equal to its expectation at every n collapses onto
        # sqrt(0.5*pi*n), whose log-log slope is exactly 0.5
        monkeypatch.setattr(
            "hurstlab.rs.rs_statistics",
            lambda x, windows, sd_mode: np.array([[expected_rs(n) for n in windows]]),
        )
        result = estimate_rsal(np.arange(128.0))
        assert result.scales.tolist() == [2, 4, 8, 16, 32, 64]
        assert result.fit.slope == pytest.approx(0.5, abs=1e-12)
        assert result.fit.residual_rms < 1e-12

    def test_non_positive_guard(self, monkeypatch):
        monkeypatch.setattr(
            "hurstlab.rs.rs_statistics",
            lambda x, windows, sd_mode: np.array([[1.0, 1.0, -9.0]]),
        )
        with pytest.raises(NonPositiveStatistic, match=r"^R/S statistic <= 0 at n=\[8\]$"):
            estimate_rsal(np.arange(16.0))


class TestEstimators:
    def test_insufficient_windows(self, exp_series):
        series = exp_series(8, seed=4)
        policy = WindowPolicy(min_window=4)  # only n=4 qualifies
        with pytest.raises(InsufficientWindows):
            estimate_rs(series, policy)

    def test_result_structure(self, exp_series):
        series = exp_series(128, seed=5)
        result = estimate_rsal(series)
        assert result.method == "RSAL"
        assert result.hurst == result.fit.slope
        assert result.scales.tolist() == [2, 4, 8, 16, 32, 64]
        assert result.warnings == ()

    @pytest.mark.parametrize("estimate", [estimate_rs, estimate_rsal])
    def test_points_are_read_only(self, exp_series, estimate):
        result = estimate(exp_series(128, seed=5))
        with pytest.raises(ValueError, match="read-only"):
            result.scales[0] = 3
        with pytest.raises(ValueError, match="read-only"):
            result.statistics[0] = 1.0

    def test_scale_invariance(self, exp_series):
        series = exp_series(256, seed=6)
        for a in (0.01, 3.0, 1e5):
            assert estimate_rsal(a * series).hurst == pytest.approx(
                estimate_rsal(series).hurst, abs=1e-12
            )
            assert estimate_rs(a * series).hurst == pytest.approx(
                estimate_rs(series).hurst, abs=1e-12
            )

    def test_translation_invariance(self, exp_series):
        series = exp_series(256, seed=8)
        for c in (-0.5, 4.0, 100.0):
            assert estimate_rsal(series + c).hurst == pytest.approx(
                estimate_rsal(series).hurst, abs=1e-12
            )
            assert estimate_rs(series + c).hurst == pytest.approx(
                estimate_rs(series).hurst, abs=1e-12
            )

    def test_plain_rs_biased_high_at_coarse_policy(self, exp_series):
        # Monte Carlo band computed with the coarser
        # (min_window=8, population) configuration the band was derived at
        policy = WindowPolicy(min_window=8)
        estimates = [
            estimate_rs(exp_series(1024, seed=100, iteration=k), policy, "population").hurst
            for k in range(1000)
        ]
        assert 0.52 <= np.mean(estimates) <= 0.60

    def test_rsal_closer_to_half_than_rs(self, exp_series):
        rs_err = []
        rsal_err = []
        for k in range(500):
            series = exp_series(256, seed=200, iteration=k)
            rs_err.append(abs(estimate_rs(series).hurst - 0.5))
            rsal_err.append(abs(estimate_rsal(series).hurst - 0.5))
        assert np.mean(rsal_err) < np.mean(rs_err)
