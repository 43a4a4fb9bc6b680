import math

import numpy as np
import pytest

from hurstlab.base import WARN_NONSTATIONARY, WindowPolicy
from hurstlab.dfa import detrended_fluctuation, dfa_statistic, estimate_dfa
from hurstlab.errors import InsufficientWindows, WindowTooSmall, ZeroFluctuation


def brute_force_fluctuation(subseries):
    """Cumulate, fit a line over t = 1..n with polyfit, take RMS residuals."""
    profile = np.cumsum(np.asarray(subseries, dtype=float))
    t = np.arange(1, len(profile) + 1)
    slope, intercept = np.polyfit(t, profile, 1)
    residuals = profile - (slope * t + intercept)
    return math.sqrt(np.mean(residuals**2))


class TestDetrendedFluctuation:
    def test_constant_series_perfectly_detrended(self):
        assert detrended_fluctuation([7.5, 7.5, 7.5]) == pytest.approx(0.0, abs=1e-12)

    def test_alternating_hand_case(self):
        # profile [1,0,1,0]; line -0.2t + 1; residuals (.2,-.6,.6,-.2)
        value = detrended_fluctuation([1, -1, 1, -1])
        assert value == pytest.approx(math.sqrt(0.2), abs=1e-12)

    def test_increasing_hand_case(self):
        # profile [1,3,6]; slope 2.5, intercept -5/3; residuals (1/6,-1/3,1/6)
        value = detrended_fluctuation([1, 2, 3])
        assert value == pytest.approx(math.sqrt(1.0 / 18.0), abs=1e-12)

    def test_window_too_small(self):
        with pytest.raises(WindowTooSmall):
            detrended_fluctuation([1, 2])

    def test_matches_brute_force(self, exp_series):
        series = exp_series(64, seed=14)
        assert detrended_fluctuation(series) == pytest.approx(
            brute_force_fluctuation(series), rel=1e-10
        )


class TestDfaStatistic:
    def test_constant_series_zero_fluctuation(self):
        with pytest.raises(ZeroFluctuation):
            dfa_statistic([3.0] * 16, 4)

    def test_repeated_alternating_blocks(self):
        point = dfa_statistic([1, -1, 1, -1, 1, -1, 1, -1], 4)
        assert point.statistic == pytest.approx(math.sqrt(0.2), abs=1e-12)

    def test_single_subseries(self, exp_series):
        series = exp_series(32, seed=15)
        point = dfa_statistic(series, 32)
        assert point.statistic == pytest.approx(detrended_fluctuation(series), rel=1e-12)

    def test_matches_brute_force_mean(self, exp_series):
        series = exp_series(96, seed=16)
        for n in (4, 8, 16, 48):
            expected = np.mean([brute_force_fluctuation(seg) for seg in series.reshape(-1, n)])
            assert dfa_statistic(series, n).statistic == pytest.approx(expected, rel=1e-10)

    def test_minimum_window(self):
        with pytest.raises(WindowTooSmall):
            dfa_statistic([1.0, 2.0, 3.0, 4.0], 2)


class TestEstimateDfa:
    def test_result_structure(self, exp_series):
        series = exp_series(128, seed=17)
        result = estimate_dfa(series)
        assert result.method == "DFA"
        assert result.hurst == result.fit.slope
        # default policy floor is 2 but DFA enforces its own floor of 4
        assert [p.scale for p in result.points] == [4, 8, 16, 32, 64]

    def test_insufficient_windows(self, exp_series):
        with pytest.raises(InsufficientWindows):
            estimate_dfa(exp_series(8, seed=18))

    def test_zero_fluctuation_propagates(self):
        with pytest.raises(ZeroFluctuation):
            estimate_dfa([2.0] * 64)

    def test_nonstationary_warning_above_one(self, monkeypatch):
        # fixture: every (log n, log F(n)) on an exact slope-1.2 line
        monkeypatch.setattr(
            "hurstlab.dfa.dfa_fluctuations",
            lambda x, windows: np.tile(np.asarray(windows, dtype=float) ** 1.2,
                                       (x.shape[0], 1)),
        )
        result = estimate_dfa(np.ones(64) + np.arange(64) % 2)
        assert result.hurst == pytest.approx(1.2, abs=1e-12)
        assert WARN_NONSTATIONARY in result.warnings

    def test_no_warning_in_normal_range(self, exp_series):
        result = estimate_dfa(exp_series(256, seed=19))
        assert result.warnings == ()

    def test_homogeneity(self, exp_series):
        series = exp_series(256, seed=20)
        base = estimate_dfa(series).hurst
        for a in (0.001, 2.0, 1e4):
            assert estimate_dfa(a * series).hurst == pytest.approx(base, abs=1e-12)

    def test_offset_invariance_of_fluctuations(self, exp_series):
        # the within-window line fit absorbs the ramp a constant offset
        # adds to the cumulative profile
        series = exp_series(128, seed=22)
        for c in (-2.0, 5.0, 1e3):
            for n in (4, 16, 64):
                assert dfa_statistic(series + c, n).statistic == pytest.approx(
                    dfa_statistic(series, n).statistic, abs=1e-10, rel=1e-10
                )
            assert estimate_dfa(series + c).hurst == pytest.approx(
                estimate_dfa(series).hurst, abs=1e-10
            )

    def test_fluctuation_nonnegative_and_zero_iff_affine(self):
        # affine cumulative profile comes exactly from a constant series
        assert detrended_fluctuation([2.0, 2.0, 2.0, 2.0]) == 0.0
        rng = np.random.default_rng(33)
        for _ in range(20):
            series = rng.exponential(size=16)
            assert detrended_fluctuation(series) >= 0.0
