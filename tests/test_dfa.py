import math

import numpy as np
import pytest

from hurstlab.base import WARN_NONSTATIONARY, LogLogFits
from hurstlab.dfa import dfa_batch, dfa_fluctuations, estimate_dfa
from hurstlab.errors import (
    InsufficientWindows,
    SeriesError,
    ZeroFluctuation,
)
from oracles import dfa_fluctuation_reference, fluctuation_reference


def _fluct(values, windows):
    """Mean DFA fluctuation of one series at each window."""
    return dfa_fluctuations(np.array([values], dtype=float), windows)[0]


class TestDetrendedFluctuation:
    """The fluctuation of a single subseries: the window is the whole series."""

    def test_constant_series_perfectly_detrended(self):
        assert _fluct([7.5, 7.5, 7.5], [3])[0] == pytest.approx(0.0, abs=1e-12)

    def test_alternating_hand_case(self):
        # profile [1,0,1,0]; line -0.2t + 1; residuals (.2,-.6,.6,-.2)
        assert _fluct([1, -1, 1, -1], [4])[0] == pytest.approx(math.sqrt(0.2), abs=1e-12)

    def test_increasing_hand_case(self):
        # profile [1,3,6]; slope 2.5, intercept -5/3; residuals (1/6,-1/3,1/6)
        assert _fluct([1, 2, 3], [3])[0] == pytest.approx(math.sqrt(1.0 / 18.0), abs=1e-12)

    def test_matches_brute_force(self, exp_series):
        series = exp_series(64, seed=14)
        assert _fluct(series, [64])[0] == pytest.approx(
            fluctuation_reference(series), rel=1e-10
        )


class TestDfaStatistic:
    def test_constant_series_zero_fluctuation(self):
        assert _fluct([3.0] * 16, [4, 8]).tolist() == [0.0, 0.0]
        with pytest.raises(ZeroFluctuation,
                           match=r"^mean fluctuation is 0 \(linear profile\) at n=\[4, 8\]$"):
            estimate_dfa([3.0] * 16)

    def test_repeated_alternating_blocks(self):
        value = _fluct([1, -1, 1, -1, 1, -1, 1, -1], [4])[0]
        assert value == pytest.approx(math.sqrt(0.2), abs=1e-12)

    def test_single_subseries(self, exp_series):
        series = exp_series(32, seed=15)
        assert _fluct(series, [4, 32])[1] == pytest.approx(
            fluctuation_reference(series), rel=1e-12
        )

    def test_matches_brute_force_mean(self, exp_series):
        series = exp_series(96, seed=16)
        windows = (4, 8, 16, 48)
        for n, value in zip(windows, _fluct(series, windows)):
            assert value == pytest.approx(dfa_fluctuation_reference(series, n), rel=1e-10)


class TestEstimateDfa:
    def test_result_structure(self, exp_series):
        series = exp_series(128, seed=17)
        result = estimate_dfa(series)
        assert result.method == "DFA"
        assert result.hurst == result.fit.slope
        # default policy floor is 2 but DFA enforces its own floor of 4
        assert result.scales.tolist() == [4, 8, 16, 32, 64]

    def test_points_are_read_only(self, exp_series):
        result = estimate_dfa(exp_series(128, seed=17))
        with pytest.raises(ValueError, match="read-only"):
            result.scales[0] = 3
        with pytest.raises(ValueError, match="read-only"):
            result.statistics[0] = 1.0

    def test_insufficient_windows(self, exp_series):
        with pytest.raises(InsufficientWindows):
            estimate_dfa(exp_series(8, seed=18))

    def test_zero_fluctuation_propagates(self):
        with pytest.raises(ZeroFluctuation):
            estimate_dfa([2.0] * 64)

    def test_overflowing_fluctuations_raise(self, exp_series):
        # profiles of values near 1e200 square past the float64 range at
        # every window; as_series rejects such a series, so call the kernel
        rows = exp_series(256, seed=47)[None, :] * 1e200
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                SeriesError, match=r"^statistic is not finite \(float64 overflow\) "
                                   r"at n=\[4, 8, 16, 32, 64, 128\]$"):
            dfa_batch(rows).result()

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

    def test_warning_starts_above_slope_one(self):
        # rows at the slopes either side of 1 and at 1: only the last row,
        # strictly above 1, is flagged
        slopes = np.array([0.99, math.nextafter(1.0, 0.0), 1.0, math.nextafter(1.0, 2.0)])
        rows = slopes.size
        fits = LogLogFits(method="DFA", scales=np.array([4, 8, 16]),
                          statistics=np.ones((rows, 3)), slope=slopes,
                          intercept=np.zeros(rows), residual_rms=np.zeros(rows), hurst=slopes)
        flagged = [WARN_NONSTATIONARY in fits.result(row).warnings for row in range(rows)]
        assert flagged == [False, False, False, True]

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
            assert _fluct(series + c, (4, 16, 64)) == pytest.approx(
                _fluct(series, (4, 16, 64)), abs=1e-10, rel=1e-10
            )
            assert estimate_dfa(series + c).hurst == pytest.approx(
                estimate_dfa(series).hurst, abs=1e-10
            )

    def test_fluctuation_nonnegative_and_zero_iff_affine(self):
        # affine cumulative profile comes exactly from a constant series
        assert _fluct([2.0, 2.0, 2.0, 2.0], [4])[0] == 0.0
        rng = np.random.default_rng(33)
        assert (dfa_fluctuations(rng.exponential(size=(20, 16)), [4, 8, 16]) >= 0.0).all()
