import math

import numpy as np
import pytest

from hurstlab.dfa import dfa_fluctuations
from hurstlab.errors import NonDivisorWindow, SeriesError, WindowTooSmall
from hurstlab.rs import rs_statistics
from hurstlab.series import as_series, segment_matrix


def _rs(values, sd_mode="population"):
    """R/S of *values* taken as one subseries (window = N)."""
    x = np.array([values], dtype=float)
    return rs_statistics(x, [x.shape[1]], sd_mode)[0, 0]


class TestAsSeries:
    def test_rejects_nan(self):
        with pytest.raises(SeriesError, match="index 1"):
            as_series([1.0, float("nan"), 2.0])

    def test_rejects_infinity(self):
        with pytest.raises(SeriesError):
            as_series([1.0, float("inf")])

    def test_rejects_short_series(self):
        with pytest.raises(SeriesError, match=">= 2"):
            as_series([1.0])

    def test_rejects_2d(self):
        with pytest.raises(SeriesError, match="1-D"):
            as_series([[1.0, 2.0], [3.0, 4.0]])


class TestPartition:
    """segment_matrix: the subseries split of the R/S and DFA kernels."""

    def test_contiguous_split(self):
        parts = segment_matrix(np.array([1.0, 2, 3, 4, 5, 6]), 3)
        np.testing.assert_array_equal(parts, [[1, 2, 3], [4, 5, 6]])

    def test_whole_series_window(self):
        parts = segment_matrix(np.array([1.0, 2, 3, 4]), 4)
        np.testing.assert_array_equal(parts, [[1, 2, 3, 4]])

    def test_non_divisor_rejected(self):
        with pytest.raises(NonDivisorWindow):
            segment_matrix(np.arange(6.0), 4)

    def test_window_below_two_rejected(self):
        with pytest.raises(WindowTooSmall):
            segment_matrix(np.arange(4.0), 1)

    def test_concat_is_identity(self):
        rng = np.random.default_rng(7)
        batch = rng.normal(size=(3, 24))
        for n in (2, 3, 4, 6, 8, 12, 24):
            parts = segment_matrix(batch, n)
            assert parts.shape == (3, 24 // n, n)
            np.testing.assert_array_equal(parts.reshape(3, 24), batch)
            np.testing.assert_array_equal(parts[1], segment_matrix(batch[1], n))


class TestSubseriesStats:
    """The SD that rescales each subseries' range in the R/S kernel."""

    def test_constant_series(self):
        # zero SD: the only subseries is degenerate, so the window has no R/S
        assert math.isnan(_rs([2, 2, 2]))

    def test_two_points_population(self):
        # profile [-1, 0]: R = 1, population SD 1
        assert _rs([1, 3]) == pytest.approx(1.0, abs=1e-12)

    def test_three_points_population(self):
        # profile [-1, -1, 0]: R = 1, population SD sqrt(2/3)
        assert _rs([1, 2, 3]) == pytest.approx(math.sqrt(1.5), abs=1e-12)

    def test_sample_mode(self):
        # R = 1, sample SD of [1, 3] is sqrt(2)
        assert _rs([1, 3], "sample") == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)

    def test_unknown_mode_rejected(self):
        with pytest.raises(SeriesError, match="sd_mode"):
            rs_statistics(np.array([[1.0, 2.0]]), [2], "bessel")

    def test_std_scales_linearly(self):
        # the range scales by |a| and so must the SD, leaving R/S unchanged
        rng = np.random.default_rng(3)
        x = rng.exponential(size=(1, 50))
        for sd_mode in ("population", "sample"):
            base = rs_statistics(x, [5, 10, 50], sd_mode)
            for a in (-2.5, 0.5, 3.0):
                scaled = rs_statistics(a * x, [5, 10, 50], sd_mode)
                assert scaled == pytest.approx(base, rel=1e-12)


class TestCumsums:
    """The cumulative profiles: centered for R/S, plain for DFA."""

    def test_centered_hand_case(self):
        # profile [-1, -1, 0]: R = 1, sample SD 1
        assert _rs([1, 2, 3], "sample") == pytest.approx(1.0, abs=1e-12)

    def test_centered_constants(self):
        assert math.isnan(_rs([4, 4, 4], "sample"))

    def test_centered_two_points(self):
        # profile [2, 0]: R = 2, population SD 2
        assert _rs([5, 1]) == pytest.approx(1.0, abs=1e-12)

    def test_plain_running_sum(self):
        # profile [1, 3, 6]; slope 2.5, intercept -5/3; residuals (1/6, -1/3, 1/6)
        value = dfa_fluctuations(np.array([[1.0, 2.0, 3.0]]), [3])[0, 0]
        assert value == pytest.approx(math.sqrt(1.0 / 18.0), abs=1e-12)

    def test_plain_zeros(self):
        assert dfa_fluctuations(np.zeros((1, 8)), [4, 8]).tolist() == [[0.0, 0.0]]

    def test_plain_alternating(self):
        # profile [1, 0, 1, 0]; line -0.2t + 1; residuals (.2, -.6, .6, -.2)
        value = dfa_fluctuations(np.array([[1.0, -1.0, 1.0, -1.0]]), [4])[0, 0]
        assert value == pytest.approx(math.sqrt(0.2), abs=1e-12)


class TestRangeOf:
    """The range of the centered profile, the numerator of R/S."""

    def test_hand_cases(self):
        # sample SD sqrt(3) in both; profiles [-1, -2, 0] and [2, 1, 0]
        assert _rs([0, 0, 3], "sample") == pytest.approx(2.0 / math.sqrt(3.0), abs=1e-12)
        assert _rs([3, 0, 0], "sample") == pytest.approx(2.0 / math.sqrt(3.0), abs=1e-12)
        # profile [1, 0, 1, 0]: R = 1, population SD 1
        assert _rs([2, 0, 2, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_translation_invariant(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(1, 40))
        base = rs_statistics(x, [40], "sample")
        for c in (-10.0, 0.25, 1e6):
            assert rs_statistics(x + c, [40], "sample") == pytest.approx(base, rel=1e-9)

    def test_range_of_centered_cumsum_offset_invariant(self):
        rng = np.random.default_rng(9)
        x = rng.exponential(size=(1, 60))
        windows = [2, 4, 12, 60]
        base = rs_statistics(x, windows, "population")
        for c in (-3.0, 7.5, 1e4):
            shifted = rs_statistics(x + c, windows, "population")
            assert shifted == pytest.approx(base, rel=1e-9)
