import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hurstlab import ExponentialSpec, estimate_dfa, estimate_rsal, estimate_vtp, exponential_rows
from hurstlab.dfa import dfa_fluctuations
from hurstlab.errors import (AllSubseriesDegenerate, SeriesError, ZeroFluctuation,
                             ZeroVariance)
from hurstlab.rs import rs_statistics
from hurstlab.series import as_series
from hurstlab.vtp import scale_variances

ESTIMATORS = (estimate_rsal, estimate_dfa, estimate_vtp)
UNIT_ROUNDOFF = 2.0**-53


def _max_abs_bound(n_obs):
    """The largest |x| the gate accepts at length N: sqrt(DBL_MAX / (4 N**3))."""
    return math.sqrt(sys.float_info.max / (4.0 * n_obs**3))


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

    def test_range_messages(self):
        with pytest.raises(SeriesError) as excinfo:
            as_series([0.0, 1e200])
        assert str(excinfo.value) == (
            "series: |x| up to 1e+200 overflows float64 squares above 2.37019e+153 at N = 2")
        with pytest.raises(SeriesError) as excinfo:
            as_series([0.0, -1e-300])
        assert str(excinfo.value) == (
            "series: spread 1e-300 underflows float64 squares below 2**-458")


class TestRangeGate:
    """as_series accepts max|x| <= sqrt(DBL_MAX / (4 N**3)) and a spread of
    0 or at least 2**-458 (see series._check_range)."""

    @pytest.mark.parametrize("n_obs", [2, 3, 16, 256, 32768])
    def test_largest_accepted_magnitude(self, n_obs):
        bound = _max_abs_bound(n_obs)
        above = float(np.nextafter(bound, np.inf))
        # within one ulp of the exact largest |x| with 4 N**3 x**2 <= DBL_MAX
        def fits(v):
            return 4 * n_obs**3 * Fraction(float(v)) ** 2 <= Fraction(sys.float_info.max)

        assert fits(np.nextafter(bound, 0.0)) and not fits(above)
        x = np.zeros(n_obs)
        for edge in (bound, -bound):
            x[-1] = edge
            as_series(x)
        for edge in (above, -above):
            x[-1] = edge
            with pytest.raises(SeriesError, match="overflows float64 squares"):
                as_series(x)

    @pytest.mark.parametrize("n_obs", [16, 256, 4096])
    def test_largest_accepted_magnitude_estimates_without_overflow(self, n_obs):
        draws = exponential_rows(3, 0, 0, 1, ExponentialSpec(1.0, n_obs))[0]
        top = draws / draws.max() * _max_abs_bound(n_obs)
        # all positive (the largest DFA profiles), and with the sign of
        # the second half flipped (profiles far from their lines)
        for x in (top, np.where(np.arange(n_obs) < n_obs // 2, top, -top)):
            assert np.abs(x).max() == _max_abs_bound(n_obs)
            with np.errstate(over="raise"):
                for estimate in ESTIMATORS:
                    assert math.isfinite(estimate(x).hurst)

    @pytest.mark.parametrize("n_obs", [2, 16, 256])
    def test_smallest_accepted_spread(self, n_obs):
        x = np.zeros(n_obs)
        x[-1] = 2.0**-458
        as_series(x)
        as_series(x - 1e-100)
        x[-1] = np.nextafter(2.0**-458, 0.0)
        with pytest.raises(SeriesError, match="underflows float64 squares"):
            as_series(x)

    def test_constant_series_passes_the_gate_and_fails_each_estimator(self):
        x = np.full(64, 1e-300)
        as_series(x)
        for estimate, error in zip(ESTIMATORS,
                                   (AllSubseriesDegenerate, ZeroFluctuation, ZeroVariance)):
            with pytest.raises(error):
                estimate(x)

    @pytest.mark.parametrize("scale", [1e200, 1e154, 1e150, 1e-160, 1e-170])
    @pytest.mark.parametrize("estimate", ESTIMATORS)
    def test_scaled_draws_out_of_range_raise(self, estimate, scale):
        x = np.random.default_rng(42).exponential(size=256) * scale
        with pytest.raises(SeriesError, match=r"^series: (\|x\| up to|spread) "):
            estimate(x)


def _slope_sensitivity(scales):
    """Largest change of an OLS slope on log(scales) when each ordinate moves
    by at most 1: sum|l - mean l| / sum (l - mean l)**2."""
    lc = np.log(np.asarray(scales, dtype=float))
    lc -= lc.mean()
    return np.abs(lc).sum() / (lc * lc).sum()


def _affine_tolerance(x, y, a, results):
    """A first-order bound on how far rounding moves each estimate of *y*, the
    float64 a * x + b, from that of *x*; in exact arithmetic they are equal.

    Each statistic is a function of sums of at most N terms, cumulated once
    more at most; each sum of k terms is off by at most k * u times the sum
    of their magnitudes (u = 2**-53), so every value a statistic sees is off
    by at most 2 N**2 u max|v| on a side with values v. In x's units both
    sides and the rounding of y itself are off by at most
    d = 4 N**2 u (max|x| + max|y| / |a|), which grows with |b| / (|a| spread).
    An element perturbation d moves, relatively:
      R/S at n by at most (8 sqrt(2) n + 2 sqrt(2)) d / sd_min(n) <= 13 n d / sd_min(n)
        (the range of the centred profile by 4 n d and at least sd / (2 sqrt 2),
        each subseries' sd by 2 sqrt(2) d; sd_min over the window's subseries),
      DFA at n by at most n d / F(n) (a profile by n d, its residual norm no more),
      VTP at w by at most 2 d / sqrt(V(w)) + d**2 / V(w) (each block mean by d).
    log(statistic) moves by about the relative change r, so the slope by
    at most r times _slope_sensitivity, and H = 1 + slope / 2 for VTP; the
    logs and the fit add 4 k u (1 + max|log statistic|) of their own.
    """
    n_obs = x.size
    d = 4 * n_obs**2 * UNIT_ROUNDOFF * (np.abs(x).max() + np.abs(y).max() / abs(a))
    bounds = {}
    for r in results:
        scales = r.scales
        if r.method == "RSAL":
            sd_min = np.array([x.reshape(-1, n).std(axis=1, ddof=1).min() for n in scales])
            rel = 13 * scales * d / sd_min
        elif r.method == "DFA":
            rel = scales * d / dfa_fluctuations(x[None, :], scales.tolist())[0]
        else:
            v = scale_variances(x[None, :], tuple(scales.tolist()))[0]
            rel = 2 * d / np.sqrt(v) + d * d / v
        fit = 4 * scales.size * UNIT_ROUNDOFF * (1 + np.abs(np.log(r.statistics)).max())
        scale = 0.5 if r.method == "VTP" else 1.0
        bounds[r.method] = scale * _slope_sensitivity(scales) * (rel.max() + 2 * fit)
    return bounds


@settings(max_examples=60, deadline=None)
@given(
    n_obs=st.sampled_from([64, 96, 256]),
    seed=st.integers(0, 2**32 - 1),
    mantissa=st.floats(0.5, 1.0, exclude_max=True),
    exponent=st.integers(-1100, 1100),
    negative=st.booleans(),
    offset=st.one_of(st.just(0.0), st.floats(-1e4, 1e4), st.floats(-1e300, 1e300)),
)
@example(n_obs=64, seed=0, mantissa=0.5, exponent=1025, negative=False, offset=0.0)
def test_affine_map_moves_estimates_within_rounding_or_raises(n_obs, seed, mantissa,
                                                              exponent, negative, offset):
    """a * x + b, with b = offset * |a| * spread(x): inside the gate, no
    estimate moves by more than _affine_tolerance; outside, every estimator
    raises SeriesError and returns no number."""
    x = exponential_rows(seed, 0, 0, 1, ExponentialSpec(1.0, n_obs))[0]
    signed = -mantissa if negative else mantissa
    try:
        a = math.ldexp(signed, exponent)
    except OverflowError:  # from 2**1024 on; an infinite scale is outside the gate
        a = math.copysign(math.inf, signed)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        b = offset * abs(a) * float(x.max() - x.min())
        y = a * x + b
    spread = float(y.max() - y.min()) if np.isfinite(y).all() else math.inf
    inside = (np.isfinite(y).all() and np.abs(y).max() <= _max_abs_bound(n_obs)
              and math.isfinite(b) and not 0.0 < spread < 2.0**-458)
    if not inside:
        for estimate in ESTIMATORS:
            with pytest.raises(SeriesError):
                estimate(y)
        return
    if spread == 0.0 or abs(b) > 1e8 * abs(a) * float(x.max() - x.min()):
        return  # rounding leaves no data to compare: |b| dwarfs the spread
    base = [estimate(x) for estimate in ESTIMATORS]
    tolerance = _affine_tolerance(x, y, a, base)
    for r, estimate in zip(base, ESTIMATORS):
        moved = abs(estimate(y).hurst - r.hurst)
        assert moved <= tolerance[r.method], (r.method, moved, tolerance[r.method])


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
