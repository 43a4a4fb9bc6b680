import numpy as np
import pytest

from hurstlab.errors import InsufficientScales, ScaleTooLarge, ZeroVariance
from hurstlab.vtp import (
    AggregationScale,
    _default_ws,
    _gather_plan,
    aggregate,
    aggregated_variance,
    aggregation_scales,
    estimate_vtp,
)
from oracles import gather_plan_reference, vtp_mean_shift


class TestAggregate:
    def test_pairwise_means(self):
        np.testing.assert_allclose(aggregate([1, 2, 3, 4], 2), [1.5, 3.5])

    def test_identity_scale(self, exp_series):
        series = exp_series(20, seed=40)
        np.testing.assert_array_equal(aggregate(series, 1), series)

    def test_remainder_discarded(self):
        np.testing.assert_allclose(aggregate([1, 2, 3, 4, 5], 2), [1.5, 3.5])

    def test_scale_too_large(self):
        with pytest.raises(ScaleTooLarge):
            aggregate([1, 2, 3, 4], 3)

    def test_nonpositive_scale(self):
        with pytest.raises(ScaleTooLarge):
            aggregate([1, 2, 3, 4], 0)


class TestAggregatedVariance:
    def test_hand_case(self):
        point = aggregated_variance([1, 2, 3, 4], 2)
        assert point.scale == 2
        assert point.statistic == pytest.approx(1.0, abs=1e-12)

    def test_constant_series(self):
        with pytest.raises(ZeroVariance):
            aggregated_variance([5.0] * 8, 2)

    def test_scale_one_is_population_variance(self):
        point = aggregated_variance([1, 2, 3, 4], 1)
        assert point.statistic == pytest.approx(1.25, abs=1e-12)

    def test_grand_mean_used_for_non_divisors(self):
        # 5 observations at w=2: blocks exclude the 5th value but the
        # reference mean does not
        series = np.array([1.0, 2.0, 3.0, 4.0, 100.0])
        blocks = np.array([1.5, 3.5])
        expected = float(((blocks - series.mean()) ** 2).mean())
        assert aggregated_variance(series, 2).statistic == pytest.approx(expected, rel=1e-12)

    def test_scale_equivariance(self, exp_series):
        series = exp_series(64, seed=41)
        base = aggregated_variance(series, 4).statistic
        for a in (0.5, 3.0):
            scaled = aggregated_variance(a * series, 4).statistic
            assert scaled == pytest.approx(a * a * base, rel=1e-12)


class TestGatherPlan:
    """The vectorised plan against the per-scale loop it replaced."""

    @staticmethod
    def _assert_plan_equal(n_obs, ws):
        plan = _gather_plan(n_obs, ws)
        for got, want in zip(plan, gather_plan_reference(n_obs, ws), strict=True):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("divisors_only", [False, True])
    def test_default_scales_match_loop(self, divisors_only):
        for n_obs in [*range(4, 301), 32768]:
            self._assert_plan_equal(n_obs, _default_ws(n_obs, divisors_only))

    def test_any_valid_scales_match_loop(self):
        self._assert_plan_equal(100, tuple(range(1, 51)))
        self._assert_plan_equal(97, (48, 3, 3, 1))

    @pytest.mark.parametrize("n_obs", [2, 3])
    def test_no_default_scale_gives_empty_plan(self, n_obs):
        for divisors_only in (False, True):
            assert _default_ws(n_obs, divisors_only) == ()
            plan = _gather_plan(n_obs, ())
            assert [a.size for a in plan] == [0, 0, 0, 0, 0]


class TestAggregationScales:
    def test_default_keeps_four_blocks(self):
        scales = aggregation_scales(128)
        assert scales[0] == AggregationScale(w=1, block_count=128)
        assert scales[-1] == AggregationScale(w=32, block_count=4)
        assert all(s.block_count >= 4 for s in scales)

    def test_divisors_only(self):
        scales = aggregation_scales(24, divisors_only=True)
        assert [s.w for s in scales] == [1, 2, 3, 4, 6]


class TestEstimateVtp:
    def test_exact_iid_variance_law(self, monkeypatch):
        # fixture: Var = c/w exactly at every scale, so beta = 1 and H = 0.5
        monkeypatch.setattr(
            "hurstlab.vtp.scale_variances",
            lambda x, ws: np.tile(3.7 / np.asarray(ws, dtype=float), (x.shape[0], 1)),
        )
        result = estimate_vtp(np.ones(64) + np.arange(64) % 3)
        assert result.hurst == pytest.approx(0.5, abs=1e-12)

    def test_vectorized_matches_per_scale_op(self, exp_series):
        series = exp_series(100, seed=42)  # non-power-of-two: non-divisor scales
        result = estimate_vtp(series)
        assert [p.scale for p in result.points] == list(range(1, 26))
        for point in result.points:
            assert point.statistic == pytest.approx(
                aggregated_variance(series, point.scale).statistic, rel=1e-12
            )

    def test_result_structure(self, exp_series):
        result = estimate_vtp(exp_series(128, seed=43))
        assert result.method == "VTP"
        beta = -result.fit.slope
        assert result.hurst == pytest.approx(1.0 - beta / 2.0, abs=1e-15)

    def test_explicit_scales(self, exp_series):
        series = exp_series(64, seed=44)
        scales = [AggregationScale(w=w, block_count=64 // w) for w in (1, 2, 4, 8)]
        result = estimate_vtp(series, scales=scales)
        assert [p.scale for p in result.points] == [1, 2, 4, 8]
        plain = estimate_vtp(series, scales=[1, 2, 4, 8])
        assert plain.hurst == result.hurst

    def test_insufficient_scales(self, exp_series):
        with pytest.raises(InsufficientScales):
            estimate_vtp(exp_series(64, seed=45), scales=[4])

    def test_zero_variance_propagates(self):
        with pytest.raises(ZeroVariance):
            estimate_vtp([2.0] * 64)

    def test_affine_invariance(self, exp_series):
        series = exp_series(256, seed=46)
        base = estimate_vtp(series).hurst
        for a, b in ((2.0, 0.0), (1.0, 9.0), (0.25, -3.0)):
            assert estimate_vtp(a * series + b).hurst == pytest.approx(base, abs=1e-12)

    def test_mean_beta_near_one_on_iid_data(self, exp_series):
        # beta is 1 for i.i.d. data, but E[ln V_w] carries the log-variance
        # bias g(m_w), which steepens the fitted decay: the estimator's
        # expected beta at N = 1024 is 1 + 2 * delta_N = 1.190
        expected = 1.0 + 2.0 * vtp_mean_shift(1024)
        betas = [
            -estimate_vtp(exp_series(1024, seed=300, iteration=k)).fit.slope
            for k in range(1000)
        ]
        assert expected - 0.2 <= np.mean(betas) <= expected + 0.2
