import numpy as np
import pytest

from hurstlab.errors import InsufficientScales, ScaleTooLarge, ZeroVariance
from hurstlab.vtp import _default_ws, _gather_plan, estimate_vtp, scale_variances
from oracles import (
    aggregated_variance_reference,
    assert_results_equal,
    gather_plan_reference,
    vtp_mean_shift,
)


def _var(values, ws):
    """Aggregated variance of one series at each block size."""
    return scale_variances(np.array([values], dtype=float), tuple(ws))[0]


class TestAggregate:
    """The block means behind each variance."""

    def test_pairwise_means(self):
        # block means [1.5, 3.5, 5.5] about the mean 3.5
        assert _var([1, 2, 3, 4, 5, 6], [2])[0] == pytest.approx(8.0 / 3.0, abs=1e-12)

    def test_identity_scale(self, exp_series):
        series = exp_series(20, seed=40)
        assert _var(series, [1])[0] == pytest.approx(np.var(series), rel=1e-12)

    def test_remainder_discarded(self):
        # block means [1.5, 3.5]; the 5 counts only in the mean 3
        assert _var([1, 2, 3, 4, 5], [2])[0] == pytest.approx(1.25, abs=1e-12)

    def test_scale_too_large(self):
        with pytest.raises(ScaleTooLarge):
            estimate_vtp([1, 2, 3, 4], scales=[1, 3])

    def test_nonpositive_scale(self):
        with pytest.raises(ScaleTooLarge):
            estimate_vtp([1, 2, 3, 4], scales=[0, 1])


class TestAggregatedVariance:
    def test_hand_case(self):
        assert _var([1, 2, 3, 4], [2])[0] == pytest.approx(1.0, abs=1e-12)

    def test_constant_series(self):
        assert _var([5.0] * 8, [1, 2]).tolist() == [0.0, 0.0]
        with pytest.raises(ZeroVariance, match="w=\\[1, 2\\]"):
            estimate_vtp([5.0] * 8, scales=[1, 2])

    def test_scale_one_is_population_variance(self):
        assert _var([1, 2, 3, 4], [1])[0] == pytest.approx(1.25, abs=1e-12)

    def test_grand_mean_used_for_non_divisors(self):
        # 5 observations at w=2: blocks exclude the 5th value but the
        # reference mean does not
        series = np.array([1.0, 2.0, 3.0, 4.0, 100.0])
        blocks = np.array([1.5, 3.5])
        expected = float(((blocks - series.mean()) ** 2).mean())
        assert _var(series, [2])[0] == pytest.approx(expected, rel=1e-12)

    def test_scale_equivariance(self, exp_series):
        series = exp_series(64, seed=41)
        base = _var(series, [4])[0]
        for a in (0.5, 3.0):
            assert _var(a * series, [4])[0] == pytest.approx(a * a * base, rel=1e-12)


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
    """The default block sizes."""

    def test_default_keeps_four_blocks(self):
        ws = _default_ws(128, False)
        assert ws == tuple(range(1, 33))
        assert all(128 // w >= 4 for w in ws)
        assert 128 // ws[-1] == 4

    def test_divisors_only(self):
        assert _default_ws(24, True) == (1, 2, 3, 4, 6)


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
        assert result.scales.tolist() == list(range(1, 26))
        for w, statistic in zip(result.scales, result.statistics):
            assert statistic == pytest.approx(
                aggregated_variance_reference(series, w), rel=1e-12
            )

    def test_result_structure(self, exp_series):
        result = estimate_vtp(exp_series(128, seed=43))
        assert result.method == "VTP"
        beta = -result.fit.slope
        assert result.hurst == pytest.approx(1.0 - beta / 2.0, abs=1e-15)

    def test_points_are_read_only(self, exp_series):
        result = estimate_vtp(exp_series(128, seed=43))
        with pytest.raises(ValueError, match="read-only"):
            result.scales[0] = 3
        with pytest.raises(ValueError, match="read-only"):
            result.statistics[0] = 1.0

    def test_explicit_scales(self, exp_series):
        series = exp_series(64, seed=44)
        result = estimate_vtp(series, scales=np.array([1, 2, 4, 8]))
        assert result.scales.tolist() == [1, 2, 4, 8]
        assert result.scales.dtype == np.int64
        plain = estimate_vtp(series, scales=[1, 2, 4, 8])
        assert_results_equal(plain, result)

    def test_non_integer_scale_rejected(self, exp_series):
        # no block holds 2.5 observations: taking it would fit the variance
        # of blocks of 2 at log 2.5
        series = exp_series(64, seed=44)
        for bad in (2.5, 2.0, "2"):
            with pytest.raises(ScaleTooLarge, match="integer"):
                estimate_vtp(series, scales=[1, bad, 4])

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
