import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hurstlab.errors import DegenerateDesign
from hurstlab.regression import abscissae, line_fit, rows_sum


def _fit(x, y):
    """(slope, intercept, residual_rms) of one line through the points (x, y)."""
    slope, intercept, rms = line_fit(abscissae(x), np.asarray(y, dtype=float)[None, :])
    return float(slope[0]), float(intercept[0]), float(rms[0])


def _fit_profile(profile):
    """The DFA detrend: a line fitted to a profile against t = 1, ..., n."""
    return _fit(np.arange(1.0, len(profile) + 1.0), profile)


class TestOlsFit:
    def test_exact_line(self):
        slope, intercept, rms = line_fit(abscissae([1, 2, 3]), np.array([[3.0, 5.0, 7.0]]))
        assert slope.shape == intercept.shape == rms.shape == (1,)
        assert slope[0] == pytest.approx(2.0, abs=1e-12)
        assert intercept[0] == pytest.approx(1.0, abs=1e-12)
        assert rms[0] == pytest.approx(0.0, abs=1e-12)

    def test_two_points(self):
        slope, intercept, _ = _fit([0, 1], [0, 1])
        assert slope == pytest.approx(1.0, abs=1e-12)
        assert intercept == pytest.approx(0.0, abs=1e-12)

    def test_hand_ols(self):
        # Sxy = -1, Sxx = 5; residuals (0.2, -0.6, 0.6, -0.2)
        slope, intercept, rms = _fit([1, 2, 3, 4], [1, 0, 1, 0])
        assert slope == pytest.approx(-0.2, abs=1e-12)
        assert intercept == pytest.approx(1.0, abs=1e-12)
        assert rms == pytest.approx(math.sqrt(0.2), abs=1e-12)

    def test_single_point_rejected(self):
        with pytest.raises(DegenerateDesign):
            _fit([1], [1])

    def test_constant_x_rejected(self):
        with pytest.raises(DegenerateDesign):
            _fit([2, 2, 2], [1, 5, 9])

    def test_matches_polyfit_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            x = rng.uniform(-5, 5, size=rng.integers(3, 40))
            y = rng.normal(size=(4, x.size))
            slopes, intercepts, _ = line_fit(abscissae(x), y)
            for row, slope, intercept in zip(y, slopes, intercepts):
                want_slope, want_intercept = np.polyfit(x, row, 1)
                assert slope == pytest.approx(want_slope, abs=1e-10)
                assert intercept == pytest.approx(want_intercept, abs=1e-10)

    def test_exact_on_collinear_inputs(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            a, b = rng.normal(size=2) * 10
            x = rng.uniform(0, 100, size=12)
            slope, intercept, rms = _fit(x, a * x + b)
            assert slope == pytest.approx(a, rel=1e-12, abs=1e-12)
            assert intercept == pytest.approx(b, rel=1e-12, abs=1e-9)
            scale = max(1.0, np.abs(a * x + b).max())
            assert rms <= 1e-12 * scale

    def test_affine_equivariance(self):
        rng = np.random.default_rng(29)
        x = rng.uniform(1, 9, size=20)
        y = rng.normal(size=20)
        base_slope, base_intercept, _ = _fit(x, y)
        a, b = 3.5, -1.25
        slope, intercept, _ = _fit(x, a * y + b)
        assert slope == pytest.approx(a * base_slope, rel=1e-10)
        assert intercept == pytest.approx(a * base_intercept + b, rel=1e-10)

    def test_fit_of_residuals_is_zero(self):
        rng = np.random.default_rng(31)
        x = rng.uniform(0, 50, size=30)
        y = rng.normal(size=30)
        slope, intercept, _ = _fit(x, y)
        refit_slope, refit_intercept, _ = _fit(x, y - (slope * x + intercept))
        assert abs(refit_slope) < 1e-10
        assert abs(refit_intercept) < 1e-10

    def test_rows_fit_independently(self):
        # a row's fit is the same to the bit in any batch, of any shape: the
        # property that keeps Monte Carlo reports independent of chunking
        rng = np.random.default_rng(37)
        for m in (2, 5, 16, 33, 200):
            x = np.log(np.arange(1.0, m + 1.0))
            batch = rng.exponential(size=(3, 7, m))
            fits = line_fit(abscissae(x), batch)
            for i, j in ((0, 0), (1, 3), (2, 6)):
                alone = line_fit(abscissae(x), batch[i, j][None, :])
                for got, want in zip(fits, alone):
                    assert got[i, j] == want[0]


class TestFitLineToProfile:
    def test_identity_profile(self):
        slope, intercept, _ = _fit_profile([1, 2, 3])
        assert slope == pytest.approx(1.0, abs=1e-12)
        assert intercept == pytest.approx(0.0, abs=1e-12)

    def test_scaled_linear_profile(self):
        c = 2.75
        slope, intercept, _ = _fit_profile([c, 2 * c, 3 * c])
        assert slope == pytest.approx(c, abs=1e-12)
        assert intercept == pytest.approx(0.0, abs=1e-12)

    def test_alternating_profile(self):
        slope, intercept, _ = _fit_profile([1, 0, 1, 0])
        assert slope == pytest.approx(-0.2, abs=1e-12)
        assert intercept == pytest.approx(1.0, abs=1e-12)

    def test_t_starts_at_one(self):
        # t-bar = 2.5, Sxy = 3, Sxx = 5: slope 0.6 and intercept 5 - 0.6 * 2.5;
        # counting t from 0 would give intercept 4.1
        slope, intercept, _ = _fit_profile([4.0, 4.5, 6.0, 5.5])
        assert slope == pytest.approx(0.6, abs=1e-12)
        assert intercept == pytest.approx(3.5, abs=1e-12)


# Values from 1e-3 to 1e6 in magnitude, either sign, and signed zeros: a
# sum of such values changes its low bits with the order of the additions.
_MIXED = st.one_of(
    st.floats(1e-3, 1e6), st.floats(-1e6, -1e-3), st.sampled_from([0.0, -0.0]))


# 2 to 128 terms: numpy's summation order for a last axis of up to 128
# values, which rows_sum mirrors over its first axis
_TERMS = st.integers(2, 128)


def _assert_rows_sum_is_numpy_sum(a: np.ndarray) -> None:
    # the sum of the rows, of their squares, and of their products with a
    # column of weights, each against numpy's reduction of the same terms
    t = np.ascontiguousarray(a.T)
    given_bytes = t.tobytes()
    weights = np.linspace(-2.5, 3.0, a.shape[1])
    for got, want in ((rows_sum(t), np.add.reduce(a, axis=-1)),
                      (rows_sum(t, t), np.add.reduce(a * a, axis=-1)),
                      (rows_sum(t, weights[:, None]), np.add.reduce(a * weights, axis=-1))):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert t.tobytes() == given_bytes


@settings(max_examples=300, deadline=None)
@given(_TERMS.flatmap(lambda m: hnp.arrays(
    np.float64, st.tuples(st.integers(1, 30), st.just(m)),
    elements=st.one_of(_MIXED, st.sampled_from([math.inf, -math.inf])))))
def test_rows_sum_is_numpy_sum(rows):
    # the window-major paths of the kernels keep every byte of an estimate
    # only while this holds; a numpy release that reorders its sum fails here
    with np.errstate(invalid="ignore", over="ignore"):
        _assert_rows_sum_is_numpy_sum(rows)


def test_rows_sum_is_numpy_sum_at_every_length():
    rng = np.random.default_rng(128)
    for m in range(2, 129):
        a = rng.exponential(size=(40, m)) * 10.0 ** rng.integers(-3, 7, (40, m))
        a *= rng.choice([-1.0, 1.0], a.shape)
        a[rng.random(a.shape) < 0.05] = 0.0
        a[rng.random(a.shape) < 0.05] = -0.0
        a[-1] = -0.0
        a[-2, rng.integers(0, m)] = math.inf
        a[-3, rng.integers(0, m, 2)] = math.inf, -math.inf
        with np.errstate(invalid="ignore", over="ignore"):
            _assert_rows_sum_is_numpy_sum(a)


@settings(max_examples=100, deadline=None)
@given(_TERMS.flatmap(lambda m: hnp.arrays(
    np.float64, st.tuples(st.integers(1, 30), st.just(m)),
    elements=st.one_of(_MIXED, st.just(math.nan)))))
def test_rows_sum_has_numpy_sum_nans(rows):
    # the sign and payload of a NaN sum may follow another operand order;
    # where the sum is a number, it is numpy's to the bit
    got = rows_sum(np.ascontiguousarray(rows.T))
    want = np.add.reduce(rows, axis=-1)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()
