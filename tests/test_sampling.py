import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from hurstlab.errors import SeriesError
from hurstlab.sampling import (
    ExponentialSpec,
    RngStream,
    derive_stream,
    exponential_inverse_cdf,
    exponential_rows,
    exponential_sample,
)
from oracles import exponential_rows_reference, spawn_key_uniforms

GRID_LAMBDAS = (0.1, 0.5, 1.5, 3.0, 5.0, 7.0)
U64 = 2**64 - 1
# The seed's and the key's uint32 word counts change at 2**32.
WORDS = st.one_of(st.sampled_from([0, 2**32 - 1, 2**32, U64]), st.integers(0, U64))


class TestDeriveStream:
    def test_same_coordinates_same_draws(self):
        a = derive_stream(42, 3, 7).uniforms(100)
        b = derive_stream(42, 3, 7).uniforms(100)
        np.testing.assert_array_equal(a, b)

    def test_different_iterations_differ(self):
        a = derive_stream(42, 3, 7).uniforms(100)
        b = derive_stream(42, 3, 8).uniforms(100)
        assert not np.array_equal(a, b)

    def test_different_cells_differ(self):
        a = derive_stream(42, 3, 7).uniforms(100)
        b = derive_stream(42, 4, 7).uniforms(100)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = derive_stream(1, 0, 0).uniforms(100)
        b = derive_stream(2, 0, 0).uniforms(100)
        assert not np.array_equal(a, b)

    def test_negative_seed_accepted(self):
        assert derive_stream(-1, 0, 0).uniforms(4).shape == (4,)


class TestEqualsNumpyStreams:
    """Every draw equals numpy's own SeedSequence spawn-key path bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(seed=WORDS, cell_id=WORDS, start=st.one_of(
        st.integers(0, 10**6), st.integers(2**32 - 8, 2**32 + 2), st.integers(0, U64)),
        rows=st.integers(1, 8), length=st.integers(2, 40), lam=st.sampled_from(GRID_LAMBDAS))
    @example(seed=0, cell_id=0, start=0, rows=3, length=17, lam=1.5)
    @example(seed=2**32 - 1, cell_id=3, start=2**32 - 4, rows=8, length=16, lam=0.1)
    @example(seed=2**32, cell_id=2**32 + 5, start=2**32 - 1, rows=2, length=33, lam=7.0)
    @example(seed=U64, cell_id=U64, start=U64 - 2, rows=3, length=8, lam=3.0)
    def test_chunk_rows(self, seed, cell_id, start, rows, length, lam):
        stop = min(start + rows, 2**64)
        got = exponential_rows(seed, cell_id, start, stop, ExponentialSpec(lam, length))
        expected = exponential_rows_reference(seed, cell_id, range(start, stop), length, lam)
        np.testing.assert_array_equal(got, expected)

    @settings(max_examples=60, deadline=None)
    @given(seed=WORDS, cell_id=WORDS, iteration=WORDS)
    @example(seed=0, cell_id=0, iteration=2**32 - 1)
    @example(seed=2**32 - 1, cell_id=U64, iteration=2**32)
    @example(seed=2**32, cell_id=7, iteration=U64)
    @example(seed=U64, cell_id=2**32, iteration=0)
    def test_one_row(self, seed, cell_id, iteration):
        expected = spawn_key_uniforms(seed, cell_id, iteration, 33)
        np.testing.assert_array_equal(derive_stream(seed, cell_id, iteration).uniforms(33),
                                      expected)
        chunk = exponential_rows(seed, cell_id, iteration, iteration + 1, ExponentialSpec(2.0, 33))
        np.testing.assert_array_equal(chunk, -np.log(expected)[None, :] / 2.0)

    @settings(max_examples=30, deadline=None)
    @given(seed=WORDS, cell_id=WORDS, iteration=WORDS)
    def test_negative_coordinates_taken_mod_2_64(self, seed, cell_id, iteration):
        expected = spawn_key_uniforms(-seed & U64, -cell_id & U64, -iteration & U64, 16)
        np.testing.assert_array_equal(derive_stream(-seed, -cell_id, -iteration).uniforms(16),
                                      expected)
        chunk = exponential_rows(-seed, -cell_id, 0, 2, ExponentialSpec(1.0, 16))
        np.testing.assert_array_equal(chunk, exponential_rows_reference(
            -seed & U64, -cell_id & U64, range(2), 16, 1.0))

    def test_minus_one_is_top_seed(self):
        np.testing.assert_array_equal(derive_stream(-1, 0, 0).uniforms(64),
                                      derive_stream(U64, 0, 0).uniforms(64))


class TestExponentialSpec:
    def test_rejects_nonpositive_rate(self):
        with pytest.raises(SeriesError):
            ExponentialSpec(lam=0.0, length=16)

    def test_rejects_short_length(self):
        with pytest.raises(SeriesError):
            ExponentialSpec(lam=1.0, length=1)


class TestExponentialSample:
    def test_inverse_cdf_hand_value(self):
        assert exponential_inverse_cdf(0.5, 1.0) == pytest.approx(math.log(2), abs=1e-12)

    def test_stubbed_uniform_source(self):
        class FixedGenerator:
            def random(self, size):
                return np.full(size, 0.5)

        stream = RngStream(generator=FixedGenerator(), master_seed=0, stream_id=(0, 0))
        sample = exponential_sample(stream, ExponentialSpec(lam=2.0, length=3))
        np.testing.assert_allclose(sample, math.log(2) / 2.0, rtol=1e-12)

    def test_zero_uniform_mapped_to_positive(self):
        class ZeroGenerator:
            def random(self, size):
                return np.zeros(size)

        stream = RngStream(generator=ZeroGenerator(), master_seed=0, stream_id=(0, 0))
        sample = exponential_sample(stream, ExponentialSpec(lam=1.0, length=2))
        assert np.all(np.isfinite(sample))
        assert np.all(sample > 0)

    def test_zero_bump_shared_by_streams_and_chunks(self, monkeypatch):
        planted = np.tile([0.0, 0.25, 0.0, 0.5], 3)

        class PlantedGenerator:
            def random(self, size=None, out=None):
                if out is None:
                    return planted[:size].copy()
                out[...] = planted[:out.size]
                return out

        monkeypatch.setattr("hurstlab.sampling._generator", lambda words: PlantedGenerator())
        bumped = np.where(planted == 0.0, np.nextafter(0.0, 1.0), planted)
        np.testing.assert_array_equal(derive_stream(1, 2, 3).uniforms(planted.size), bumped)
        rows = exponential_rows(1, 2, 0, 3, ExponentialSpec(lam=2.0, length=planted.size))
        np.testing.assert_array_equal(rows, np.tile(-np.log(bumped) / 2.0, (3, 1)))
        assert np.all(np.isfinite(rows)) and np.all(rows > 0)

    def test_law_of_large_numbers(self):
        lam, length = 0.5, 2**16
        sample = exponential_sample(derive_stream(9, 0, 0), ExponentialSpec(lam, length))
        assert abs(sample.mean() - 2.0) <= 3.0 * 2.0 / math.sqrt(length)

    def test_variance_matches_analytic(self):
        lam, length = 5.0, 2**16
        sample = exponential_sample(derive_stream(10, 0, 0), ExponentialSpec(lam, length))
        assert sample.var() == pytest.approx(1.0 / lam**2, rel=0.05)

    @pytest.mark.parametrize("lam", GRID_LAMBDAS)
    def test_all_draws_positive_and_finite(self, lam):
        sample = exponential_sample(derive_stream(11, 0, 0), ExponentialSpec(lam, 10**6))
        assert np.all(sample > 0)
        assert np.all(np.isfinite(sample))

    def test_ks_against_exponential_cdf(self):
        lam = 1.5
        sample = exponential_sample(derive_stream(12, 0, 0), ExponentialSpec(lam, 10**4))
        result = stats.kstest(sample, "expon", args=(0, 1.0 / lam))
        assert result.pvalue > 0.001
