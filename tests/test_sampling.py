import math
import struct
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from hurstlab.errors import SeriesError
from hurstlab.sampling import ExponentialSpec, exponential_rows
from hurstlab.series import as_series
from oracles import exponential_rows_reference, spawn_key_uniforms

GRID_LAMBDAS = (0.1, 0.5, 1.5, 3.0, 5.0, 7.0)
U64 = 2**64 - 1
# The seed's and the key's uint32 word counts change at 2**32.
WORDS = st.one_of(st.sampled_from([0, 2**32 - 1, 2**32, U64]), st.integers(0, U64))


def one_row(seed, cell_id, iteration, length, lam=1.0):
    """One iteration's series: the one-row case of exponential_rows."""
    return exponential_rows(seed, cell_id, iteration, iteration + 1,
                            ExponentialSpec(lam, length))[0]


def plant_uniforms(monkeypatch, values):
    """Make every row's generator draw ``values``, repeated to the row length."""
    class PlantedGenerator:
        def random(self, out):
            out[...] = np.resize(values, out.size)
            return out

    monkeypatch.setattr("hurstlab.sampling._generator", lambda words: PlantedGenerator())


class TestDeriveStream:
    def test_same_coordinates_same_draws(self):
        a = one_row(42, 3, 7, 100)
        b = one_row(42, 3, 7, 100)
        np.testing.assert_array_equal(a, b)

    def test_different_iterations_differ(self):
        a = one_row(42, 3, 7, 100)
        b = one_row(42, 3, 8, 100)
        assert not np.array_equal(a, b)

    def test_different_cells_differ(self):
        a = one_row(42, 3, 7, 100)
        b = one_row(42, 4, 7, 100)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = one_row(1, 0, 0, 100)
        b = one_row(2, 0, 0, 100)
        assert not np.array_equal(a, b)

    def test_negative_seed_accepted(self):
        assert one_row(-1, 0, 0, 4).shape == (4,)


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
        chunk = exponential_rows(seed, cell_id, iteration, iteration + 1, ExponentialSpec(2.0, 33))
        np.testing.assert_array_equal(chunk, -np.log(expected)[None, :] / 2.0)

    @settings(max_examples=30, deadline=None)
    @given(seed=WORDS, cell_id=WORDS, iteration=WORDS)
    def test_negative_coordinates_taken_mod_2_64(self, seed, cell_id, iteration):
        expected = spawn_key_uniforms(-seed & U64, -cell_id & U64, iteration, 16)
        np.testing.assert_array_equal(one_row(-seed, -cell_id, iteration, 16), -np.log(expected))
        chunk = exponential_rows(-seed, -cell_id, 0, 2, ExponentialSpec(1.0, 16))
        np.testing.assert_array_equal(chunk, exponential_rows_reference(
            -seed & U64, -cell_id & U64, range(2), 16, 1.0))

    def test_minus_one_is_top_seed(self):
        np.testing.assert_array_equal(one_row(-1, 0, 0, 64), one_row(U64, 0, 0, 64))


class TestIterationRange:
    """Iterations run over the uint64 range: 0 <= start <= stop <= 2**64."""

    SPEC = ExponentialSpec(1.0, 8)

    def test_stop_at_2_64_gives_the_last_iteration(self):
        rows = exponential_rows(1, 2, U64 - 1, 2**64, self.SPEC)
        np.testing.assert_array_equal(rows, exponential_rows_reference(1, 2, [U64 - 1, U64], 8, 1.0))

    def test_stop_past_2_64_raises(self):
        with pytest.raises(SeriesError, match=r"stop iteration 18446744073709551617 is above 2\*\*64"):
            exponential_rows(1, 2, U64, 2**64 + 1, self.SPEC)

    def test_negative_start_raises(self):
        with pytest.raises(SeriesError, match="start iteration -1 is below 0"):
            exponential_rows(1, 2, -1, 1, self.SPEC)

    @pytest.mark.parametrize("start", [0, 7, 2**64])
    def test_start_equal_to_stop_gives_no_rows(self, start):
        rows = exponential_rows(1, 2, start, start, self.SPEC)
        assert rows.shape == (0, 8) and rows.dtype == np.float64

    def test_stop_below_start_raises(self):
        with pytest.raises(SeriesError, match="stop iteration 6 is below start iteration 7"):
            exponential_rows(1, 2, 7, 6, self.SPEC)


class TestExponentialSpec:
    def test_rejects_nonpositive_rate(self):
        with pytest.raises(SeriesError):
            ExponentialSpec(lam=0.0, length=16)

    def test_rejects_infinite_rate(self):
        # every draw would be 0: a constant series, which the gate accepts
        with pytest.raises(SeriesError, match="finite positive"):
            ExponentialSpec(lam=math.inf, length=16)

    @pytest.mark.parametrize("length", [2, 128, 65536])
    def test_rate_edges_follow_the_draw_range(self, length, monkeypatch):
        # draws span (0, top / lambda]: top is -ln of the smallest subnormal,
        # which a uniform of 0.0 is bumped to
        top = -math.log(math.ulp(0.0))
        bound = math.sqrt(sys.float_info.max / (4.0 * length**3))
        lowest = top / bound
        ExponentialSpec(lowest * (1 + 2**-50), length)
        with pytest.raises(SeriesError, match="overflows float64 squares"):
            ExponentialSpec(lowest * (1 - 2**-50), length)
        # the largest possible draw at the lowest rate passes as_series
        as_series(np.append(np.zeros(length - 1), top / (lowest * (1 + 2**-50))))
        # two distinct draws differ by at least gap / lambda, the gap between
        # the draws of the two largest uniforms; the spread rule's edge,
        # gap / lambda = 2**-458, is exact
        gap = -math.log1p(-2.0**-53)
        highest = math.ldexp(gap, 458)
        ExponentialSpec(highest, length)
        with pytest.raises(SeriesError, match="underflows float64 squares"):
            ExponentialSpec(math.nextafter(highest, math.inf), length)
        # a row of those two draws, the least spread at the highest rate, passes
        plant_uniforms(monkeypatch, [1 - 2.0**-53, 1 - 2.0**-52])
        row = one_row(0, 0, 0, length, lam=highest)
        assert row.max() - row.min() == 2.0**-458
        as_series(row)

    @pytest.mark.parametrize("length, rows", [(2, 4096), (128, 256)])
    def test_rows_drawn_at_the_highest_rate_pass_the_gate(self, length, rows):
        # the largest rate the spec accepts, by bisection over the doubles'
        # bit patterns, which order positive doubles as their values
        def rate(bits):
            return struct.unpack("<d", struct.pack("<q", bits))[0]

        accepted, rejected = struct.unpack("<2q", struct.pack("<2d", 1.0, math.inf))
        while rejected - accepted > 1:
            mid = (accepted + rejected) // 2
            try:
                ExponentialSpec(rate(mid), length)
                accepted = mid
            except SeriesError:
                rejected = mid
        spec = ExponentialSpec(rate(accepted), length)
        for row in exponential_rows(20, 0, 0, rows, spec):
            as_series(row)

    def test_rejects_short_length(self):
        with pytest.raises(SeriesError):
            ExponentialSpec(lam=1.0, length=1)


class TestExponentialSample:
    def test_inverse_cdf_hand_value(self, monkeypatch):
        plant_uniforms(monkeypatch, 0.5)
        assert one_row(0, 0, 0, 2)[0] == pytest.approx(math.log(2), abs=1e-12)

    def test_stubbed_uniform_source(self, monkeypatch):
        plant_uniforms(monkeypatch, 0.5)
        sample = one_row(0, 0, 0, 3, lam=2.0)
        np.testing.assert_allclose(sample, math.log(2) / 2.0, rtol=1e-12)

    def test_zero_uniform_mapped_to_positive(self, monkeypatch):
        plant_uniforms(monkeypatch, 0.0)
        sample = one_row(0, 0, 0, 2)
        assert np.all(np.isfinite(sample))
        assert np.all(sample > 0)

    def test_zero_bump_shared_by_streams_and_chunks(self, monkeypatch):
        planted = np.tile([0.0, 0.25, 0.0, 0.5], 3)
        plant_uniforms(monkeypatch, planted)
        bumped = np.where(planted == 0.0, np.nextafter(0.0, 1.0), planted)
        np.testing.assert_array_equal(one_row(1, 2, 3, planted.size), -np.log(bumped))
        rows = exponential_rows(1, 2, 0, 3, ExponentialSpec(lam=2.0, length=planted.size))
        np.testing.assert_array_equal(rows, np.tile(-np.log(bumped) / 2.0, (3, 1)))
        assert np.all(np.isfinite(rows)) and np.all(rows > 0)

    def test_law_of_large_numbers(self):
        lam, length = 0.5, 2**16
        sample = one_row(9, 0, 0, length, lam)
        assert abs(sample.mean() - 2.0) <= 3.0 * 2.0 / math.sqrt(length)

    def test_variance_matches_analytic(self):
        lam, length = 5.0, 2**16
        sample = one_row(10, 0, 0, length, lam)
        assert sample.var() == pytest.approx(1.0 / lam**2, rel=0.05)

    @pytest.mark.parametrize("lam", GRID_LAMBDAS)
    def test_all_draws_positive_and_finite(self, lam):
        sample = one_row(11, 0, 0, 10**6, lam)
        assert np.all(sample > 0)
        assert np.all(np.isfinite(sample))

    def test_ks_against_exponential_cdf(self):
        lam = 1.5
        sample = one_row(12, 0, 0, 10**4, lam)
        result = stats.kstest(sample, "expon", args=(0, 1.0 / lam))
        assert result.pvalue > 0.001


class TestDrawMemory:
    """The draw finishes in the memory of its uniforms."""

    def test_peak_is_about_the_output(self):
        spec = ExponentialSpec(1.5, 1024)
        exponential_rows(6, 0, 0, 25, spec)  # first use imports numpy.random
        tracemalloc.start()
        try:
            rows = exponential_rows(7, 0, 0, 25, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the output, its zero mask (1 byte a value) and the streams' states;
        # a temporary of the output's size would add 1x
        assert peak <= 1.25 * rows.nbytes

    def test_calls_return_separate_writeable_arrays(self):
        spec = ExponentialSpec(1.5, 64)
        a = exponential_rows(1, 0, 0, 4, spec)
        b = exponential_rows(1, 0, 0, 4, spec)
        assert a.flags.writeable and b.flags.writeable
        assert not np.shares_memory(a, b)
        np.testing.assert_array_equal(a, b)
