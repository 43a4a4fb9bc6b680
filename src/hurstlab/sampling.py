"""Seeded generation of i.i.d. exponential series for the simulation grid.

Every draw comes from :func:`exponential_rows`. Streams are derived, not
shared: each (master seed, cell id, iteration) triple is numpy's spawn-key
stream,
``Generator(PCG64(SeedSequence(master_seed, spawn_key=(cell_id, iteration))))``,
so any subset of iterations can run in any order, in any grouping, and
still draw exactly the same numbers. Seed and cell id are taken mod 2**64;
iterations run over the uint64 range, 0 to 2**64 - 1. Exponential variates
come from the inverse transform x = -ln(U)/lambda rather than a rejection
scheme, so the draw sequence is a pure function of the uniform stream and
reproducible by any implementation of the same generator.

The streams of a chunk of iterations are computed at once, without a
``SeedSequence`` per iteration. SeedSequence hashes its entropy words with
numpy's port of O'Neill's ``seed_seq_fe``, whose output numpy keeps fixed
under its stream-compatibility policy (NEP 19). The words come in order:
the seed, zero-padded to the 4-word pool, then the cell id, then the
iteration. The hash constants advance the same way whatever the words are,
so the pool after the cell id is shared by every iteration of a cell: numpy
hashes it, as ``SeedSequence(seed, spawn_key=(cell_id,)).pool``, and it is
cached for the last (seed, cell id). hurstlab hashes only the iteration's
word(s) and the 8-word ``generate_state(4, uint64)`` output, for all rows
at once, in uint32 numpy arithmetic. PCG64 then seeds itself from
those words exactly as from the SeedSequence, with the two LCG steps of
O'Neill 2014 ("PCG: A family of simple fast space-efficient statistically
good algorithms").
``tests/oracles.py`` keeps numpy's own per-row path, and the tests require
every draw to equal it bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import SeriesError
from .series import _check_range

__all__ = ["GENERATOR_NAME", "ExponentialSpec", "exponential_rows"]

# Recorded in every simulation report; anyone reproducing the numbers needs
# the bit generator and the stream-derivation scheme, not just the seed.
GENERATOR_NAME = "numpy-pcg64/seedsequence-spawn-key"

_U64 = 2**64 - 1
_MASK32 = 0xFFFFFFFF

# SeedSequence's pool size and hash constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715

# The largest draw at rate 1: a uniform of 0.0 is bumped to the smallest subnormal.
_DRAW_MAX = -math.log(math.ulp(0.0))
# The smallest gap between two distinct draws at rate 1. Uniforms are k * 2**-53,
# and the draws of k and k + 1 differ by ln((k + 1) / k), least at the largest k.
_DRAW_GAP = -math.log1p(-2.0**-53)


def _hash_constants(init: int, mult: int, count: int) -> list[tuple[int, int]]:
    """The hash constant before and after each of ``count`` successive
    SeedSequence hashes, each of which multiplies it by ``mult``."""
    pairs = []
    for _ in range(count):
        pairs.append((init, init * mult & _MASK32))
        init = pairs[-1][1]
    return pairs


def _hash(value, before, after):
    """SeedSequence's ``hashmix`` of uint32 words, elementwise."""
    value = (value ^ before) * after & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    """SeedSequence's ``mix`` of uint32 words, elementwise."""
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ result >> 16


# After the pool's 4 words and its 12 ordered pairs (16 hashes), SeedSequence
# mixes each later word, of the cell id's 2 at most and the iteration's 2 at
# most, into all four pool words: one (before, after) row of 4 hashes per word.
_LATER_CONSTANTS = np.array(_hash_constants(_INIT_A, _MULT_A, 32)[16:], np.uint32).reshape(
    -1, _POOL_SIZE, 2).transpose(0, 2, 1)
# generate_state(4, uint64) hashes 8 uint32 words, cycling through the pool.
_STATE_CONSTANTS = np.array(_hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE), np.uint32).T
_STATE_WORDS = np.arange(2 * _POOL_SIZE) % _POOL_SIZE


@functools.lru_cache(maxsize=1)
def _prefix_pool(master_seed: int, cell_id: int) -> tuple[np.ndarray, int]:
    """numpy's pool after the (seed, cell id) prefix, as a read-only uint32
    array, and the number of cell-id words. Cached for the last prefix, which
    a cell's later chunks and repeated one-row draws share."""
    pool = np.random.SeedSequence(master_seed, spawn_key=(cell_id,)).pool
    pool.flags.writeable = False
    return pool, 1 if cell_id <= _MASK32 else 2


def _stream_states(master_seed: int, cell_id: int, iterations: np.ndarray) -> np.ndarray:
    """``SeedSequence(master_seed, spawn_key=(cell_id, k)).generate_state(4,
    np.uint64)`` for each k of the uint64 array ``iterations``, as rows of a
    (len(iterations), 4) uint64 matrix. Seed and cell id are taken mod 2**64."""
    pool, cell_words = _prefix_pool(master_seed & _U64, cell_id & _U64)

    # The iteration's words, all rows at once, into the four pool words side
    # by side. An iteration of 2**32 or more has a second word, others not.
    low, high = _LATER_CONSTANTS[cell_words:][:2]
    pool = _mix(pool, _hash(iterations.astype(np.uint32)[:, None], *low))
    high_words = (iterations >> 32).astype(np.uint32)[:, None]
    if high_words.any():
        pool = np.where(high_words > 0, _mix(pool, _hash(high_words, *high)), pool)
    state = _hash(pool[:, _STATE_WORDS], *_STATE_CONSTANTS)
    # word pairs join little-endian, whatever the host's byte order
    return np.ascontiguousarray(state, "<u4").view("<u8").astype(np.uint64, copy=False)


@functools.cache
def _spawn_state_type() -> type:
    """An ``ISeedSequence`` holding one row of :func:`_stream_states`, a
    spawn-key SeedSequence's ``generate_state(4, uint64)``: PCG64 seeds
    itself from these words as it would from the SeedSequence. PCG64 reads
    them once, when it is made, so one such object serves a chunk's rows in
    turn, its ``words`` set to each row's. Made on first use, so that
    importing this module does not import numpy.random (9-10 ms under
    ``python -X importtime``, 11 ms more per fresh interpreter), which only
    a draw uses; ``hurstlab estimate`` does not import this module at all."""
    from numpy.random.bit_generator import ISeedSequence

    class SpawnState(ISeedSequence):
        words: np.ndarray

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return SpawnState


def _generator(state) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(state))


@dataclass(frozen=True)
class ExponentialSpec:
    """Rate parameter (lambda) and length of one exponential sample. Its draws
    must pass ``as_series``'s range rule: they reach _DRAW_MAX / lambda, and a
    sample that is not constant spreads at least _DRAW_GAP / lambda."""

    lam: float
    length: int

    def __post_init__(self):
        if not (self.lam > 0 and math.isfinite(self.lam)):
            raise SeriesError(f"rate must be a finite positive number, got {self.lam}")
        if self.length < 2:
            raise SeriesError(f"sample length must be >= 2, got {self.length}")
        top = _DRAW_MAX / self.lam
        # a gap that underflows to 0 is still below the spread edge
        gap = _DRAW_GAP / self.lam or math.ulp(0.0)
        _check_range(self.length, top, gap, f"Exponential({self.lam!r}) draws")


def exponential_rows(master_seed: int, cell_id: int, start: int, stop: int,
                     spec: ExponentialSpec) -> np.ndarray:
    """Iterations ``start`` to ``stop - 1`` of a cell as a (stop - start, L)
    matrix of i.i.d. Exponential(lambda) draws, all finite and > 0. Row r is
    -ln(u)/lambda of the first L uniforms of iteration start + r's stream,
    with a uniform of exactly 0.0 bumped to the next positive double so its
    log stays finite. One series is ``exponential_rows(seed, cell_id, k,
    k + 1, spec)[0]``.

    Iterations are the uint64 range: 0 <= start <= stop <= 2**64, else
    ``SeriesError``. Seed and cell id are taken mod 2**64."""
    if start < 0:
        raise SeriesError(f"start iteration {start} is below 0")
    if stop < start:
        raise SeriesError(f"stop iteration {stop} is below start iteration {start}")
    if stop > 2**64:
        raise SeriesError(f"stop iteration {stop} is above 2**64")
    u = np.empty((stop - start, spec.length))
    iterations = np.arange(start, stop, dtype=np.uint64)
    state = _spawn_state_type()()
    for row, words in zip(u, _stream_states(master_seed, cell_id, iterations)):
        state.words = words
        _generator(state).random(out=row)
    # uniforms are never negative, so this bumps exactly the zeros
    np.maximum(u, np.nextafter(0.0, 1.0), out=u)
    # Finished in u's own memory: three throwaway (rows, L) arrays per chunk
    # moved the heap layout that decides whether glibc gives pages back
    # after a call and faults them in again on the next. Negation is exact
    # and IEEE division is sign-symmetric, so ln(u) / -lambda has the bits
    # of -ln(u) / lambda.
    np.log(u, out=u)
    u /= -spec.lam
    return u
