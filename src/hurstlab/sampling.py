"""Seeded generation of i.i.d. exponential series for the simulation grid.

Streams are derived, not shared: each (master seed, cell id, iteration)
triple maps through numpy's SeedSequence spawn-key mechanism to its own
PCG64 generator, so any subset of iterations can run in any order, in any
grouping, and still draw exactly the same numbers. Exponential
variates come from the inverse transform x = -ln(U)/lambda rather than a
rejection scheme, so the draw sequence is a pure function of the uniform
stream and reproducible by any implementation of the same generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SeriesError

__all__ = [
    "GENERATOR_NAME",
    "RngStream",
    "ExponentialSpec",
    "derive_stream",
    "exponential_inverse_cdf",
    "exponential_sample",
]

# Recorded in every simulation report; anyone reproducing the numbers needs
# the bit generator and the stream-derivation scheme, not just the seed.
GENERATOR_NAME = "numpy-pcg64/seedsequence-spawn-key"

_U64 = 2**64 - 1


@dataclass
class RngStream:
    """A deterministic uniform stream plus the coordinates that created it."""

    generator: np.random.Generator
    master_seed: int
    stream_id: tuple[int, int]

    def uniforms(self, size: int) -> np.ndarray:
        """Uniform draws on (0, 1): a zero draw is bumped to the next
        representable positive double so logs stay finite."""
        u = self.generator.random(size)
        u[u == 0.0] = np.nextafter(0.0, 1.0)
        return u


def derive_stream(master_seed: int, cell_id: int, iteration: int) -> RngStream:
    """Derive the independent stream for one (cell, iteration) pair."""
    seq = np.random.SeedSequence(
        entropy=master_seed & _U64,
        spawn_key=(cell_id & _U64, iteration & _U64),
    )
    return RngStream(
        generator=np.random.Generator(np.random.PCG64(seq)),
        master_seed=master_seed,
        stream_id=(cell_id, iteration),
    )


@dataclass(frozen=True)
class ExponentialSpec:
    """Rate parameter (lambda) and length of one exponential sample."""

    lam: float
    length: int

    def __post_init__(self):
        if not (self.lam > 0 and math.isfinite(self.lam)):
            raise SeriesError(f"rate must be a finite positive number, got {self.lam}")
        if self.length < 2:
            raise SeriesError(f"sample length must be >= 2, got {self.length}")


def exponential_inverse_cdf(u, lam: float):
    """Inverse CDF of Exponential(lambda): x = -ln(u)/lambda for u in (0, 1)."""
    return -np.log(u) / lam


def exponential_sample(stream: RngStream, spec: ExponentialSpec) -> np.ndarray:
    """Length-L series of i.i.d. Exponential(lambda) draws; all values > 0."""
    return exponential_inverse_cdf(stream.uniforms(spec.length), spec.lam)
