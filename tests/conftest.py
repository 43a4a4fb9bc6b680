import numpy as np
import pytest

from hurstlab import ExponentialSpec, exponential_rows


@pytest.fixture
def exp_series():
    """Factory for seeded exponential series."""

    def make(length: int, lam: float = 1.0, seed: int = 0, iteration: int = 0) -> np.ndarray:
        spec = ExponentialSpec(lam=lam, length=length)
        return exponential_rows(seed, 0, iteration, iteration + 1, spec)[0]

    return make
