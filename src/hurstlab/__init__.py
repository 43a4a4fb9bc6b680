"""hurstlab: Hurst exponent estimation and Monte Carlo estimator comparison.

Three estimators for the self-similarity parameter H of a time series --
adjusted rescaled range (R/Sal), detrended fluctuation analysis (DFA), and
the variance-time plot (VTP) -- plus a seeded simulation harness that
measures their bias and mean square error on i.i.d. exponential data, where
the true value is H = 0.5.
"""

__version__ = "0.1.0"

from .base import EstimatorResult, WindowPolicy
from .dfa import estimate_dfa
from .errors import HurstLabError
from .regression import RegressionFit
from .rs import estimate_rs, estimate_rsal, expected_rs
from .vtp import estimate_vtp

# The grid's and the sampler's names load on first access (PEP 562), so that
# `hurstlab estimate`, which runs neither, imports neither.
_LAZY = {
    "SimulationCell": "montecarlo",
    "MethodStats": "montecarlo",
    "CellReport": "montecarlo",
    "SimulationReport": "montecarlo",
    "make_grid": "montecarlo",
    "run_grid": "montecarlo",
    "ExponentialSpec": "sampling",
    "exponential_rows": "sampling",
}

# What the README and the demos call, and the types those calls take or
# return; the kernels and their helpers stay in their modules.
__all__ = [
    "__version__",
    "HurstLabError",
    "EstimatorResult",
    "RegressionFit",
    "WindowPolicy",
    "estimate_rs",
    "estimate_rsal",
    "estimate_dfa",
    "estimate_vtp",
    "expected_rs",
    "ExponentialSpec",
    "exponential_rows",
    "SimulationCell",
    "MethodStats",
    "CellReport",
    "SimulationReport",
    "make_grid",
    "run_grid",
]


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
