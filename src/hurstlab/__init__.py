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
from .montecarlo import (
    CellReport,
    MethodStats,
    SimulationCell,
    SimulationReport,
    make_grid,
    run_grid,
)
from .regression import RegressionFit
from .rs import estimate_rs, estimate_rsal, expected_rs
from .sampling import ExponentialSpec, exponential_rows
from .vtp import estimate_vtp

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
