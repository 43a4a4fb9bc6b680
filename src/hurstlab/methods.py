"""The method table: each estimator's batch call on a (rows, N) matrix.

The simulation grid (:func:`hurstlab.montecarlo.run_cell`), the CLI's
``estimate`` and the report writers all read :data:`METHODS`, and it
imports only the three estimator modules, so ``hurstlab estimate`` loads
neither the grid nor the sampler.
"""

from __future__ import annotations

from .dfa import dfa_batch
from .rs import rsal_batch
from .vtp import vtp_batch

__all__ = ["METHODS"]

# The method table, in report order: each grid method's batch call on a
# (rows, N) matrix, given (policy, sd_mode, vtp_divisors_only). The grid and
# the CLI both run it, and it calls each kernel through this module's
# globals, so one patched name reaches both.
METHODS = {
    "RSAL": lambda x, policy, sd_mode, divisors_only: rsal_batch(x, policy, sd_mode),
    "DFA": lambda x, policy, sd_mode, divisors_only: dfa_batch(x, policy),
    "VTP": lambda x, policy, sd_mode, divisors_only: vtp_batch(x, divisors_only=divisors_only),
}
