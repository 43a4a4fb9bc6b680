"""Independent reference implementation behind the benchmark's correctness gate.

Nothing here imports hurstlab. The estimators are re-derived from their
definitions (README / module docstrings) and batched over the iterations of
a cell, so checking a whole Monte Carlo report costs a fraction of producing
it. The stream scheme (PCG64 seeded by SeedSequence(entropy=seed,
spawn_key=(cell_id, iteration)), zero uniforms bumped to the smallest
positive double, inverse-CDF exponentials) is the one every hurstlab report
names in its ``generator`` field.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

# Estimates are compared with math.isclose at this tolerance. The reference
# sums in a different order than hurstlab, so agreement is to a few ulp, far
# inside the tolerance; any real change to an estimator moves results by
# many orders of magnitude more.
REL_TOL = 1e-9
ABS_TOL = 1e-12

# Every cell's mean R/Sal estimate must lie in TRUE_HURST +/- RSAL_BAND.
TRUE_HURST = 0.5
RSAL_BAND = 0.015

DFA_MIN_WINDOW = 4


def exponential_series(seed: int, cell_id: int, iteration: int, lam: float,
                       length: int) -> np.ndarray:
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(cell_id, iteration))
    u = np.random.Generator(np.random.PCG64(seq)).random(length)
    u[u == 0.0] = np.nextafter(0.0, 1.0)
    return -np.log(u) / lam


def _divisor_windows(n_obs: int, lo: int) -> list[int]:
    return [d for d in range(lo, n_obs // 2 + 1) if n_obs % d == 0]


def _slopes(log_x: np.ndarray, log_y: np.ndarray) -> np.ndarray:
    """OLS slope of each row of log_y (k, m) against log_x (m,)."""
    xc = log_x - log_x.mean()
    yc = log_y - log_y.mean(axis=1, keepdims=True)
    return (yc @ xc) / (xc @ xc)


@lru_cache(maxsize=None)
def anis_lloyd_peters(n: int) -> float:
    """E(R/S)_n for i.i.d. data; asymptotic gamma ratio above n = 340."""
    if n <= 340:
        ratio = math.exp(math.lgamma((n - 1) / 2) - math.lgamma(n / 2)) / math.sqrt(math.pi)
    else:
        ratio = 1.0 / math.sqrt(n * math.pi / 2)
    i = np.arange(1.0, n)
    tail = float(np.sqrt((n - i) / i).sum())
    return (n - 0.5) / n * ratio * tail


def rsal(x: np.ndarray) -> np.ndarray:
    """Adjusted rescaled-range estimates for the rows of x (sample SD)."""
    k, n_obs = x.shape
    wins = _divisor_windows(n_obs, 2)
    stats = np.empty((k, len(wins)))
    for j, n in enumerate(wins):
        seg = x.reshape(k, n_obs // n, n)
        centred = seg - seg.mean(axis=2, keepdims=True)
        sd = np.sqrt((centred ** 2).sum(axis=2) / (n - 1))
        prof = np.cumsum(centred, axis=2)
        rs = np.where(sd > 0, (prof.max(axis=2) - prof.min(axis=2)) / np.where(sd > 0, sd, 1), np.nan)
        stats[:, j] = np.nanmean(rs, axis=1)
        stats[:, j] += math.sqrt(0.5 * math.pi * n) - anis_lloyd_peters(n)
    with np.errstate(invalid="ignore", divide="ignore"):
        logs = np.where(stats > 0, np.log(np.where(stats > 0, stats, 1)), np.nan)
    return _slopes(np.log(wins), logs)


def dfa(x: np.ndarray) -> np.ndarray:
    """DFA estimates for the rows of x (uncentred profile, linear detrend)."""
    k, n_obs = x.shape
    wins = _divisor_windows(n_obs, DFA_MIN_WINDOW)
    stats = np.empty((k, len(wins)))
    for j, n in enumerate(wins):
        prof = np.cumsum(x.reshape(k, n_obs // n, n), axis=2)
        t = np.arange(1, n + 1, dtype=float)
        tc = t - t.mean()
        slope = (prof @ tc) / (tc @ tc)
        fitted = prof.mean(axis=2, keepdims=True) + slope[..., None] * tc
        stats[:, j] = np.sqrt(((prof - fitted) ** 2).mean(axis=2)).mean(axis=1)
    with np.errstate(divide="ignore"):
        return _slopes(np.log(wins), np.where(stats > 0, np.log(stats), np.nan))


def vtp(x: np.ndarray) -> np.ndarray:
    """Variance-time estimates for the rows of x, block sizes 1..N/4."""
    k, n_obs = x.shape
    ws = np.arange(1, n_obs // 4 + 1)
    counts = n_obs // ws
    # Block j of size w spans [j*w, (j+1)*w): all blocks of all sizes at once.
    w_of = np.repeat(ws, counts)
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
    j = np.arange(w_of.size) - np.repeat(offsets, counts)
    cs = np.concatenate((np.zeros((k, 1)), np.cumsum(x, axis=1)), axis=1)
    means = (cs[:, (j + 1) * w_of] - cs[:, j * w_of]) / w_of
    sq = (means - x.mean(axis=1, keepdims=True)) ** 2
    var = np.add.reduceat(sq, offsets, axis=1) / counts
    with np.errstate(divide="ignore"):
        logs = np.where(var > 0, np.log(var), np.nan)
    return 1.0 + _slopes(np.log(ws), logs) / 2.0


ESTIMATORS = {"RSAL": rsal, "DFA": dfa, "VTP": vtp}


def simulate_cell(seed: int, cell_id: int, lam: float, length: int,
                  iterations: int) -> dict:
    """Reference aggregates for one Monte Carlo cell, keyed like the report."""
    x = np.stack([exponential_series(seed, cell_id, i, lam, length)
                  for i in range(iterations)])
    out = {}
    for method, estimator in ESTIMATORS.items():
        h = estimator(x)
        ok = h[np.isfinite(h)]
        out[method] = {
            "mean_hurst": float(ok.mean()) if ok.size else math.nan,
            "mse": float(((ok - TRUE_HURST) ** 2).mean()) if ok.size else math.nan,
            "failure_count": int(iterations - ok.size),
        }
    return out


def estimate_series(x: np.ndarray) -> dict[str, float]:
    """Reference R/Sal, DFA and VTP estimates of one series."""
    row = x[None, :]
    return {method: float(estimator(row)[0]) for method, estimator in ESTIMATORS.items()}


def close(actual: float, expected: float) -> bool:
    return math.isclose(actual, expected, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def check_report(doc: dict, seed: int, band: bool) -> list[str]:
    """Problems found comparing a parsed simulation report with the reference.

    Checks, for every cell: mean_hurst and mse within REL_TOL/ABS_TOL of the
    reference, identical failure counts and, with ``band``, the R/Sal mean
    inside TRUE_HURST +/- RSAL_BAND (which needs about 200 iterations a cell).
    """
    problems = []
    for cell_id, cell in enumerate(doc["cells"]):
        where = f"cell {cell_id} (lambda={cell['lambda']}, N={cell['length']})"
        ref = simulate_cell(seed, cell_id, cell["lambda"], cell["length"],
                            cell["iterations"])
        for method, expected in ref.items():
            got = cell["methods"][method]
            if got["failure_count"] != expected["failure_count"]:
                problems.append(f"{where} {method}: failure_count "
                                f"{got['failure_count']} != {expected['failure_count']}")
            for key in ("mean_hurst", "mse"):
                if not close(got[key], expected[key]):
                    problems.append(f"{where} {method}: {key} {got[key]!r} != "
                                    f"reference {expected[key]!r}")
        rsal_mean = cell["methods"]["RSAL"]["mean_hurst"]
        if band and not abs(rsal_mean - TRUE_HURST) <= RSAL_BAND:
            problems.append(f"{where}: R/Sal mean {rsal_mean:.4f} outside "
                            f"{TRUE_HURST} +/- {RSAL_BAND}")
    return problems
