"""
Estimating the Hurst exponent of a single series
================================================

Generates a seeded i.i.d. exponential series (no long-range dependence,
so the true H is 0.5) and runs the three estimators on it: adjusted
rescaled range, detrended fluctuation analysis, and the variance-time
plot.
"""

import numpy as np

from hurstlab import (
    ExponentialSpec,
    estimate_dfa,
    estimate_rs,
    estimate_rsal,
    estimate_vtp,
    exponential_rows,
)

# A reproducible sample: master seed 42, cell 0, iteration 0, rate 1.5.
series = exponential_rows(42, 0, 0, 1, ExponentialSpec(lam=1.5, length=1024))[0]
print(f"series: n={series.size}, mean={series.mean():.4f}, expected mean={1 / 1.5:.4f}")

for result in (
    estimate_rs(series),      # uncorrected R/S: biased high on short series
    estimate_rsal(series),    # small-sample corrected R/S
    estimate_dfa(series),
    estimate_vtp(series),
):
    print(f"\n{result.method}: H = {result.hurst:.4f}")
    print(f"  fit: slope={result.fit.slope:.4f} intercept={result.fit.intercept:.4f} "
          f"rms={result.fit.residual_rms:.4f} over {result.scales.size} points")
    if result.warnings:
        print(f"  warnings: {', '.join(result.warnings)}")

# The regression points behind the adjusted R/S estimate: the statistic
# grows like n**0.5 once the finite-sample expectation is removed.
print("\nadjusted R/S scale points (n, statistic, statistic/sqrt(n)):")
result = estimate_rsal(series)
for n, statistic in zip(result.scales, result.statistics):
    print(f"  {n:4d}  {statistic:9.4f}  {statistic / np.sqrt(n):.4f}")
