"""Exception hierarchy for hurstlab.

Every estimation failure raises a subclass of :class:`HurstLabError`, so
callers (the Monte Carlo driver, the CLI) can catch one base class and
still report the precise precondition that failed.
"""


class HurstLabError(ValueError):
    """Base class for all hurstlab errors."""


class SeriesError(HurstLabError):
    """Invalid time-series input (non-finite values, too short, wrong shape)."""


class NonDivisorWindow(HurstLabError):
    """Window length n does not divide the series length exactly."""


class WindowTooSmall(HurstLabError):
    """Window length below the minimum the operation supports."""


class InvalidWindow(HurstLabError):
    """Window length outside the domain of the expected-R/S correction."""


class DegenerateDesign(HurstLabError):
    """Regression input has fewer than 2 points or no x spread."""


class AllSubseriesDegenerate(HurstLabError):
    """Every subseries at this window has zero standard deviation."""


class InsufficientWindows(HurstLabError):
    """The window policy yields fewer than 2 usable windows."""


class NonPositiveStatistic(HurstLabError):
    """An adjusted R/S value is <= 0, so its log is undefined."""


class ZeroFluctuation(HurstLabError):
    """Mean detrended fluctuation is 0 (globally linear cumulative profile)."""


class ScaleTooLarge(HurstLabError):
    """Aggregation block size is not an integer in [1, N/2]."""


class ZeroVariance(HurstLabError):
    """Aggregated series has zero variance, so its log is undefined."""


class InsufficientScales(HurstLabError):
    """Fewer than 2 usable aggregation scales."""


class EmptyEstimates(HurstLabError):
    """MSE requested over an empty list of estimates."""


class CellFailed(HurstLabError):
    """Every iteration of a simulation cell failed for some method."""


class SeriesParseError(HurstLabError):
    """A series file line could not be parsed; carries the 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number
