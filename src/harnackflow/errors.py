"""Exception hierarchy for the harnackflow package.

All package errors derive from :class:`HarnackFlowError` so callers can
catch the whole family at an orchestration boundary.  Every error carries
the failing time in ``.time``: set by errors raised during integration,
None where no time applies.
"""


class HarnackFlowError(Exception):
    """Base class for all harnackflow errors."""

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time


class GridMismatchError(HarnackFlowError):
    """A field's shape does not match the geometry that owns it."""


class PositivityLostError(HarnackFlowError):
    """The heat field dropped to or below zero."""


class BlowupError(HarnackFlowError):
    """A field exceeded the overflow guard (|value| > 1e12) or went non-finite."""


class StepTooLargeError(HarnackFlowError):
    """Requested time step violates the CFL bound of the current state."""

    def __init__(self, dt, bound):
        super().__init__(
            f"dt = {dt:.6g} violates the CFL bound 0.2*h^2*min(e^(2*phi)) = {bound:.6g}"
        )
        self.dt = dt
        self.bound = bound


class IndexAtBoundaryError(HarnackFlowError):
    """Centered time differencing requested at the first or last snapshot."""


class NonPositiveFError(HarnackFlowError):
    """A quantity requiring f > 0 was evaluated on a state with min f <= 0."""


class NonPositiveTimeError(HarnackFlowError):
    """A quantity with 1/t terms was evaluated at t <= 0."""


class NonPositiveCurvatureError(HarnackFlowError):
    """A quantity requiring R > 0 was evaluated where min R <= 0."""


class FOutOfRangeError(HarnackFlowError):
    """The gradient-estimate quantity requires 0 < f < 1 everywhere."""


class DegenerateParamsError(HarnackFlowError):
    """Parameter tuple hits a denominator of the displayed identity."""


class VariantMismatchError(HarnackFlowError):
    """Trajectory was generated with a different reaction coefficient c."""


class TimesNotStoredError(HarnackFlowError):
    """Requested time is not one of the trajectory's stored snapshot times."""


class NodesOutOfRangeError(HarnackFlowError):
    """Requested node index lies outside the grid."""


class WindowTooNarrowError(HarnackFlowError):
    """No window-constrained path joins the requested space-time points."""


class TrajectoryFormatError(HarnackFlowError):
    """A trajectory file is truncated, has trailing bytes or a malformed header."""


class ConfigError(HarnackFlowError):
    """Base class for scenario-configuration errors."""


class ConfigFileError(ConfigError):
    """A config file cannot be read or is not UTF-8 text."""


class ConfigSyntaxError(ConfigError):
    def __init__(self, message, line):
        super().__init__(f"line {line}: {message}")
        self.line = line


class UnknownKeyError(ConfigError):
    def __init__(self, key, line=None):
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"unknown key {key!r}{where}")
        self.key = key
        self.line = line


class ConstraintViolationError(ConfigError):
    """A config value violates a documented constraint."""
