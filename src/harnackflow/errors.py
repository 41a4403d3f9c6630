"""Exception hierarchy for the harnackflow package.

All package errors derive from :class:`HarnackFlowError` so callers can
catch the whole family at an orchestration boundary.  Every error carries
the failing time in ``.time``: set by errors raised during integration,
None where no time applies.  The ``require_*`` functions (a real number,
a count, a path, an instance of a class, an iterable of them, a random
generator) are the typed refusals of a bad argument, shared by every
module.
"""

import math
import numbers
import os


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


def require_real(value, name, finite=False):
    """Refuse a ``value`` that is not a real number, or is a bool, or if ``finite`` is not finite, naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConstraintViolationError(f"{name} = {value!r} must be a real number")
    if finite and not abs(value) < math.inf:  # NaN fails too
        raise ConstraintViolationError(f"{name} = {value!r} must be finite")


def require_path(value, name="path"):
    """Refuse a ``value`` that is not a non-empty str or os.PathLike path, naming ``name``, before anything is opened.

    ``open`` would take an int (a bool too) as a file descriptor to read,
    write or close.
    """
    if not isinstance(value, (str, os.PathLike)) or not os.fspath(value):
        raise ConstraintViolationError(f"{name} = {value!r} must be a non-empty str or os.PathLike path")


def require_kind(value, kind, name):
    """Refuse a ``value`` that is not an instance of the class ``kind`` (or of one in a tuple), naming ``name``."""
    if not isinstance(value, kind):
        kinds = " or ".join(k.__name__ for k in kind) if isinstance(kind, tuple) else kind.__name__
        raise ConstraintViolationError(f"{name} = {value!r:.80} must be a {kinds}")


def require_rng(rng, name="rng"):
    """Refuse an ``rng`` without a ``random()`` method, naming ``name``."""
    if not callable(getattr(rng, "random", None)):
        raise ConstraintViolationError(f"{name} = {rng!r:.80} must have a random() method returning floats in [0, 1)")


def require_items(values, kind, name):
    """``values`` as a list, refusing a non-iterable and an item that is not a ``kind``, naming ``name``."""
    try:
        items = list(values)
    except TypeError:
        raise ConstraintViolationError(f"{name} = {values!r:.80} must be an iterable of {kind.__name__}") from None
    for i, item in enumerate(items):
        require_kind(item, kind, f"{name}[{i}]")
    return items


def require_count(value, name, what="a nonnegative integer"):
    """Refuse a ``value`` that is not a nonnegative integer, or is a bool, naming it as ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
        raise ConstraintViolationError(f"{name} = {value!r} must be {what}")


# what ``harnackflow`` exports from here: the errors and the two checks of a number
__all__ = [name for name, obj in dict(globals()).items() if isinstance(obj, type) and issubclass(obj, HarnackFlowError)]
__all__ += ["require_real", "require_count"]
