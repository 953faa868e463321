"""Exception types shared across the package, plus the scalar input guards."""

import math

import numpy as np


class DualityError(Exception):
    """Base class for every error raised by this package."""


class InvalidInputError(DualityError, ValueError):
    """An argument violates a documented precondition."""


class DarkPortError(DualityError):
    """The monitored output port is dark (1 + s_x cos beta vanishes), so V, D,
    the residual and the path weights, which all divide by it, are undefined."""


# The same class object, not a subclass, so that ``except`` clauses written
# against this name still catch every dark port, whichever closed form raised.
UndefinedVisibilityError = DarkPortError


class NoExtremumError(DualityError):
    """The requested peak or valley does not exist for these parameters."""


class DegenerateBasisError(DualityError):
    """The two detector states coincide, so every measurement basis is optimal.

    Carries the canonical basis in ``basis`` as a usable fallback.
    """

    def __init__(self, message, basis):
        super().__init__(message)
        self.basis = basis


def require_finite(**values) -> None:
    """Raise InvalidInputError if any named scalar is NaN or infinite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise InvalidInputError(f"{name} must be finite, got {value!r}")


def _setting(kind, value, what: str):
    # kind(value), for kind int or float, with a failed conversion as invalid
    # input (RunConfig's and SweepSpec's settings). Alone, int() would
    # truncate 2.9, and both would take True as 1.
    fractional = kind is int and isinstance(value, float) and not value.is_integer()
    if fractional or isinstance(value, (bool, np.bool_)):
        noun = "an integer" if kind is int else "a number"
        raise InvalidInputError(f"{what} must be {noun}, got {value!r}")
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(f"{what} must be {kind.__name__}, got {value!r}") from exc


def require_in_range(name: str, value, hi: float = 1.0) -> None:
    """Raise InvalidInputError unless 0 <= value <= hi; NaN fails.

    Every range checked here is nominally [0, 1]; ``hi`` may widen it by a
    rounding slack that the message does not show.
    """
    if not 0.0 <= value <= hi:
        raise InvalidInputError(f"{name} must lie in [0, 1], got {value!r}")
