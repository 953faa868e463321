"""Exception types shared across the package, plus the scalar input guards."""

import math


class DualityError(Exception):
    """Base class for every error raised by this package."""


class InvalidInputError(DualityError, ValueError):
    """An argument violates a documented precondition."""


class UndefinedVisibilityError(DualityError):
    """Fringe contrast is 0/0: the monitored output port has identically zero intensity."""


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


def require_in_range(name: str, value, lo: float = 0.0, hi: float = 1.0) -> None:
    """Raise InvalidInputError unless lo <= value <= hi; NaN fails.

    Every range checked here is nominally [0, 1]; ``lo`` and ``hi`` may widen
    it by a rounding slack that the message does not show.
    """
    if not lo <= value <= hi:
        raise InvalidInputError(f"{name} must lie in [0, 1], got {value!r}")
