"""Exception and warning types shared across the toolkit, and its input checks.

Numeric routines refuse to return garbage: anything evaluated inside a pole
exclusion disk raises PoleError, divergent series raise DivergenceError, an
evaluator that stops at its bound short of its accuracy target raises
AccuracyError, and values that would leave double range raise the builtin
OverflowError.
"""

import cmath
import operator


class EisenkitError(Exception):
    """Base class for all toolkit errors."""


class PoleError(EisenkitError):
    """Evaluation point lies inside the exclusion disk of a pole."""


class DomainError(EisenkitError):
    """Argument outside the documented domain (e.g. y <= 0)."""


class DivergenceError(EisenkitError):
    """Series or product evaluated where it does not converge."""


class AccuracyError(DivergenceError):
    """Evaluator reached its bound short of its accuracy target."""


class InvalidTypeError(EisenkitError):
    """Not a valid simple Cartan type / rank combination."""


class PlaceDataError(EisenkitError):
    """Malformed Satake place-data input."""

    def __init__(self, message, line_number=None):
        self.line_number = line_number
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)


class ConvergenceWarning(UserWarning):
    """Euler product evaluated with a thin convergence margin."""


def finite_complex(value, what: str) -> complex:
    """value as a complex number; DomainError unless both parts are finite."""
    value = complex(value)
    if not cmath.isfinite(value):
        raise DomainError(f"{what} needs a finite argument, got {value}")
    return value


def integer(value, what: str) -> int:
    """value as an int (numpy integers pass); DomainError unless it is one."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{what} must be an integer, got {value!r}") from None
