"""Shared exception types and input checks."""

import math
import numbers


class GuardExceeded(RuntimeError):
    """Raised when an exact computation would blow past its size guard.

    Guards protect the exact evaluators (exhaustive enumeration, support
    convolution, signature dynamic program) from combinatorial blowup.
    Callers should shrink the instance or relax the parameter the message
    names; results are never silently approximated.
    """


def check_count(value, name: str):
    """Return ``value`` if it is an integer >= 1 (bools excluded), else raise ValueError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{name} must be >= 1 and an integer, got {value!r}")
    return value


def check_real(value, name: str) -> float:
    """Return ``value`` as a float if it is a finite real number (bools and ints too large for a float excluded),
    else raise ValueError."""
    try:
        if not isinstance(value, bool) and isinstance(value, numbers.Real) and math.isfinite(value):
            return float(value)
    except OverflowError:  # an int too large for a float
        pass
    raise ValueError(f"{name} must be a finite real number, got {value!r}")
