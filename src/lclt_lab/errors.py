"""Exception types shared across the package."""

import math
import sys

# Largest finite exponent: e^x overflows float64 past it, and a value that
# would is a CapacityError, never inf or NaN.
LOG_FLOAT_MAX = math.log(sys.float_info.max)
# Log of the smallest normal float64: e^x under it loses precision or is 0.
LOG_FLOAT_MIN = math.log(sys.float_info.min)


class DomainError(ValueError):
    """An argument lies outside the documented domain of an operation."""


class CapacityError(RuntimeError):
    """A requested computation exceeds its enumeration or memory budget.

    The message always names the offending count so callers can decide
    whether to raise the budget or shrink the problem.
    """


class PreconditionError(RuntimeError):
    """A mathematical precondition of a check is not satisfied.

    Raised, for instance, when a decay-bound verification is requested on a
    model whose decimation-step threshold condition fails: the bound is not
    claimed there, so checking it would be meaningless.
    """


class DegenerateDistributionError(DomainError):
    """A distribution has too little spread for the requested diagnostic."""


def require_normal_exp(what: str, symbol: str, log_value: float) -> None:
    """Raise CapacityError unless e^log_value is a finite, positive normal
    float64, naming log_value and the end of the range it passed; a NaN
    log_value is not finite."""
    if not log_value <= LOG_FLOAT_MAX:
        raise CapacityError(
            f"{what} is not finite in float64: log {symbol} is {log_value:.1f}, float64 ends at {LOG_FLOAT_MAX:.1f}"
        )
    if log_value < LOG_FLOAT_MIN:
        raise CapacityError(
            f"{what} is not a positive normal float64: log {symbol} is {log_value:.1f},"
            f" float64 normals end at {LOG_FLOAT_MIN:.1f}"
        )
