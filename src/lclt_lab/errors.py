"""Exception types shared across the package."""

import math
import sys

# Largest finite exponent: e^x overflows float64 past it, and a value that
# would is a CapacityError, never inf or NaN.
LOG_FLOAT_MAX = math.log(sys.float_info.max)


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
