"""Exception hierarchy shared across the package, and the rule a count
argument must pass before it is used.

The CLI maps these onto stable exit codes: validation/usage errors -> 1,
numerical failures -> 2, I/O failures -> 3.
"""

import numbers


def is_integer(value) -> bool:
    """Whether ``value`` is an integer, numpy's included, and not a bool:
    the rule a count, a seed or an iteration limit must pass."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


class GridStateError(Exception):
    """Base class for all package errors."""


class ValidationError(GridStateError):
    """Invalid input data, configuration, or arguments."""


class ParseError(ValidationError):
    """Malformed text input; carries the offending line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class StructureError(ValidationError):
    """Network or partition violates a structural invariant."""


class NumericalError(GridStateError):
    """A numerical procedure failed (divergence, singularity, optimizer)."""


class ConvergenceError(NumericalError):
    """Iteration limit reached; carries the final mismatch/step size."""

    def __init__(self, message, residual=None):
        self.residual = residual
        super().__init__(message)


class UnobservableError(NumericalError):
    """Gain matrix singular: the measurement set does not determine the state."""
