"""Exception types shared across the package, and its one integer check."""
from __future__ import annotations

from operator import index


def integer(value) -> int:
    """value as an int: a Python or numpy integer, but not a bool (True is
    not a count of 1).  Anything else, a float of integral value or a
    numeric string included, raises TypeError."""
    if isinstance(value, bool):
        raise TypeError(f"expected an integer, got the bool {value!r}")
    return index(value)


class DimensionMismatch(ValueError):
    """Operands do not live in the same space."""


class BlockCountMismatch(DimensionMismatch):
    """Number of blocks does not match the number of operators."""


class CollinearNoCircumcenter(ArithmeticError):
    """Three pairwise-distinct collinear points admit no equidistant point."""


class InvalidWeight(ValueError):
    """Weights must be nonnegative and sum to one (or lie in the open unit interval)."""


class NotDiagonal(ValueError):
    """Lifted point is not (close to) a copy of one vector in every block."""


class NotInSubspace(ValueError):
    """Iterate is required to lie in the given affine subspace."""


class RootNotBracketed(ArithmeticError):
    """Projection multiplier search hit its iteration cap or met non-finite input."""


class EmptyOperatorList(ValueError):
    """At least one operator is required."""


class InsufficientHistory(ValueError):
    """Distance history too short (or too degenerate) to estimate a rate."""


class EmptyGroup(ValueError):
    """No results to aggregate."""


class CannotExitSets(RuntimeError):
    """Could not find a starting point outside every generated set."""


class DiagnosticFailure(RuntimeError):
    """A per-iteration runtime check failed during a solver run."""

    def __init__(self, check: str, iteration: int, value: float):
        self.check = check
        self.iteration = iteration
        self.value = value
        super().__init__(
            f"diagnostic {check!r} failed at iteration {iteration}: value {value:.3e}"
        )
