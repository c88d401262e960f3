"""Exception types shared across the package, and its one set of input parsers.

Every public constructor, config and loader reads its numeric fields
through the parsers below, each given the field's name for its messages.
Python and numpy integers are stored as int and Python and numpy reals as
float; a bool (Python's or numpy's), a numeric string or an array where a
number belongs raises TypeError; a value out of range, NaN or +-inf raises
ValueError, or the subclass a caller documents.  Nothing is truncated.
"""
from __future__ import annotations

from numbers import Integral, Real

import numpy as np


def _scalar(name: str, value, kind: type, noun: str):
    """value if it is an instance of kind and not a bool, else TypeError."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise TypeError(f"{name} must be {noun}, got {type(value).__name__} {value!r}")
    return value


def count(name: str, value, floor: int) -> int:
    """value as an int of at least floor: a Python or numpy integer (a
    float of integral value is not one, nor is True a count of 1)."""
    value = int(_scalar(name, value, Integral, "an integer"))
    if value < floor:
        raise ValueError(f"{name} must be nonnegative" if floor == 0
                         else f"{name} must be at least {floor}")
    return value


def counts(name: str, values, floor: int) -> tuple[int, ...]:
    """values, a sequence of at least one count, as a tuple of ints of at least floor."""
    if not np.iterable(values):
        raise TypeError(f"{name} must be a sequence of integers, got {values!r}")
    values = tuple(count(name, v, floor) for v in values)
    if not values:
        raise ValueError(f"{name} must hold at least one integer")
    return values


def real(name: str, value) -> float:
    """value as a float: a Python or numpy real, integers included.  Its
    range, which NaN fails, is the caller's rule."""
    return float(_scalar(name, value, Real, "a real number"))


def positive(name: str, value) -> float:
    """value as a float in (0, inf)."""
    value = real(name, value)
    if not 0.0 < value < np.inf:
        raise ValueError(f"{name} must be positive and finite")
    return value


def numeric(name: str, value) -> np.ndarray:
    """value as a float array (value itself when it is one): numbers, or an
    array of integer or real dtype.  numpy reads it as one array, so its
    dtype is the rule: a bool or string dtype raises TypeError."""
    array = np.asarray(value)
    if array.dtype.kind not in "iuf":
        raise TypeError(f"{name} must hold integers or reals, got {array.dtype} data")
    return array.astype(float, copy=False)


def vector(name: str, value) -> np.ndarray:
    """value as a new finite float vector of at least one entry (numeric)."""
    array = np.array(numeric(name, value))
    if array.ndim != 1 or not len(array) or not np.isfinite(array).all():
        raise ValueError(f"{name} must be a finite vector, got shape {array.shape}")
    return array


def operator_list(name: str, operators) -> tuple[tuple, object]:
    """(operators as a tuple, their one dimension): EmptyOperatorList when
    there are none, DimensionMismatch when their dims differ."""
    operators = tuple(operators)
    if not operators:
        raise EmptyOperatorList(f"{name} needs at least one operator")
    dim = operators[0].dim
    if any(op.dim != dim for op in operators):
        raise DimensionMismatch(f"{name}: operators must share one dimension")
    return operators, dim


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
