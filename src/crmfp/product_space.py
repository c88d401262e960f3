"""Product-space lifting for many-set problems.

A lifted point is an (m, n) array, one row per operator.  Applying all
operators rowwise and projecting onto the diagonal subspace {(x, ..., x)}
turns a many-operator problem into a two-set problem; the diagonal
projection is the blockwise mean.  Starting any two-set method on the
diagonal reproduces the parallel (averaged) iteration of the original
operators row for row.
"""
from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import (
    BlockCountMismatch,
    DimensionMismatch,
    EmptyOperatorList,
    NotDiagonal,
)
from .operators import EvaluationPlan, apply_each  # noqa: F401  (a perfbench trace site)


def _check_lifted(x, m: int | None = None, n: int | None = None) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise DimensionMismatch(f"lifted point must be 2-d, got shape {x.shape}")
    if n is not None and x.shape[1] != n:
        raise DimensionMismatch(f"blocks have dimension {x.shape[1]}, expected {n}")
    if m is not None and x.shape[0] != m:
        raise BlockCountMismatch(f"{x.shape[0]} blocks, expected {m}")
    return x


def embed(x, m: int) -> np.ndarray:
    """Diagonal embedding: m stacked copies of x."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise DimensionMismatch(f"expected a vector, got shape {x.shape}")
    if m < 1:
        raise ValueError("need at least one block")
    return np.tile(x, (m, 1))


def extract(x, tol: float = 1e-9) -> np.ndarray:
    """Common block of a (numerically) diagonal lifted point.

    Raises NotDiagonal when some block deviates from the block mean by more
    than tol.
    """
    x = _check_lifted(x)
    if (x == x[0]).all():
        # Bitwise-diagonal input round-trips exactly; the mean of m equal
        # rows can differ by an ulp.
        return x[0].copy()
    mean = x.mean(axis=0)
    deviation = float(np.linalg.norm(x - mean, axis=1).max())
    if deviation > tol:
        raise NotDiagonal(f"blocks deviate from their mean by {deviation:.3e} > {tol:.1e}")
    return mean


def diag_project(x) -> np.ndarray:
    """Projection onto the diagonal subspace: every block becomes the mean."""
    x = _check_lifted(x)
    if (x == x[0]).all():
        return x.copy()
    mean = x.mean(axis=0)
    return np.repeat(mean[None, :], x.shape[0], axis=0)


class DiagonalSubspace:
    """Diagonal {(x, ..., x)} of the m-fold product of R^n."""

    def __init__(self, n: int, m: int):
        if n < 1 or m < 1:
            raise ValueError("n and m must be positive")
        self.n = int(n)
        self.m = int(m)
        self.dim = (self.m, self.n)

    def project(self, x) -> np.ndarray:
        return diag_project(_check_lifted(x, self.m, self.n))


class BlockOperator:
    """Blockwise operator on lifted points: row i goes through operators[i].

    Firmly nonexpansive whenever every block operator is; its fixed points
    are the rowwise products of the block fixed-point sets.
    """

    kind = "lifted"

    def __init__(self, operators):
        operators = tuple(operators)
        if not operators:
            raise EmptyOperatorList("need at least one operator")
        n = operators[0].dim
        if any(op.dim != n for op in operators):
            raise DimensionMismatch("block operators must share one dimension")
        self.operators = operators
        self.n = n
        self.m = len(operators)
        self.dim = (self.m, self.n)

    @cached_property
    def plan(self) -> EvaluationPlan:
        """Evaluation plan of the block operators, built on first use."""
        return EvaluationPlan(self.operators)

    def __call__(self, x) -> np.ndarray:
        x = _check_lifted(x, self.m, self.n)
        # A bitwise-diagonal input (every crm iterate) is one shared point.
        return self.plan(x[0] if (x == x[0]).all() else x)


def lift_apply(operators, x) -> np.ndarray:
    """Rowwise application: block i goes through operators[i]."""
    return BlockOperator(operators)(x)
