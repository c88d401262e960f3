"""Product-space lifting for many-set problems.

A lifted point is an (m, n) array, one row per operator.  Applying all
operators rowwise and projecting onto the diagonal subspace {(x, ..., x)}
turns a many-operator problem into a two-set problem; the diagonal
projection is the blockwise mean.  Starting any two-set method on the
diagonal reproduces the parallel (averaged) iteration of the original
operators row for row.

A lifted point counts as diagonal when every row has row 0's bytes, so
-0.0 and +0.0 differ.  solvers.run carries a diagonal crm or map iterate
as its one R^n block (_DiagonalBlocks): one plan call at the block gives
the m images, and every norm is taken over the (m, n) array the block
stands for, so the run has the bits of the lifted arrays'.
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
    if _is_diagonal(x):
        # Bitwise-diagonal input round-trips exactly; the mean of m equal
        # rows can differ by an ulp.
        return x[0].copy()
    mean = x.mean(axis=0)
    deviation = float(np.linalg.norm(x - mean, axis=1).max())
    if deviation > tol:
        raise NotDiagonal(f"blocks deviate from their mean by {deviation:.3e} > {tol:.1e}")
    return mean


def _is_diagonal(x) -> bool:
    """Whether every row of x has row 0's bytes.  Most lifted points that
    are not diagonal differ in their last row, which is compared first."""
    bits = x.view(np.uint64)
    return x[-1].tobytes() == x[0].tobytes() and bool((bits == bits[0]).all())


def _diagonal_block(x) -> np.ndarray:
    """The block of diag_project(x): row 0 of a diagonal x (the mean of
    equal rows can differ by an ulp), else the mean of the rows."""
    return x[0] if _is_diagonal(x) else x.mean(axis=0)


def diag_project(x) -> np.ndarray:
    """Projection onto the diagonal subspace: every block becomes the mean."""
    x = _check_lifted(x)
    return np.repeat(_diagonal_block(x)[None, :], x.shape[0], axis=0)


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
        # A diagonal input is one shared point.
        return self.plan(x[0] if _is_diagonal(x) else x)


class _DiagonalBlocks:
    """A (BlockOperator, DiagonalSubspace) pair whose diagonal points are
    their one R^n block, for solvers.run.

    It stands in for both members of the pair, on lifted points and on
    blocks: called, it gives the m images (one plan call at a block);
    project gives the block of diag_project (a block is its own), so a
    step from a lifted point lands on a block.  block reduces a diagonal
    lifted point (the solution) to its block.  lifted gives the (m, n)
    array an argument stands for, broadcasting anything else into one
    buffer, so norms taken of it have the bits of the lifted array's.
    """

    def __init__(self, operator: BlockOperator):
        self.operator = operator
        self.buffer = np.empty(operator.dim)

    def __call__(self, x) -> np.ndarray:
        return self.operator.plan(x) if x.ndim == 1 else self.operator(x)

    def project(self, y) -> np.ndarray:
        return y if y.ndim == 1 else _diagonal_block(y)

    def block(self, y) -> np.ndarray:
        """The block of a diagonal lifted point; any other y as it is."""
        return y[0] if y.shape == self.buffer.shape and _is_diagonal(y) else y

    def lifted(self, a) -> np.ndarray:
        if a.shape == self.buffer.shape:
            return a
        np.copyto(self.buffer, a)
        return self.buffer


def lift_apply(operators, x) -> np.ndarray:
    """Rowwise application: block i goes through operators[i]."""
    return BlockOperator(operators)(x)
