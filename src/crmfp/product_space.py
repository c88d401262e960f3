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
the m images, and the norm of a block v is the lifted array's by the R^n
rule, sqrt(m ||v||^2), with no (m, n) array formed (solvers._lifted_sq).
"""
from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import (BlockCountMismatch, DimensionMismatch, NotDiagonal, count, operator_list,
                     real)
from .operators import EvaluationPlan, apply_each  # noqa: F401  (a perfbench trace site)


def _check_lifted(x, m: int | None = None, n: int | None = None) -> np.ndarray:
    """x as a float (m, n) lifted point; without m, of at least one block."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise DimensionMismatch(f"lifted point must be 2-d, got shape {x.shape}")
    if n is not None and x.shape[1] != n:
        raise DimensionMismatch(f"blocks have dimension {x.shape[1]}, expected {n}")
    if m is not None and x.shape[0] != m:
        raise BlockCountMismatch(f"{x.shape[0]} blocks, expected {m}")
    if not len(x):
        raise ValueError("need at least one block")
    return x


def embed(x, m: int) -> np.ndarray:
    """Diagonal embedding: m stacked copies of x."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise DimensionMismatch(f"expected a vector, got shape {x.shape}")
    return np.tile(x, (count("m", m, 1), 1))


def extract(x, tol: float = 1e-9) -> np.ndarray:
    """Common block of a (numerically) diagonal lifted point: the block of
    diag_project (_diagonal_block), as a new array.

    Raises NotDiagonal when some block deviates from the block mean by more
    than tol, which may be inf but not NaN.  A bitwise-diagonal point
    round-trips exactly, infinite entries included.
    """
    if not real("tol", tol) >= 0.0:
        raise ValueError("tol must be nonnegative")
    x = _check_lifted(x)
    if _is_diagonal(x):
        return x[0].copy()
    mean = _diagonal_block(x)
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
    equal rows can differ by an ulp), else the mean of the rows, formed as
    np.mean forms it (its sum, then one divide) without its Python layers."""
    return x[0] if _is_diagonal(x) else np.add.reduce(x, axis=0) / len(x)


def diag_project(x) -> np.ndarray:
    """Projection onto the diagonal subspace: every block becomes the mean."""
    x = _check_lifted(x)
    return np.repeat(_diagonal_block(x)[None, :], x.shape[0], axis=0)


class DiagonalSubspace:
    """Diagonal {(x, ..., x)} of the m-fold product of R^n."""

    def __init__(self, n: int, m: int):
        self.n, self.m = count("n", n, 1), count("m", m, 1)
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
        self.operators, self.n = operator_list("block operator", operators)
        self.m = len(self.operators)
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
    blocks: called, it gives the m images (one plan call at a block, a
    fresh (m, n) array); project gives the block of diag_project (a block
    is its own), so a step from a lifted point lands on a block.  block
    reduces a diagonal lifted point (the start or the solution) to its
    block.  It keeps no (m, n) array: run takes a block's lifted norm by
    the R^n rule, sqrt(m ||v||^2).
    """

    def __init__(self, operator: BlockOperator):
        self.operator = operator

    def __call__(self, x) -> np.ndarray:
        return self.operator.plan(x) if x.ndim == 1 else self.operator(x)

    def project(self, y) -> np.ndarray:
        return y if y.ndim == 1 else _diagonal_block(y)

    def block(self, y) -> np.ndarray:
        """The block of a diagonal lifted point; any other y as it is."""
        return y[0] if y.shape == self.operator.dim and _is_diagonal(y) else y
