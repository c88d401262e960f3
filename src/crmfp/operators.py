"""Firmly nonexpansive operators and checks on their algebra.

The closed set of operator kinds is: identity, halfspace-projection,
affine-subspace-projection, ball-projection, ellipsoid-projection,
convex-combination, composition, and the blockwise "lifted" kind defined in
product_space.  Operators are immutable, validate their input dimension on
every call, and return new arrays.  Every ellipsoid projection goes through
one projector, the stacked root-find kkt_project_stacked.

A fixed list of operators is evaluated through an EvaluationPlan, built
once per list: every ellipsoid projection among the operators (or among
the members of their convex combinations) is one row of a single stacked
solve at the one tolerance KKT_TOL, on one EllipsoidStack built straight
from those member ellipsoids, whatever its size.  Over an instance that
generation or loading decomposed, every plan over its operators in order
views the one array of eigenbases the instance was decomposed into (see
EllipsoidStack), so ppm's plan and the lifted crm's plan over one instance
hold them once.  A plan fuses the calls at one point shared by every
operator, which is every call a solver makes; one point per operator
goes through the per-operator loop.
Rows of a batch never interact, and convex combinations sum their
members the same way in a plan and alone, so a plan returns exactly what
operator-by-operator evaluation returns, without the per-member loop.
images() is the other direction: one operator at many points, in one
stacked solve on a tile of its stack; the checks that evaluate one
operator at several points go through it.
"""
from __future__ import annotations

from functools import cached_property

import numpy as np

from .ellipsoid import KKT_TOL, Ellipsoid, EllipsoidStack, kkt_project_stacked, project_kkt
from .ellipsoid import admm_project_stacked  # noqa: F401  (a perfbench trace site)
from .errors import DimensionMismatch, EmptyOperatorList, InvalidWeight

# Runs of at most this many rows are summed slot by slot (_segment_sums).
SLOT_RUN_MAX = 8


def _check_vec(x, dim: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (dim,):
        raise DimensionMismatch(f"point has shape {x.shape}, expected ({dim},)")
    return x


class Identity:
    """Identity operator on R^dim."""

    kind = "identity"

    def __init__(self, dim: int):
        self.dim = int(dim)

    def __call__(self, x) -> np.ndarray:
        return _check_vec(x, self.dim).copy()


class HalfspaceProjection:
    """Projection onto {x : normal. x <= offset}."""

    kind = "halfspace-projection"

    def __init__(self, normal, offset: float):
        normal = np.asarray(normal, dtype=float)
        if normal.ndim != 1 or not np.isfinite(normal).all():
            raise ValueError("normal must be a finite vector")
        sq = float(normal @ normal)
        if sq == 0.0:
            raise ValueError("normal must be nonzero")
        self.normal = normal
        self.offset = float(offset)
        self.dim = normal.shape[0]
        self._sq = sq

    def __call__(self, x) -> np.ndarray:
        x = _check_vec(x, self.dim)
        excess = float(self.normal @ x) - self.offset
        if excess <= 0.0:
            return x.copy()
        return x - (excess / self._sq) * self.normal


class AffineSubspace:
    """Affine subspace anchor + span(basis rows); basis rows are orthonormal."""

    def __init__(self, anchor, basis):
        anchor = np.asarray(anchor, dtype=float)
        basis = np.asarray(basis, dtype=float)
        if anchor.ndim != 1:
            raise ValueError("anchor must be a vector")
        if basis.ndim != 2 or basis.shape[1] != anchor.shape[0]:
            raise DimensionMismatch(
                f"basis shape {basis.shape} does not match anchor dimension {anchor.shape[0]}"
            )
        gram = basis @ basis.T
        if basis.shape[0] and np.abs(gram - np.eye(basis.shape[0])).max() > 1e-12:
            raise ValueError("basis rows must be orthonormal")
        self.anchor = anchor
        self.basis = basis
        self.dim = anchor.shape[0]

    @classmethod
    def from_span(cls, anchor, vectors) -> "AffineSubspace":
        """Build from any spanning rows; orthonormalizes and drops rank loss."""
        vectors = np.atleast_2d(np.asarray(vectors, dtype=float))
        _, s, vt = np.linalg.svd(vectors, full_matrices=False)
        keep = s > 1e-12 * (s[0] if s.size else 1.0)
        return cls(anchor, vt[keep])

    def project(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise DimensionMismatch(f"point has shape {x.shape}, expected ({self.dim},)")
        d = x - self.anchor
        return self.anchor + (d @ self.basis.T) @ self.basis


class AffineSubspaceProjection:
    """Projection onto an affine subspace."""

    kind = "affine-subspace-projection"

    def __init__(self, subspace: AffineSubspace):
        self.subspace = subspace
        self.dim = subspace.dim

    def __call__(self, x) -> np.ndarray:
        return self.subspace.project(x)


class BallProjection:
    """Projection onto the closed ball of given center and radius."""

    kind = "ball-projection"

    def __init__(self, center, radius: float):
        center = np.asarray(center, dtype=float)
        radius = float(radius)
        if center.ndim != 1 or not np.isfinite(center).all():
            raise ValueError("center must be a finite vector")
        if radius <= 0.0:
            raise ValueError("radius must be positive")
        self.center = center
        self.radius = radius
        self.dim = center.shape[0]

    def __call__(self, x) -> np.ndarray:
        x = _check_vec(x, self.dim)
        d = x - self.center
        dist = float(np.linalg.norm(d))
        if dist <= self.radius:
            return x.copy()
        return self.center + (self.radius / dist) * d


class EllipsoidProjection:
    """Projection onto an ellipsoid by the direct root-find, which stops at
    |g| <= KKT_TOL / 2 (project_kkt)."""

    kind = "ellipsoid-projection"

    def __init__(self, ellipsoid: Ellipsoid):
        self.ellipsoid = ellipsoid
        self.dim = ellipsoid.dim

    def __call__(self, x) -> np.ndarray:
        return project_kkt(self.ellipsoid, x)


class ConvexCombination:
    """Weighted mean of operators: x -> sum_i weights[i] * ops[i](x).

    Weights must be nonnegative and sum to one within 1e-12.  A combination
    of projections is firmly nonexpansive but in general not idempotent.
    """

    kind = "convex-combination"

    def __init__(self, operators, weights):
        operators = tuple(operators)
        if not operators:
            raise EmptyOperatorList("convex combination needs at least one operator")
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (len(operators),):
            raise InvalidWeight(
                f"{len(operators)} operators but weight shape {weights.shape}"
            )
        if (weights < 0.0).any():
            raise InvalidWeight("weights must be nonnegative")
        if abs(float(weights.sum()) - 1.0) > 1e-12:
            raise InvalidWeight("weights must sum to one within 1e-12")
        dim = operators[0].dim
        if any(op.dim != dim for op in operators):
            raise DimensionMismatch("combined operators must share one dimension")
        self.operators = operators
        self.weights = weights
        self.dim = dim

    @cached_property
    def plan(self) -> "EvaluationPlan":
        """Evaluation plan of the members, built on first use."""
        return EvaluationPlan(self.operators)

    def __call__(self, x) -> np.ndarray:
        x = _check_vec(x, self.dim)
        return _segment_sums(self.weights, self.plan(x), [0])[0]


class Composition:
    """Sequential application: the first listed operator is applied first."""

    kind = "composition"

    def __init__(self, operators):
        operators = tuple(operators)
        if not operators:
            raise EmptyOperatorList("composition needs at least one operator")
        dim = operators[0].dim
        if any(op.dim != dim for op in operators):
            raise DimensionMismatch("composed operators must share one dimension")
        self.operators = operators
        self.dim = dim

    def __call__(self, x) -> np.ndarray:
        x = _check_vec(x, self.dim).copy()
        for op in self.operators:
            x = op(x)
        return x


def _slots(counts, row_weights):
    """The slot layout of runs of counts[i] consecutive rows with
    row_weights, for _segment_sums: (index, weights, pad), with index[k, i]
    the row of run i's k-th member and weights[k, i, 0] its weight, each
    (r, p) with r the longest run, and pad True past a run's end (where
    index and weights repeat its last row's); None when r > SLOT_RUN_MAX."""
    counts = np.asarray(counts)
    k = np.arange(counts.max())[:, None]
    if len(k) > SLOT_RUN_MAX:
        return None
    index = np.cumsum(counts) - counts + np.minimum(k, counts - 1)
    return index, row_weights[index][..., None], k >= counts


def _segment_sums(row_weights, rows, starts, slots=None) -> np.ndarray:
    """Weighted sum of each run of consecutive rows from its start, bit for
    bit np.add.reduceat(row_weights[:, None] * rows, starts, axis=0).
    slots is the runs' layout: an int r <= SLOT_RUN_MAX for runs of r rows
    each, the layout from _slots, or None.

    reduceat sums run i as r0 + s, with r the weighted rows and s numpy's
    pairwise sum of r1, r2, ..., which for fewer than 8 terms is one loop,
    ((-0.0 + r1) + r2) + ...  Runs of at most SLOT_RUN_MAX rows are summed
    slot by slot in that order: r[k, i] is run i's k-th weighted row, and
    the sums are r[0] + np.add.reduce(r[1:], axis=0, initial=-0.0), one
    vector add per slot over every run rather than one inner loop per
    column and run.  Past a run's end r holds -0.0, and x + (-0.0) = x for
    every x, so a pad changes no sum (a +0.0 pad would turn a sum of -0.0
    into +0.0).  Runs of equal length are a view of the weighted rows,
    with no gather and no pad.  Longer runs, whose pairwise sum of 8 or
    more terms uses 8 accumulators, keep reduceat (slots None), and so
    does a convex combination's own call: its one run has no vector adds
    to share, and at 3-5 rows of n <= 50 reduceat makes fewer numpy calls.
    """
    if slots is None:
        return np.add.reduceat(row_weights[:, None] * rows, starts, axis=0)
    if isinstance(slots, int):
        r = (row_weights[:, None] * rows).reshape(-1, slots, rows.shape[-1]).swapaxes(0, 1)
    else:
        index, weights, pad = slots
        r = rows.take(index, axis=0)
        r *= weights
        r[pad] = -0.0
    tail = np.add.reduce(r[1:], axis=0, initial=-0.0)
    return np.add(r[0], tail, out=tail)


def _stacked_rows(op):
    """(member ellipsoids, weights) of an ellipsoid projection (weights
    None: one row) or of a convex combination whose members are all
    ellipsoid projections; None for any other operator."""
    if isinstance(op, EllipsoidProjection):
        return [op.ellipsoid], None
    if isinstance(op, ConvexCombination) and all(
            isinstance(m, EllipsoidProjection) for m in op.operators):
        return [m.ellipsoid for m in op.operators], op.weights
    return None


class EvaluationPlan:
    """Batched evaluation of a fixed list of operators, built once.

    Each ellipsoid projection in the list owns one row of the plan's
    EllipsoidStack; each convex combination of ellipsoid projections owns
    a run of consecutive rows (one per member) and its weights.  The stack
    is built straight from those member ellipsoids, at any size.  A call
    at one point shared by every operator projects all rows in one stacked
    solve, as one stride-0 view of the point, and sums the runs in one
    segmented sum; operators of other kinds are called as they are.  Every
    solver call is such a call: ppm's iterates are points, and the lifted
    crm's are diagonal (BlockOperator).  A call with one point per
    operator is the per-operator loop.  The stack views its members' eig()
    caches when they are consecutive rows of one array, in order, as they
    are for a decomposed instance's operators in order, and copies them
    otherwise (see EllipsoidStack).  Each plan keeps its own anchors.
    Each image is the same arithmetic on the same values as the operator's
    own call, so the two agree bit for bit.
    """

    def __init__(self, operators):
        operators = tuple(operators)
        if not operators:
            raise EmptyOperatorList("need at least one operator")
        n = operators[0].dim
        parts = {}  # operator index -> (member ellipsoids, weights)
        for i, op in enumerate(operators):
            part = _stacked_rows(op)
            if part is not None:
                parts[i] = part
        members = [e for es, _ in parts.values() for e in es]
        row_weights = [np.ones(1) if w is None else w for _, w in parts.values()]
        self.operators = operators
        self.dim = n
        self.stack = EllipsoidStack(members) if members else None
        self.fused = np.array(list(parts), dtype=int)
        counts = np.array([len(w) for w in row_weights], dtype=int)
        self.starts = np.cumsum(counts) - counts
        self.row_weights = np.concatenate(row_weights) if parts else None
        self.slots = _slots(counts, self.row_weights) if parts else None
        self.called = [i for i in range(len(operators)) if i not in parts]
        # Every operator is one stacked row: the projected rows are the images.
        self.one_row_each = not self.called and all(w is None for _, w in parts.values())

    def __call__(self, points) -> np.ndarray:
        """Images, one row per operator: all at one shared point (a vector),
        fused as above, or operator i at points[i], by the per-operator
        loop, which gives the same bits."""
        points = np.asarray(points, dtype=float)
        if points.shape == (len(self.operators), self.dim):
            return np.stack([op(x) for op, x in zip(self.operators, points)])
        if points.shape != (self.dim,):
            raise DimensionMismatch(f"points have shape {points.shape}, expected ({self.dim},)"
                                    f" or ({len(self.operators)}, {self.dim})")
        out = np.empty((len(self.operators), self.dim))
        if self.stack is not None:
            rows = np.broadcast_to(points, (len(self.stack), self.dim))
            proj = kkt_project_stacked(self.stack, rows, KKT_TOL)
            if self.one_row_each:
                return proj
            out[self.fused] = _segment_sums(self.row_weights, proj, self.starts, self.slots)
        for i in self.called:
            out[i] = self.operators[i](points)
        return out


def apply_each(operators, points) -> list[np.ndarray]:
    """Apply operators[i] to its input row through a one-shot EvaluationPlan.

    points is either one vector shared by every operator (one fused call)
    or an array with one row per operator (the per-operator loop).
    Returns the list of outputs; identical to the plain per-operator loop.
    """
    return list(EvaluationPlan(operators)(points))


def images(operator, points) -> np.ndarray:
    """operator at every row of points, exactly np.stack([operator(x) for x in points]).

    An ellipsoid projection projects its k rows in one stacked solve on a
    k-fold tile of its stack; a convex combination whose plan is one stack
    of J members projects the k * J rows np.repeat(points, J, axis=0) in
    one solve on the tiled plan stack and sums each run of J rows the way
    its own call does.  Rows of a batch never interact and each run's sum
    depends only on its rows, so both equal the per-point loop bit for
    bit.  The tile's rows are not one shared point, so kkt_project_stacked
    neither screens nor anchors them.  Every other operator (or callable)
    is called point by point.
    """
    points = np.asarray(points, dtype=float)
    if len(points) == 0:
        raise ValueError("need at least one point")
    single = isinstance(operator, EllipsoidProjection)
    if not (single or isinstance(operator, ConvexCombination) and operator.plan.one_row_each):
        return np.stack([operator(x) for x in points])
    k = len(points)
    if points.shape != (k, operator.dim):
        raise DimensionMismatch(f"points have shape {points.shape}, expected (k, {operator.dim})")
    if single:
        return kkt_project_stacked(operator.ellipsoid.stack().tile(k), points, KKT_TOL)
    plan = operator.plan
    size = len(plan.stack)
    proj = kkt_project_stacked(plan.stack.tile(k), np.repeat(points, size, axis=0), KKT_TOL)
    slots = size if size <= SLOT_RUN_MAX else None
    return _segment_sums(np.tile(operator.weights, k), proj, range(0, k * size, size), slots)


def _sample_rows(samples) -> np.ndarray:
    """Samples (any iterable of points) as the rows of one array."""
    rows = [np.asarray(x, dtype=float) for x in samples]
    if not rows:
        raise ValueError("need at least one sample")
    return np.stack(rows)


def translate(op, shift):
    """Operator of the same kind for the set moved by the given vector."""
    shift = np.asarray(shift, dtype=float)
    if shift.shape != (op.dim,):
        raise DimensionMismatch(f"shift has shape {shift.shape}, expected ({op.dim},)")
    if isinstance(op, Identity):
        return Identity(op.dim)
    if isinstance(op, HalfspaceProjection):
        return HalfspaceProjection(op.normal, op.offset + float(op.normal @ shift))
    if isinstance(op, AffineSubspaceProjection):
        sub = op.subspace
        return AffineSubspaceProjection(AffineSubspace(sub.anchor + shift, sub.basis))
    if isinstance(op, BallProjection):
        return BallProjection(op.center + shift, op.radius)
    if isinstance(op, EllipsoidProjection):
        e = op.ellipsoid
        # {y : g(y - shift) <= 0} expanded back to the same quadratic form.
        b = e.b - e.A @ shift
        alpha = e.alpha + 2.0 * float(e.b @ shift) - float(shift @ e.A @ shift)
        if alpha <= 0.0:
            raise ValueError("translated ellipsoid would not contain the origin")
        return EllipsoidProjection(Ellipsoid(e.A, b, alpha))
    if isinstance(op, ConvexCombination):
        return ConvexCombination([translate(t, shift) for t in op.operators], op.weights)
    if isinstance(op, Composition):
        return Composition([translate(t, shift) for t in op.operators])
    raise TypeError(f"cannot translate operator of type {type(op).__name__}")


def firm_nonexpansiveness_slack(operator, x, y) -> float:
    """<T(x) - T(y), x - y> - ||T(x) - T(y)||^2; nonnegative at every pair
    exactly when the operator is firmly nonexpansive there."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    tx, ty = images(operator, np.stack([x, y]))
    d = tx - ty
    return float(np.vdot(d, x - y) - np.vdot(d, d))


def fixed_point_residual(operator, x) -> float:
    """||x - T(x)||; zero exactly on fixed points."""
    x = np.asarray(x, dtype=float)
    return float(np.linalg.norm(x - np.asarray(operator(x), dtype=float)))


def translated_projection_deviation(projection, shift, weight: float, samples) -> float:
    """How far (1-w) P_C + w P_{C+shift} is from the projection onto C + w*shift.

    Zero (up to rounding) when shift is orthogonal to the affine hull of C;
    positive deviations witness that the combination is not that projection.
    samples is any iterable of points, at least one.
    """
    if not 0.0 < weight < 1.0:
        raise InvalidWeight("weight must lie strictly between 0 and 1")
    shifted = translate(projection, shift)
    target = translate(projection, weight * np.asarray(shift, dtype=float))
    xs = _sample_rows(samples)
    mix = (1.0 - weight) * images(projection, xs) + weight * images(shifted, xs)
    worst = 0.0
    for gap in mix - images(target, xs):
        worst = max(worst, float(np.linalg.norm(gap)))
    return worst


def fixed_set_witness_check(proj_a, proj_b, u, v, weight: float) -> tuple[float, float]:
    """Residuals at the witness w = (1-weight) u + weight v.

    Returns (||P(w) - w|| for the combination P = (1-weight) P_A + weight P_B,
    max(||P_A(w) - u||, ||P_B(w) - v||)).  Both vanish when (u, v) realizes
    the distance between the two sets.
    """
    if not 0.0 < weight < 1.0:
        raise InvalidWeight("weight must lie strictly between 0 and 1")
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    w = (1.0 - weight) * u + weight * v
    pa = np.asarray(proj_a(w), dtype=float)
    pb = np.asarray(proj_b(w), dtype=float)
    residual = float(np.linalg.norm((1.0 - weight) * pa + weight * pb - w))
    mismatch = max(float(np.linalg.norm(pa - u)), float(np.linalg.norm(pb - v)))
    return residual, mismatch


def idempotence_violation_search(operator, samples) -> float:
    """max ||T(T(x)) - T(x)|| over the samples (any iterable of points, at
    least one); zero for projections."""
    tx = images(operator, _sample_rows(samples))
    worst = 0.0
    for gap in images(operator, tx) - tx:
        worst = max(worst, float(np.linalg.norm(gap)))
    return worst


def gradient_check(projection, x, h: float = 1e-5) -> float:
    """Relative gap between the finite-difference gradient of the squared
    distance to the set and its closed form 2 (x - P(x))."""
    if h <= 0.0:
        raise ValueError("h must be positive")
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    steps = h * np.eye(n)
    # x, then x + h e_i for every i, then x - h e_i: one call of the projection.
    points = np.concatenate([x[None, :], x + steps, x - steps])
    gaps = points - images(projection, points)
    analytic = 2.0 * gaps[0]
    dist_sq = np.array([float(d @ d) for d in gaps[1:]])
    fd = (dist_sq[:n] - dist_sq[n:]) / (2.0 * h)
    return float(np.linalg.norm(fd - analytic) / (1.0 + np.linalg.norm(analytic)))
