"""Firmly nonexpansive operators and checks on their algebra.

The closed set of operator kinds is: identity, halfspace-projection,
affine-subspace-projection, ball-projection, ellipsoid-projection,
convex-combination, composition, and the blockwise "lifted" kind defined in
product_space.  Operators are immutable (each copies the arrays it is
built from, so a caller's later writes into them change nothing), validate
their input dimension on every call, and return new arrays.  Every
ellipsoid projection goes through one projector, the stacked root-find
kkt_exterior_stacked, or its dense form kkt_project_stacked.

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

At a shared point x every interior row projects to x, so a plan works
with the exterior rows only.  Every convex combination is evaluated in
one correction form, T x = x + D, where D sums the weighted corrections
(T_i x - x) * w_i of the members that move x, by one routine
(_correction_sums, whose docstring states the order: the ellipsoid
projections' exterior rows, then the members called as they are, each in
member order, so a combination of ellipsoid projections alone sums in
member order); a
combination no member moves returns x itself.  A plan, a combination's
own call and images() all take that form and that routine, and rows of
a batch never interact, so a plan returns exactly what
operator-by-operator evaluation returns, without the per-member loop.
ppm's step needs only the corrections (EvaluationPlan.corrections).
images() is the other direction: one operator at many points, in one
stacked solve on a tile of its stack; the checks that evaluate one
operator at several points go through it.
"""
from __future__ import annotations

from functools import cached_property

import numpy as np

from .ellipsoid import (KKT_TOL, Ellipsoid, EllipsoidStack, _check_vec, kkt_exterior_stacked,
                        kkt_project_stacked)
from .ellipsoid import admm_project_stacked  # noqa: F401  (a perfbench trace site)
from .errors import (DimensionMismatch, InvalidWeight, count, numeric, operator_list, positive,
                     real, vector)


class Identity:
    """Identity operator on R^dim."""

    kind = "identity"

    def __init__(self, dim: int):
        self.dim = count("dim", dim, 1)

    def __call__(self, x) -> np.ndarray:
        return _check_vec(x, self.dim).copy()


class HalfspaceProjection:
    """Projection onto {x : normal. x <= offset}."""

    kind = "halfspace-projection"

    def __init__(self, normal, offset: float):
        normal = vector("normal", normal)
        sq = float(normal @ normal)
        if sq == 0.0:
            raise ValueError("normal must be nonzero")
        offset = real("offset", offset)
        if not np.isfinite(offset):
            raise ValueError("offset must be finite")
        self.normal = normal
        self.offset = offset
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
        anchor, basis = vector("anchor", anchor), np.array(numeric("basis", basis))
        if basis.ndim != 2 or basis.shape[1] != anchor.shape[0]:
            raise DimensionMismatch(
                f"basis shape {basis.shape} does not match anchor dimension {anchor.shape[0]}"
            )
        gram = basis @ basis.T
        # A NaN in the basis fails the <= test, as a non-orthonormal row does.
        if basis.shape[0] and not np.abs(gram - np.eye(basis.shape[0])).max() <= 1e-12:
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
        d = _check_vec(x, self.dim) - self.anchor
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
        self.center, self.radius = vector("center", center), positive("radius", radius)
        self.dim = self.center.shape[0]

    def __call__(self, x) -> np.ndarray:
        x = _check_vec(x, self.dim)
        d = x - self.center
        dist = float(np.linalg.norm(d))
        if dist <= self.radius:
            return x.copy()
        return self.center + (self.radius / dist) * d


class EllipsoidProjection:
    """Projection onto an ellipsoid by the direct root-find, which stops at
    |g| <= KKT_TOL / 2, with project_kkt's bits.

    The operator keeps the one-row EllipsoidStack of its ellipsoid, built
    on first use: its calls project through it, and so keep its anchors,
    and images() projects through a tile of it.  The stack holds no
    reference to the operator, so the two are freed by reference counting
    alone, and the ellipsoid gains no attribute.
    """

    kind = "ellipsoid-projection"

    def __init__(self, ellipsoid: Ellipsoid):
        self.ellipsoid = ellipsoid
        self.dim = ellipsoid.dim

    @cached_property
    def stack(self) -> EllipsoidStack:
        """One-row stack of the ellipsoid, built on first use."""
        return EllipsoidStack([self.ellipsoid])

    def __call__(self, x) -> np.ndarray:
        return kkt_project_stacked(self.stack, _check_vec(x, self.dim)[None, :], KKT_TOL)[0]


class ConvexCombination:
    """Weighted mean of operators: x -> sum_i weights[i] * ops[i](x),
    formed as x plus the weighted corrections of the members that move x
    (_correction_sums).

    Weights must be nonnegative and sum to one within 1e-12.  A combination
    of projections is firmly nonexpansive but in general not idempotent.
    """

    kind = "convex-combination"

    def __init__(self, operators, weights):
        operators, dim = operator_list("convex combination", operators)
        weights = np.array(numeric("weights", weights))
        if weights.shape != (len(operators),):
            raise InvalidWeight(
                f"{len(operators)} operators but weight shape {weights.shape}"
            )
        if not (weights >= 0.0).all():   # NaN fails too
            raise InvalidWeight("weights must be nonnegative")
        if abs(float(weights.sum()) - 1.0) > 1e-12:
            raise InvalidWeight("weights must sum to one within 1e-12")
        self.operators = operators
        self.weights = weights
        self.dim = dim

    @cached_property
    def plan(self) -> "EvaluationPlan":
        """Evaluation plan of the members, built on first use."""
        return EvaluationPlan(self.operators)

    def __call__(self, x) -> np.ndarray:
        x = _check_vec(x, self.dim)
        rows, corr = self.plan.corrections(x)
        if not len(rows):
            return x.copy()
        corr *= self.weights[self.plan.owner[rows]][:, None]
        _, sums = _correction_sums([0] * len(rows), corr)
        return np.add(x, sums[0], out=sums[0])


class Composition:
    """Sequential application: the first listed operator is applied first."""

    kind = "composition"

    def __init__(self, operators):
        self.operators, self.dim = operator_list("composition", operators)

    def __call__(self, x) -> np.ndarray:
        x = _check_vec(x, self.dim).copy()
        for op in self.operators:
            x = op(x)
        return x


def _correction_sums(owners, corr):
    """(ops, sums): the one summation of every convex combination's image.

    corr holds one weighted correction per row, (T_i x - x) * w_i, for the
    members that move x: an ellipsoid projection's exterior row (interior
    rows project to x and are left out), or a member that is called as it
    is.  owners lists the operator of each row, and each operator's rows
    are consecutive, in EvaluationPlan.corrections' row order: its
    ellipsoid projections' exterior rows in member order, then the members
    it calls as they are, in member order.  So a combination of ellipsoid
    projections alone, as every generated one is, sums in member order,
    and a mixed one sums its ellipsoid rows first: ConvexCombination([ball,
    ellipsoid projection], w) adds the ellipsoid's correction, then the
    ball's.  One np.add.reduceat over the runs of
    equal owner sums them: ops lists the operators in row order, and
    sums[j] = D_j, operator ops[j]'s sum.  Rows of a batch never interact
    and a run's sum depends on its rows only, so a plan, a combination's
    own call and images() give each combination the same bits.  When every
    run is one row, the sums are corr itself, as reduceat would copy it.
    Its image is x + D_j, or x itself, its signs of zero included, when no
    member moves x.  x + sum_i w_i (T_i x - x) equals sum_i w_i T_i x only when
    the weights sum to one exactly; they are validated to within 1e-12, so
    the two may differ by that much times |x|, beyond rounding.
    """
    starts = [k for k, op in enumerate(owners) if not k or op != owners[k - 1]]
    if len(starts) == len(owners):   # runs of one row: reduceat would copy corr
        return owners, corr
    return [owners[k] for k in starts], np.add.reduceat(corr, starts, axis=0)


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
    at one point x shared by every operator projects all rows in one
    stacked solve (kkt_exterior_stacked), as one stride-0 view of the
    point, and works with the exterior rows only: every interior row's
    projection is x.  Operators of other kinds are called as they are.
    Every solver call is such a call: ppm's iterates are points, and the
    lifted crm's are diagonal (BlockOperator).  A call with one point per
    operator is the per-operator loop.  The stack views its members' eig()
    caches when they are consecutive rows of one array, in order, as they
    are for a decomposed instance's operators in order, and copies them
    otherwise (see EllipsoidStack).  Each plan keeps its own anchors.

    At a shared point, corrections() gives the weighted corrections of the
    rows that move x (ppm sums them, and a combination's own call weights
    its members' by its weights), and a call gives the images: a
    combination's is x + D, D its rows' corrections summed by
    _correction_sums, an ellipsoid projection's is its projection, a called
    operator's its own image, and an operator that does not move x gives
    x's bits.  Each image is the same arithmetic on the same values as the
    operator's own call, so the two agree bit for bit.
    """

    def __init__(self, operators):
        operators, dim = operator_list("evaluation plan", operators)
        # operator index -> (member ellipsoids, weights), for every stacked operator
        parts = {i: part for i, op in enumerate(operators) if (part := _stacked_rows(op))}
        counts = [len(es) for es, _ in parts.values()]
        self.operators, self.dim = operators, dim
        self.stack = EllipsoidStack([e for es, _ in parts.values() for e in es]) if parts else None
        self.called = [i for i in range(len(operators)) if i not in parts]
        # The operator of each row: the stack's rows, then one per called
        # operator.  Stack rows carry weights (1.0 for a lone projection).
        self.owner = np.concatenate([np.repeat(list(parts), counts), self.called]).astype(int)
        self.row_weights = np.concatenate([np.ones(1) if w is None else w
                                           for _, w in parts.values()] or [np.ones(0)])
        # Stack rows that are a whole operator, whose image is the row's
        # projection: a mask, or None when there are none.
        lone = np.repeat([w is None for _, w in parts.values()], counts).astype(bool)
        self.lone_rows = lone if lone.any() else None

    def _exterior(self, x):
        """(idx, proj): the stack's exterior rows at the shared point x and
        their projections (kkt_exterior_stacked)."""
        if self.stack is None:
            return np.zeros(0, dtype=int), np.empty((0, self.dim))
        return kkt_exterior_stacked(self.stack, np.broadcast_to(x, (len(self.stack), self.dim)),
                                    KKT_TOL)

    def corrections(self, x) -> tuple[np.ndarray, np.ndarray]:
        """(rows, corr) at one point x shared by every operator: the rows
        that move x, the stack's exterior rows ascending and then one row
        per called operator, and their weighted corrections (T x - x) * w
        (weight 1 for a called operator or a lone projection).  owner[rows]
        are their operators; _correction_sums gives each operator's D."""
        x = _check_vec(x, self.dim)
        idx, proj = self._exterior(x)
        corr = (proj - x) * self.row_weights[idx][:, None]
        if not self.called:
            return idx, corr
        images = np.stack([self.operators[i](x) for i in self.called])
        return (np.concatenate((idx, np.arange(len(self.row_weights), len(self.owner)))),
                np.concatenate((corr, images - x)))

    def __call__(self, points) -> np.ndarray:
        """Images, one row per operator: all at one shared point (a vector),
        as above, or operator i at points[i], by the per-operator loop,
        which gives the same bits.  The result is a fresh array the plan
        keeps no reference to."""
        points = np.asarray(points, dtype=float)
        if points.shape == (len(self.operators), self.dim):
            return np.stack([op(x) for op, x in zip(self.operators, points)])
        if points.shape != (self.dim,):
            raise DimensionMismatch(f"points have shape {points.shape}, expected ({self.dim},)"
                                    f" or ({len(self.operators)}, {self.dim})")
        idx, proj = self._exterior(points)
        out = points[None, :].repeat(len(self.operators), axis=0)
        if len(idx):
            corr = (proj - points) * self.row_weights[idx][:, None]
            ops, sums = _correction_sums(self.owner[idx].tolist(), corr)
            out[ops] = np.add(points, sums, out=sums)
            if self.lone_rows is not None:
                lone = self.lone_rows[idx]
                out[self.owner[idx[lone]]] = proj[lone]
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

    An ellipsoid projection projects the k points as they are, in one
    stacked solve on a k-fold tile of its one-row stack.  A convex
    combination whose plan is one stack of J members projects the k * J
    rows np.repeat(points, J, axis=0) in one stacked solve on a k-fold tile
    of that stack, and sums each point's exterior rows by _correction_sums,
    as its own call does.  Rows of a batch never interact and each run's
    sum depends only on its rows, so both equal the per-point loop bit for
    bit.  The tile's rows are not one shared point, so the projector
    neither screens nor anchors them.  Every other operator (or callable)
    is called point by point.
    """
    points = np.ascontiguousarray(points, dtype=float)
    if len(points) == 0:
        raise ValueError("need at least one point")
    if _stacked_rows(operator) is None:
        return np.stack([operator(x) for x in points])
    lone = isinstance(operator, EllipsoidProjection)
    stack, weights = (operator.stack, None) if lone else (operator.plan.stack, operator.weights)
    k, size = len(points), len(stack)
    if points.shape != (k, operator.dim):
        raise DimensionMismatch(f"points have shape {points.shape}, expected (k, {operator.dim})")
    if weights is None:
        return kkt_project_stacked(stack.tile(k), points, KKT_TOL)
    rows = np.repeat(points, size, axis=0)
    idx, proj = kkt_exterior_stacked(stack.tile(k), rows, KKT_TOL)
    # Every row exterior (the checks' case): rows[idx] would copy rows.
    proj -= rows if len(idx) == len(rows) else rows[idx]
    proj *= weights[idx % size][:, None]
    ops, sums = _correction_sums((idx // size).tolist(), proj)
    if len(ops) == k:
        return np.add(points, sums, out=sums)
    out = points.copy()
    out[ops] += sums
    return out


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


def _mix_weight(weight) -> float:
    """weight as a float strictly between 0 and 1, or InvalidWeight."""
    weight = real("weight", weight)
    if not 0.0 < weight < 1.0:
        raise InvalidWeight("weight must lie strictly between 0 and 1")
    return weight


def translated_projection_deviation(projection, shift, weight: float, samples) -> float:
    """How far (1-w) P_C + w P_{C+shift} is from the projection onto C + w*shift.

    Zero (up to rounding) when shift is orthogonal to the affine hull of C;
    positive deviations witness that the combination is not that projection.
    samples is any iterable of points, at least one.
    """
    weight = _mix_weight(weight)
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
    weight = _mix_weight(weight)
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
    h = positive("h", h)
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
