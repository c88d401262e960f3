"""Fixed-point iterations for common-fixed-point problems.

Four steps are provided.  map alternates one operator with an affine (or
diagonal) subspace projection; crm replaces the alternating step by the
circumcenter of the current iterate and two successive reflections, which
stays in the subspace and never does worse than the alternating step; it
is computed in closed form, with geometry.circumcenter3 as its test
oracle.  The circumcenter lies on the line through x and the alternating
step's point, so one routine (_crm_parts) computes both steps.  ppm
averages many operators through one EvaluationPlan: its step is x plus
(1/p) sum_j D_j, with D_j = T_j x - x in correction form, formed as the
sum of every row that moves x (EvaluationPlan.corrections: the weighted
corrections of the exterior rows, in row order), with no (p, n) array;
spm chains them through one Composition.
run() is the one implementation of every step: it iterates one with a
displacement stopping rule, optional distance tracking against a known
solution, and optional per-iteration checks that raise DiagnosticFailure
when a structural property is violated numerically.  map_step, crm_step,
ppm_step and spm_step are each one iteration of run.
On the product-space pair (BlockOperator, DiagonalSubspace), run carries a
diagonal crm or map iterate, and a diagonal start, as its one R^n block:
one plan call gives the p images.  Every norm is the lifted array's by the
R^n rule (_lifted_sq): a (p, n) array's own, and a block v's as
p ||v||^2, with no (p, n) array formed, which agrees with np.linalg.norm
of (v, ..., v) up to float64 rounding.  Norms are the one dot
np.linalg.norm takes, without its overhead.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import (
    DiagnosticFailure,
    EmptyOperatorList,
    InsufficientHistory,
    NotInSubspace,
    integer,
)
from .geometry import circumcenter3  # noqa: F401  (a perfbench trace site)
from .operators import Composition, EvaluationPlan, _correction_sums
from .operators import apply_each  # noqa: F401  (a perfbench trace site)
from .product_space import BlockOperator, DiagonalSubspace, _DiagonalBlocks, embed

# Degeneracy guard of the circumcentering step: P_U T(x) counts as x.
EPS_DEG = 1e-12
# Relative tolerances of the runtime checks.
MEMBERSHIP_RTOL = 1e-8
ORTHOGONALITY_RTOL = 1e-8
FEJER_SLACK_TOL = 1e-8

_DIAGNOSTICS = ("fejer", "orthogonality", "membership")
_KINDS = ("map", "crm", "ppm", "spm")


@dataclass
class SolverConfig:
    """Stopping rule (displacement norm) and which runtime checks to run."""

    tolerance: float = 1e-6
    max_iterations: int = 50000
    diagnostics: tuple[str, ...] = ()

    def __post_init__(self):
        if not (self.tolerance > 0.0 and np.isfinite(self.tolerance)):
            raise ValueError("tolerance must be positive and finite")
        self.max_iterations = integer(self.max_iterations)   # not a bool, or TypeError
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        unknown = set(self.diagnostics) - set(_DIAGNOSTICS)
        if unknown:
            raise ValueError(f"unknown diagnostics: {sorted(unknown)}")


@dataclass
class IterationTrace:
    """Everything a run produced.

    residual_history holds the displacement ||x_{k+1} - x_k|| per step (its
    length is the iteration count); fixed_point_residuals holds
    ||x_k - T(x_k)|| where the step evaluates a single operator, else the
    displacement again.  dist_history, present when a solution was supplied,
    starts at the initial point (length iterations + 1).  certificate is
    max_j ||T_j x - x|| over the operators at the last point a step
    evaluated, for ppm (its operators) and for map and crm (the rows of
    T(x) - x: one per block on the product space, else one), computed once
    from that step's values after the timed loop; None for spm.
    """

    iterations: int
    stop_reason: str
    residual_history: list[float]
    fixed_point_residuals: list[float]
    final_point: np.ndarray
    dist_history: list[float] | None = None
    elapsed_s: float = 0.0
    certificate: float | None = None


@dataclass
class RateEstimate:
    """Per-step contraction ratios of a distance history and two summaries."""

    per_step_ratios: list[float]
    sup_ratio: float
    geometric_mean_ratio: float


# The configuration of the one-step functions: one iteration of run.
_ONE_STEP = SolverConfig(max_iterations=1)


def _sq(a) -> float:
    """||a||^2 as np.linalg.norm forms it: one dot over a.ravel(order="K")."""
    v = a.ravel(order="K")
    return float(v.dot(v))


def _lifted_sq(a, p: int) -> float:
    """||.||^2 of the lifted array that a stands for on the product space of
    p blocks: a's own for a (p, n) array; a block v stands for (v, ..., v)
    and counts p ||v||^2, which agrees with np.linalg.norm of (v, ..., v)
    squared up to float64 rounding, not bit for bit."""
    s = _sq(a)
    return p * s if a.ndim == 1 else s


def _require_in_subspace(subspace, x, norm) -> None:
    gap = norm(subspace.project(x) - x)
    if gap > MEMBERSHIP_RTOL * (1.0 + norm(x)):
        raise NotInSubspace(f"point is {gap:.3e} away from the subspace")


def map_step(operator, subspace, z) -> np.ndarray:
    """Alternating step: project the operator image onto the subspace (one
    iteration of run("map"))."""
    return run("map", (operator, subspace), z, _ONE_STEP).final_point


def _crm_parts(operator, subspace, x, sq=_sq):
    """(a, T(x), P_U T(x), ||T(x) - x||, ||P_U T(x) - x||) for one step
    from x: the alternating (map) step from any x is P_U T(x), and the crm
    step from x in U is the circumcenter x + a (P_U T(x) - x)
    (_circumcenter).

    The circumcenter of x, R_T x and R_U R_T x lies on the line through x
    and P_U T(x); as T(x) - P_U T(x) is orthogonal to U, equidistance from
    x and R_T x puts it at a = ||T(x) - x||^2 / ||P_U T(x) - x||^2 along
    P_U T(x) - x.  Where P_U T(x) counts as x (the degeneracy guard), a is
    0.0 and the step is x; for x in U no other step has a = 0, since there
    ||P_U T(x) - x|| <= ||T(x) - x||.  Only crm forms the point.  The
    norms are the square roots of sq, the squared norm np.linalg.norm
    takes, so ||P_U T(x) - x|| is the bits of the map step's displacement.
    """
    tx = np.asarray(operator(x), dtype=float)
    ptx = subspace.project(tx)
    step = ptx - x
    disp = tx - x
    den = sq(step)
    num = sq(disp)
    norms = math.sqrt(num), math.sqrt(den)
    if 2.0 * norms[1] <= EPS_DEG * (1.0 + math.sqrt(sq(x))):
        return (0.0, tx, ptx) + norms
    return (num / den, tx, ptx) + norms


def _circumcenter(x, ptx, a: float) -> np.ndarray:
    """x + a (P_U T(x) - x), or a copy of x where a is 0.0 (the guard of
    _crm_parts), so that a step that stands still keeps x's bits
    (x + 0 (P_U T(x) - x) would turn -0.0 into +0.0)."""
    return x + a * (ptx - x) if a else x.copy()


def crm_step(operator, subspace, x) -> np.ndarray:
    """Circumcentering step from a point of the subspace.

    Returns the point of the subspace equidistant from x, the reflection of
    x through the operator, and the reflection of that through the
    subspace.  Raises NotInSubspace when x is not (numerically) in the
    subspace.  The point is computed in closed form (see _crm_parts), as
    one iteration of run("crm").

    The circumcenter lies in the subspace in exact arithmetic; the result
    is re-projected so rounding drift cannot compound across steps (near
    convergence the circumscribed triangle flattens and a step amplifies
    any out-of-subspace component of its input).
    """
    return run("crm", (operator, subspace), x, _ONE_STEP).final_point


def ppm_step(operators, x) -> np.ndarray:
    """Parallel step: mean of all operator images (one iteration of
    run("ppm"))."""
    return run("ppm", operators, x, _ONE_STEP).final_point


def spm_step(operators, x) -> np.ndarray:
    """Sequential step: chain all operators, first listed applied first
    (one iteration of run("spm"))."""
    return run("spm", operators, x, _ONE_STEP).final_point


def run(kind, problem, x0, cfg: SolverConfig | None = None, solution=None) -> IterationTrace:
    """Iterate one of the steps until the displacement drops below tolerance.

    stop_reason is "converged", "max-iterations", "non-finite" (a NaN or
    infinite displacement, which stops the run), or, for "crm" only,
    "inconsistent": the step is below tolerance while ||T(x) - x|| is not.
    Only the degeneracy guard (P_U T(x) counts as x) gives such a step,
    since every other crm step moves at least ||T(x) - x||: T moves x while
    P_U T(x) stays at x, so x is no fixed point of T.

    Parameters
    ----------
    kind : one of "map", "crm", "ppm", "spm".
    problem : (operator, subspace) for "map" and "crm"; a sequence of
        operators of one dimension (each with .dim) for "ppm" and "spm".
    x0 : starting point ("crm" requires it to lie in the subspace).  On
        the pair (BlockOperator, DiagonalSubspace) a diagonal x0 is its R^n
        block, the first step from any other x0 lands on the diagonal, and
        every step from a block stays on it; the final point is embedded,
        and the membership gap of a block's step is exactly 0 and not
        formed.
    cfg : SolverConfig; cfg.diagnostics may request per-iteration checks.
        "fejer" checks that the squared distance to the supplied solution
        decreases by at least the squared step of the alternating operator
        (monotonicity only for "spm") up to slack 1e-8; "orthogonality" and
        "membership" are specific to "crm" and check that each new iterate
        is orthogonal to the operator displacement and stays in the
        subspace.  Violations raise DiagnosticFailure.
    solution : known common fixed point; enables dist_history and "fejer".
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown step kind {kind!r}; expected one of {_KINDS}")
    if cfg is None:
        cfg = SolverConfig()

    want_fejer = "fejer" in cfg.diagnostics
    want_orth = "orthogonality" in cfg.diagnostics
    want_member = "membership" in cfg.diagnostics
    if (want_orth or want_member) and kind != "crm":
        raise ValueError("orthogonality/membership checks apply to crm runs only")
    if want_fejer and solution is None:
        raise ValueError("the fejer check needs a known solution")

    if kind in ("map", "crm"):
        operator, subspace = problem
    else:
        operators = list(problem)
        if not operators:
            raise EmptyOperatorList(f"{kind} needs at least one operator")

    x = np.asarray(x0, dtype=float).copy()
    blocks = None
    if (kind in ("map", "crm") and isinstance(operator, BlockOperator)
            and isinstance(subspace, DiagonalSubspace) and operator.dim == subspace.dim == x.shape):
        # A diagonal start is its block, and a start off the diagonal
        # steps onto one; every norm is the lifted array's (_lifted_sq).
        operator = subspace = blocks = _DiagonalBlocks(operator)
        x = blocks.block(x)

    sq = _sq if blocks is None else partial(_lifted_sq, p=blocks.operator.m)

    def norm(a) -> float:
        return math.sqrt(sq(a))

    if kind == "crm":
        _require_in_subspace(subspace, x, norm)

    sol = None if solution is None else np.asarray(solution, dtype=float)
    if sol is not None and blocks is not None:
        sol = blocks.block(sol)
    residuals: list[float] = []
    fix_residuals: list[float] = []
    dists: list[float] | None = None
    if sol is not None:
        dists = [norm(x - sol)]

    stop_reason = "max-iterations"
    t0 = time.perf_counter()
    # ppm's plan and spm's chain are built once, timed with the loop.
    if kind == "ppm":
        plan = EvaluationPlan(operators)
    elif kind == "spm":
        chain = Composition(operators)
    for k in range(cfg.max_iterations):
        fix = None
        if kind == "map":
            _, tx, xn, fix, step_norm = _crm_parts(operator, subspace, x, sq)
        elif kind == "crm":
            # The checks see the raw circumcenter; the iterate continues from
            # its projection, so drift out of the subspace cannot compound.
            a, tx, ptx, fix, step_norm = _crm_parts(operator, subspace, x, sq)
            raw = _circumcenter(x, ptx, a)
            xn = subspace.project(raw)
        elif kind == "ppm":
            # x plus the mean correction: every row that moves x, in row order.
            rows, corr = plan.corrections(x)
            xn = (x + np.add.reduce(corr, axis=0) / len(operators)) if len(rows) else x.copy()
        else:
            xn = chain(x)

        res = norm(xn - x)
        residuals.append(res)
        fix_residuals.append(res if fix is None else fix)

        new_dist = None if sol is None else norm(xn - sol)
        # Where xn is raw (a block's step), the gap is exactly 0.
        if want_member and xn is not raw:
            gap = norm(xn - raw)
            if gap > MEMBERSHIP_RTOL * (1.0 + norm(raw)):
                raise DiagnosticFailure("membership", k, gap)
        if want_orth:
            inner = float(np.vdot(x - tx, raw - tx))
            bound = ORTHOGONALITY_RTOL * (1.0 + norm(x - tx) * norm(raw - tx))
            if abs(inner) > bound:
                raise DiagnosticFailure("orthogonality", k, inner)
        if want_fejer:
            slack = dists[-1] ** 2 - new_dist**2
            if kind in ("map", "crm"):
                slack -= step_norm**2
            elif kind == "ppm":
                slack -= res**2
            if slack < -FEJER_SLACK_TOL:
                raise DiagnosticFailure("fejer", k, slack)

        if dists is not None:
            dists.append(new_dist)
        x, at = xn, x
        if res < cfg.tolerance:
            moved = kind == "crm" and fix_residuals[-1] >= cfg.tolerance
            stop_reason = "inconsistent" if moved else "converged"
            break
        if not math.isfinite(res):
            stop_reason = "non-finite"
            break
    elapsed = time.perf_counter() - t0
    # max_j ||T_j x - x|| at the last point a step evaluated: ppm's D_j, or
    # the rows of T(x) - x.
    disp = (_correction_sums(plan.owner[rows].tolist(), corr)[1] if kind == "ppm"
            else None if kind == "spm" else np.atleast_2d(tx - at))
    certificate = None if disp is None else math.sqrt((disp * disp).sum(-1).max(initial=0.0))

    return IterationTrace(
        iterations=len(residuals),
        stop_reason=stop_reason,
        residual_history=residuals,
        fixed_point_residuals=fix_residuals,
        final_point=x if blocks is None else embed(x, blocks.operator.m),
        dist_history=dists,
        elapsed_s=elapsed,
        certificate=certificate,
    )


# Ratios are only formed where the denominator exceeds this floor.
RATE_FLOOR = 100.0 * float(np.finfo(float).eps)


def estimate_rate(dist_history) -> RateEstimate:
    """Contraction ratios d_{k+1} / d_k of a distance history.

    Pairs whose denominator is at or below 100 machine epsilons are dropped
    (they carry no rate information); if no pair survives, the history is
    insufficient.  The geometric mean is zero when any surviving ratio is
    zero (an exact hit).  A NaN or infinite distance, as a run that stops
    "non-finite" leaves, raises ValueError naming its index.
    """
    h = np.asarray(dist_history, dtype=float)
    if h.ndim != 1 or h.size < 2:
        raise InsufficientHistory("need at least two distances")
    bad = np.flatnonzero(~np.isfinite(h))
    if bad.size:
        raise ValueError(f"distance {bad[0]} is {h[bad[0]]}, not finite")
    ratios = [float(h[k + 1] / h[k]) for k in range(h.size - 1) if h[k] > RATE_FLOOR]
    if not ratios:
        raise InsufficientHistory("all denominators at or below the floor")
    sup = max(ratios)
    if min(ratios) <= 0.0:
        geo = 0.0
    else:
        geo = float(np.exp(np.mean(np.log(ratios))))
    return RateEstimate(per_step_ratios=ratios, sup_ratio=sup, geometric_mean_ratio=geo)
