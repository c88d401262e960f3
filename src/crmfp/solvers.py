"""Fixed-point iterations for common-fixed-point problems.

Four steps are provided.  map_step alternates one operator with an affine
(or diagonal) subspace projection; crm_step replaces the alternating step
by the circumcenter of the current iterate and two successive reflections,
which stays in the subspace and never does worse than the alternating
step; it is computed in closed form, with geometry.circumcenter3 as its
test oracle.  The circumcenter lies on the line through x and the
alternating step's point, so one routine (_crm_parts) computes both steps.
ppm_step averages many operators; spm_step chains them.
run() wraps any of them with a displacement stopping rule, optional
distance tracking against a known solution, and optional per-iteration
checks that raise DiagnosticFailure when a structural property is
violated numerically.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import (
    DiagnosticFailure,
    EmptyOperatorList,
    InsufficientHistory,
    NotInSubspace,
)
from .geometry import circumcenter3  # noqa: F401  (a perfbench trace site)
from .operators import EvaluationPlan
from .operators import apply_each  # noqa: F401  (a perfbench trace site)

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
    starts at the initial point (length iterations + 1).
    """

    iterations: int
    stop_reason: str
    residual_history: list[float]
    fixed_point_residuals: list[float]
    final_point: np.ndarray
    dist_history: list[float] | None = None
    elapsed_s: float = 0.0


@dataclass
class RateEstimate:
    """Per-step contraction ratios of a distance history and two summaries."""

    per_step_ratios: list[float]
    sup_ratio: float
    geometric_mean_ratio: float


def _norm(a) -> float:
    return float(np.linalg.norm(a))


def _require_in_subspace(subspace, x) -> None:
    gap = _norm(subspace.project(x) - x)
    if gap > MEMBERSHIP_RTOL * (1.0 + _norm(x)):
        raise NotInSubspace(f"point is {gap:.3e} away from the subspace")


def map_step(operator, subspace, z) -> np.ndarray:
    """Alternating step: project the operator image onto the subspace."""
    return _crm_parts(operator, subspace, np.asarray(z, dtype=float))[2]


def _crm_parts(operator, subspace, x):
    """(circumcenter, T(x), P_U T(x), ||T(x) - x||, ||P_U T(x) - x||) for
    one step from x: the crm step from x in U is the circumcenter, and the
    alternating (map) step from any x is P_U T(x).

    The circumcenter of x, R_T x and R_U R_T x lies on the line through x
    and P_U T(x); as T(x) - P_U T(x) is orthogonal to U, equidistance from
    x and R_T x puts it at x + (||T(x) - x||^2 / ||P_U T(x) - x||^2)
    (P_U T(x) - x).  Where P_U T(x) is x, the step is x.  The norms are
    the square roots of the two differences' inner products, which is how
    np.linalg.norm computes them too, so ||P_U T(x) - x|| is the bits of
    the map step's displacement.
    """
    tx = np.asarray(operator(x), dtype=float)
    ptx = subspace.project(tx)
    step = ptx - x
    disp = tx - x
    den = float(np.vdot(step, step))
    num = float(np.vdot(disp, disp))
    norms = math.sqrt(num), math.sqrt(den)
    if 2.0 * norms[1] <= EPS_DEG * (1.0 + _norm(x)):
        return (x.copy(), tx, ptx) + norms
    return (x + (num / den) * step, tx, ptx) + norms


def crm_step(operator, subspace, x) -> np.ndarray:
    """Circumcentering step from a point of the subspace.

    Returns the point of the subspace equidistant from x, the reflection of
    x through the operator, and the reflection of that through the
    subspace.  Raises NotInSubspace when x is not (numerically) in the
    subspace.  The point is computed in closed form (see _crm_parts).

    The circumcenter lies in the subspace in exact arithmetic; the result
    is re-projected so rounding drift cannot compound across steps (near
    convergence the circumscribed triangle flattens and a step amplifies
    any out-of-subspace component of its input).
    """
    x = np.asarray(x, dtype=float)
    _require_in_subspace(subspace, x)
    return subspace.project(_crm_parts(operator, subspace, x)[0])


def ppm_step(operators, x) -> np.ndarray:
    """Parallel step: mean of all operator images."""
    return np.mean(EvaluationPlan(operators)(x), axis=0)


def spm_step(operators, x) -> np.ndarray:
    """Sequential step: chain all operators, first listed applied first."""
    operators = list(operators)
    if not operators:
        raise EmptyOperatorList("sequential step needs at least one operator")
    x = np.asarray(x, dtype=float).copy()
    for op in operators:
        x = np.asarray(op(x), dtype=float)
    return x


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
        operators for "ppm" and "spm".
    x0 : starting point ("crm" requires it to lie in the subspace).
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
    if kind == "crm":
        _require_in_subspace(subspace, x)

    sol = None if solution is None else np.asarray(solution, dtype=float)
    residuals: list[float] = []
    fix_residuals: list[float] = []
    dists: list[float] | None = None
    if sol is not None:
        dists = [_norm(x - sol)]

    stop_reason = "max-iterations"
    t0 = time.perf_counter()
    if kind == "ppm":
        plan = EvaluationPlan(operators)   # built once, timed with the loop
    for k in range(cfg.max_iterations):
        fix = None
        if kind in ("map", "crm"):
            # The checks see the raw circumcenter; the crm iterate continues
            # from its projection, so drift out of the subspace cannot compound.
            raw, tx, ptx, fix, step_norm = _crm_parts(operator, subspace, x)
            xn = subspace.project(raw) if kind == "crm" else ptx
        elif kind == "ppm":
            xn = np.mean(plan(x), axis=0)
        else:
            xn = spm_step(operators, x)

        res = _norm(xn - x)
        residuals.append(res)
        fix_residuals.append(res if fix is None else fix)

        new_dist = None if sol is None else _norm(xn - sol)
        if want_member:
            gap = _norm(xn - raw)
            if gap > MEMBERSHIP_RTOL * (1.0 + _norm(raw)):
                raise DiagnosticFailure("membership", k, gap)
        if want_orth:
            inner = float(np.vdot(x - tx, raw - tx))
            bound = ORTHOGONALITY_RTOL * (1.0 + _norm(x - tx) * _norm(raw - tx))
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
        x = xn
        if res < cfg.tolerance:
            moved = kind == "crm" and fix_residuals[-1] >= cfg.tolerance
            stop_reason = "inconsistent" if moved else "converged"
            break
        if not math.isfinite(res):
            stop_reason = "non-finite"
            break
    elapsed = time.perf_counter() - t0

    return IterationTrace(
        iterations=len(residuals),
        stop_reason=stop_reason,
        residual_history=residuals,
        fixed_point_residuals=fix_residuals,
        final_point=x,
        dist_history=dists,
        elapsed_s=elapsed,
    )


# Ratios are only formed where the denominator exceeds this floor.
RATE_FLOOR = 100.0 * float(np.finfo(float).eps)


def estimate_rate(dist_history) -> RateEstimate:
    """Contraction ratios d_{k+1} / d_k of a distance history.

    Pairs whose denominator is at or below 100 machine epsilons are dropped
    (they carry no rate information); if no pair survives, the history is
    insufficient.  The geometric mean is zero when any surviving ratio is
    zero (an exact hit).
    """
    h = np.asarray(dist_history, dtype=float)
    if h.ndim != 1 or h.size < 2:
        raise InsufficientHistory("need at least two distances")
    ratios = [float(h[k + 1] / h[k]) for k in range(h.size - 1) if h[k] > RATE_FLOOR]
    if not ratios:
        raise InsufficientHistory("all denominators at or below the floor")
    sup = max(ratios)
    if min(ratios) <= 0.0:
        geo = 0.0
    else:
        geo = float(np.exp(np.mean(np.log(ratios))))
    return RateEstimate(per_step_ratios=ratios, sup_ratio=sup, geometric_mean_ratio=geo)
