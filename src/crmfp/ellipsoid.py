"""Ellipsoids and Euclidean projections onto them.

An ellipsoid is the sublevel set {x : x'Ax + 2 b'x - alpha <= 0} with A
symmetric positive definite.  Projection of an exterior point reduces to a
one-dimensional root-find in the multiplier lam of the stationarity system
(I + lam A) p = x - lam b.  In the eigenbasis of A, g(p(lam)) plus a
constant is the trust-region secular form sum_i c_i / (1 + lam w_i)^2, so
its inverse square root is concave and increasing in lam (More & Sorensen,
1983; Dai, 2006).  Newton's method on that transform, started at lam = 0,
rises monotonically to the root and needs no bracket.  All heavy work
happens in the eigenbasis (computed once per ellipsoid and cached), which
makes every Newton step O(n) and lets many (ellipsoid, point) pairs be
driven in lockstep as rows of a batch.  Rows of a batch never interact, so
batched results equal one-at-a-time results exactly.

Two projectors are provided: project_kkt solves the root-find directly;
project_admm runs a splitting iteration (quadratic term / indicator term
with a consensus constraint) whose set step is that same root-find.  The
tests check both against dense bisection on the multiplier, which shares
no code with either.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, RootNotBracketed

# Inner root-find residual: |g| <= INNER_G_RTOL * (1 + |alpha|).
INNER_G_RTOL = 1e-12
# Default tolerance of the direct projector (it stops at |g| <= KKT_TOL / 2).
KKT_TOL = 1e-11


class Ellipsoid:
    """Set {x : x'Ax + 2 b'x - alpha <= 0} with A symmetric positive definite.

    alpha must be positive, so the origin is interior: g(0) = -alpha < 0.
    """

    def __init__(self, A, b, alpha: float):
        A = np.asarray(A, dtype=float)
        b = np.asarray(b, dtype=float)
        alpha = float(alpha)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise DimensionMismatch(f"A must be square, got shape {A.shape}")
        if b.shape != (A.shape[0],):
            raise DimensionMismatch(
                f"b has shape {b.shape}, expected ({A.shape[0]},)"
            )
        if not (np.isfinite(A).all() and np.isfinite(b).all() and np.isfinite(alpha)):
            raise ValueError("ellipsoid data must be finite")
        if np.abs(A - A.T).max() > 1e-12:
            raise ValueError("A must be symmetric (max |A - A'| <= 1e-12)")
        if alpha <= 0.0:
            raise ValueError("alpha must be positive (the origin must be interior)")
        self.A = A
        self.b = b
        self.alpha = alpha
        self._eig: tuple[np.ndarray, np.ndarray] | None = None
        self._single: EllipsoidStack | None = None

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    def _point(self, x) -> np.ndarray:
        """x as a float vector of this ellipsoid's dimension."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise DimensionMismatch(f"point has shape {x.shape}, expected ({self.dim},)")
        return x

    def g(self, x) -> float:
        """Membership value x'Ax + 2 b'x - alpha; nonpositive inside the set."""
        x = self._point(x)
        return float(x @ self.A @ x + 2.0 * (self.b @ x) - self.alpha)

    def eig(self) -> tuple[np.ndarray, np.ndarray]:
        """Cached eigendecomposition (eigenvalues, eigenvectors) of A."""
        if self._eig is None:
            w, q = np.linalg.eigh(self.A)
            if w.min() <= 0.0:
                raise ValueError("A is not positive definite")
            self._eig = (w, q)
        return self._eig

    def stack(self) -> "EllipsoidStack":
        """Cached one-row batch view of this ellipsoid."""
        if self._single is None:
            self._single = EllipsoidStack([self])
        return self._single

    def to_dict(self) -> dict:
        """Plain-data form: dense row-major A, dense b, scalar alpha."""
        return {
            "A": self.A.ravel().tolist(),
            "b": self.b.tolist(),
            "alpha": self.alpha,
        }

    @classmethod
    def from_dict(cls, data: dict, dim: int) -> "Ellipsoid":
        A = np.asarray(data["A"], dtype=float).reshape(dim, dim)
        return cls(A, np.asarray(data["b"], dtype=float), float(data["alpha"]))


class EllipsoidStack:
    """Eigenbasis data for a fixed list of same-dimension ellipsoids.

    Row j of a batch belongs to ellipsoid j.  Built once and reused; each
    member's Ellipsoid.eig() cache becomes a view of its own rows, so no
    eigenbasis is held twice.
    """

    def __init__(self, ellipsoids):
        ellipsoids = tuple(ellipsoids)
        if not ellipsoids:
            raise ValueError("need at least one ellipsoid")
        n = ellipsoids[0].dim
        if any(e.dim != n for e in ellipsoids):
            raise DimensionMismatch("stacked ellipsoids must share one dimension")
        eigs = []
        rots = []
        for e in ellipsoids:
            w, q = e.eig()
            eigs.append(w)
            rots.append(q)
        self.dim = n
        self.eigs = np.stack(eigs)                    # (J, n)
        self.rot = np.stack(rots)                     # (J, n, n)
        self.b_rot = np.matmul(
            self.rot.transpose(0, 2, 1),
            np.stack([e.b for e in ellipsoids])[..., None],
        )[..., 0]                                     # (J, n)
        self.alphas = np.array([e.alpha for e in ellipsoids])
        for j, e in enumerate(ellipsoids):
            e._eig = (self.eigs[j], self.rot[j])

    @classmethod
    def concatenate(cls, stacks) -> "EllipsoidStack":
        out = cls.__new__(cls)
        out.dim = stacks[0].dim
        out.eigs = np.concatenate([s.eigs for s in stacks])
        out.rot = np.concatenate([s.rot for s in stacks])
        out.b_rot = np.concatenate([s.b_rot for s in stacks])
        out.alphas = np.concatenate([s.alphas for s in stacks])
        return out

    def __len__(self) -> int:
        return len(self.alphas)

    def to_eigen(self, rows: np.ndarray) -> np.ndarray:
        return np.matmul(self.rot.transpose(0, 2, 1), rows[..., None])[..., 0]

    def g_eigen(self, rows_t: np.ndarray) -> np.ndarray:
        return (
            (self.eigs * rows_t * rows_t).sum(-1)
            + 2.0 * (self.b_rot * rows_t).sum(-1)
            - self.alphas
        )


@dataclass(frozen=True)
class AdmmConfig:
    """Splitting-iteration parameters for the ellipsoid projector."""

    tolerance: float = 1e-8
    max_iterations: int = 10000
    penalty: float = 1.0

    def __post_init__(self):
        if self.tolerance <= 0.0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.penalty <= 0.0:
            raise ValueError("penalty must be positive")


@dataclass
class AdmmResult:
    """Projection estimate, iterations used, and whether the stop rule fired."""

    point: np.ndarray
    iterations: int
    converged: bool


def _g_rows(w, bt, alph, pt) -> np.ndarray:
    return (w * pt * pt).sum(-1) + 2.0 * (bt * pt).sum(-1) - alph


def _root_project(w, bt, alph, zt, gtol) -> np.ndarray:
    """Eigencoordinate projections for rows strictly outside their sets.

    Solves g(p(lam)) = 0 per row, p(lam) = (z - lam b) / (1 + lam w)
    elementwise.  With s = (w z + b) / (1 + lam w) = w p + b, the value has
    the secular form phi(lam) = g + beta = sum s^2 / w, where
    beta = alpha + sum b^2 / w > 0, so h = phi^(-1/2) is concave and
    increasing in lam.  Newton on h(lam) = beta^(-1/2) from lam = 0 therefore
    rises monotonically to the root: no bracket or safeguard is needed.
    Stops when |g| <= gtol (rowwise); finished rows keep their multiplier.
    """
    num = w * zt + bt
    beta = alph + (bt * bt / w).sum(-1)
    lam = np.zeros(zt.shape[0])
    done = np.zeros(zt.shape[0], dtype=bool)
    for k in range(100):
        denom = 1.0 + lam[:, None] * w
        pt = (zt - lam[:, None] * bt) / denom
        val = _g_rows(w, bt, alph, pt)
        if k == 0 and not np.isfinite(val).all():
            raise RootNotBracketed("non-finite exterior row")
        done |= np.abs(val) <= gtol
        if done.all():
            return pt
        s = num / denom
        phi = val + beta
        # h step (beta^-1/2 - phi^-1/2) / h' with -phi' = 2 sum s^2 / denom.
        step = phi * val / (beta * (np.sqrt(phi / beta) + 1.0) * (s * s / denom).sum(-1))
        lam = np.where(done, lam, lam + step)
    raise RootNotBracketed("projection multiplier iteration did not converge")


def kkt_project_stacked(stack: EllipsoidStack, rows: np.ndarray, tol: float) -> np.ndarray:
    """Rowwise direct projections: row j onto stack ellipsoid j."""
    rows = np.ascontiguousarray(rows, dtype=float)
    zt = stack.to_eigen(rows)
    out = rows.copy()
    ext = ~(stack.g_eigen(zt) <= 0.0)   # non-finite rows are exterior, and raise
    if ext.any():
        idx = np.flatnonzero(ext)
        pt = _root_project(
            stack.eigs[idx], stack.b_rot[idx], stack.alphas[idx], zt[idx], 0.5 * tol
        )
        out[idx] = np.matmul(stack.rot[idx], pt[..., None])[..., 0]
    return out


def admm_project_stacked(
    stack: EllipsoidStack, rows: np.ndarray, cfg: AdmmConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rowwise splitting-iteration projections.

    Returns (points, iterations, converged) with one entry per row.  Each
    row runs its own iteration and freezes as soon as its own displacement
    drops below cfg.tolerance, so the results match one-row calls exactly.
    Interior rows cost one iteration and return unchanged.
    """
    rows = np.ascontiguousarray(rows, dtype=float)
    count = rows.shape[0]
    zt_all = stack.to_eigen(rows)
    out = rows.copy()
    iters = np.ones(count, dtype=int)
    converged = np.ones(count, dtype=bool)
    ext = ~(stack.g_eigen(zt_all) <= 0.0)   # non-finite rows are exterior, and raise
    if not ext.any():
        return out, iters, converged

    idx = np.flatnonzero(ext)
    w = stack.eigs[idx]
    bt = stack.b_rot[idx]
    alph = stack.alphas[idx]
    zt = zt_all[idx]
    gtol_inner = INNER_G_RTOL * (1.0 + np.abs(alph))
    rho = cfg.penalty

    p = zt.copy()
    u = np.zeros_like(zt)
    q_prev = zt.copy()
    sub_iters = np.full(len(idx), cfg.max_iterations, dtype=int)
    sub_conv = np.zeros(len(idx), dtype=bool)
    active = np.ones(len(idx), dtype=bool)

    for k in range(1, cfg.max_iterations + 1):
        act = np.flatnonzero(active)
        shifted = p[act] + u[act]
        q_act = shifted.copy()
        inner_ext = ~(_g_rows(w[act], bt[act], alph[act], shifted) <= 0.0)
        if inner_ext.any():
            ii = act[inner_ext]
            q_act[inner_ext] = _root_project(
                w[ii], bt[ii], alph[ii], shifted[inner_ext], gtol_inner[ii]
            )
        p_new = (zt[act] + rho * (q_act - u[act])) / (1.0 + rho)
        u_new = u[act] + p_new - q_act
        disp = np.linalg.norm(q_act - q_prev[act], axis=-1)

        p[act] = p_new
        u[act] = u_new
        q_prev[act] = q_act
        hit = disp < cfg.tolerance
        if hit.any():
            done_rows = act[hit]
            sub_iters[done_rows] = k
            sub_conv[done_rows] = True
            active[done_rows] = False
            if not active.any():
                break

    out[idx] = np.matmul(stack.rot[idx], q_prev[..., None])[..., 0]
    iters[idx] = sub_iters
    converged[idx] = sub_conv
    return out, iters, converged


def project_kkt(ellipsoid: Ellipsoid, x, tol: float = KKT_TOL) -> np.ndarray:
    """Euclidean projection onto the ellipsoid via the stationarity root-find.

    Interior points (g(x) <= 0) return unchanged.  For exterior points the
    unique multiplier lam* > 0 with g(p(lam*)) = 0 is refined until
    |g| <= tol / 2.  The splitting projector's set step is this root-find.
    """
    x = ellipsoid._point(x)
    return kkt_project_stacked(ellipsoid.stack(), x[None, :], tol)[0]


def project_admm(ellipsoid: Ellipsoid, x, cfg: AdmmConfig | None = None) -> AdmmResult:
    """Euclidean projection onto the ellipsoid via a consensus splitting.

    The point update is a closed-form proximal step of the squared distance
    to x; the set update projects the shifted point exactly through the
    same root-find the direct solver uses; the scaled multiplier accumulates
    the consensus gap.  Stops when successive set-feasible iterates move
    less than cfg.tolerance; if max_iterations is hit first, the best
    iterate is returned with converged=False.
    """
    if cfg is None:
        cfg = AdmmConfig()
    x = ellipsoid._point(x)
    pts, iters, conv = admm_project_stacked(ellipsoid.stack(), x[None, :], cfg)
    return AdmmResult(point=pts[0], iterations=int(iters[0]), converged=bool(conv[0]))
