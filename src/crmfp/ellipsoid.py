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

Most rows of a solver's projector calls are interior and come back
unchanged, yet the interior test needs the row in the eigenbasis: an
O(n^2) rotation per row.  g is quadratic, so around any interior anchor y
it is bounded exactly by g(y) + |grad g(y)| d + w_max d^2 at distance d,
and a ball around y lies in the set with a margin that covers the float64
rounding of the exact test.  Each stack keeps one such anchor per row; a
row inside its anchor's ball is certified interior and returned unchanged
without being rotated, exactly as the exact test would return it.  Every
other row takes the same arithmetic as without the cache, so the cache
never changes an output bit.

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
# Margin of the interior certificate, relative to the size of g's terms
# within the certified ball: at least 1e4 times the rounding of the exact test.
SCREEN_RTOL = 1e-9


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
    eigenbasis is held twice.  tile(k) repeats the stack k times over
    (row r belongs to member r mod J) without copying an eigenbasis, so k
    points can go through one stacked solve.

    The stack also caches, in balls = (anchors, radii2), one interior
    anchor per row (the last point of row j found interior by a full
    rotation) and the squared radius of a ball around it that lies in the
    set with margin (-1 without one); balls is None before the first.
    certified() tests rows against those balls, and anchor() replaces the
    pair as a whole, so a concurrent call never pairs an anchor with
    another anchor's radius; kkt_project_stacked uses both.  The cache
    only decides which rows are rotated, never what any row's output is.
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
        self._reset_screen()

    @classmethod
    def concatenate(cls, stacks) -> "EllipsoidStack":
        if any(len(s.rot) != len(s) for s in stacks):
            raise ValueError("a tile of several members cannot be concatenated")
        out = cls.__new__(cls)
        out.dim = stacks[0].dim
        out.eigs = np.concatenate([s.eigs for s in stacks])
        out.rot = np.concatenate([s.rot for s in stacks])
        out.b_rot = np.concatenate([s.b_rot for s in stacks])
        out.alphas = np.concatenate([s.alphas for s in stacks])
        out._reset_screen()
        return out

    def tile(self, k: int) -> "EllipsoidStack":
        """Stack of k * J rows in which row r belongs to member r mod J.

        The eigenbases are shared, never copied: rot is this stack's own
        (J, n, n) array, and for J = 1 all four arrays are stride-0 views
        of this stack's.  The tiled stack has its own, empty screen.
        """
        out = EllipsoidStack.__new__(EllipsoidStack)
        out.dim = self.dim
        if len(self) == 1:
            out.eigs = np.broadcast_to(self.eigs, (k, self.dim))
            out.rot = np.broadcast_to(self.rot, (k, self.dim, self.dim))
            out.b_rot = np.broadcast_to(self.b_rot, (k, self.dim))
            out.alphas = np.broadcast_to(self.alphas, (k,))
        else:
            out.eigs = np.tile(self.eigs, (k, 1))
            out.rot = self.rot
            out.b_rot = np.tile(self.b_rot, (k, 1))
            out.alphas = np.tile(self.alphas, k)
        out._reset_screen()
        return out

    def _reset_screen(self) -> None:
        """No anchors: the next call rotates every row."""
        self.balls = None
        # False until a full rotation finds an interior row, and again
        # after one finds none: then no row is screened.
        self.screen = False

    def __len__(self) -> int:
        return len(self.alphas)

    def to_eigen(self, rows: np.ndarray) -> np.ndarray:
        rot_t = self.rot.transpose(0, 2, 1)
        if len(rot_t) == len(rows):
            return np.matmul(rot_t, rows[..., None])[..., 0]
        # A tile of J > 1 members: row r against basis r mod J.
        return np.matmul(rot_t, rows.reshape(-1, len(rot_t), self.dim, 1)).reshape(rows.shape)

    def g_eigen(self, rows_t: np.ndarray) -> np.ndarray:
        return (
            (self.eigs * rows_t * rows_t).sum(-1)
            + 2.0 * (self.b_rot * rows_t).sum(-1)
            - self.alphas
        )

    def certified(self, rows: np.ndarray) -> np.ndarray | None:
        """Rows strictly inside their anchor's ball (a mask), or None when
        the stack does not screen.  NaN and inf rows are never certified."""
        if not self.screen:
            return None
        anchors, radii2 = self.balls
        diff = rows - anchors
        return np.einsum("ij,ij->i", diff, diff) < radii2

    def anchor(self, rows: np.ndarray, rows_t: np.ndarray, g: np.ndarray, inside: np.ndarray) -> None:
        """Make the rows that a full rotation found interior (mask inside;
        eigencoordinates rows_t, computed g) the anchors of their rows.

        With s = -g(y) - m > 0, every x with |x - y| < r, where
        r = 2s / (G + sqrt(G^2 + 4 w_max s)) solves G r + w_max r^2 = s and
        G = |grad g(y)| = 2 |w t + b~|, has g(x) <= g(y) + G r + w_max r^2
        < -m.  Capping r at |y| + 1 keeps |x| <= R = 2|y| + 1, so the
        margin m = SCREEN_RTOL (1 + alpha + 2 |b| R + w_max R^2) bounds
        the rounding of g computed at any certified x.  Rows with s <= 0
        get radius -1: nothing is certified around them.
        """
        w_max = self.eigs.max(-1)
        with np.errstate(all="ignore"):   # non-finite rows are not anchored
            v = self.eigs * rows_t + self.b_rot
            grad = 2.0 * np.sqrt(np.einsum("ij,ij->i", v, v))
            y_norm = np.sqrt(np.einsum("ij,ij->i", rows, rows))
            b_norm = np.sqrt(np.einsum("ij,ij->i", self.b_rot, self.b_rot))
            big_r = 2.0 * y_norm + 1.0
            margin = SCREEN_RTOL * (1.0 + self.alphas + (2.0 * b_norm + w_max * big_r) * big_r)
            s = -g - margin
            room = np.maximum(s, 0.0)
            r = 2.0 * room / (grad + np.sqrt(grad * grad + 4.0 * w_max * room))
            r = np.minimum(r, y_norm + 1.0)
        anchors, radii2 = self.balls or (0.0, -1.0)
        anchors = np.where(inside[:, None], rows, anchors)
        radii2 = np.where(inside, np.where(s > 0.0, r * r, -1.0), radii2)
        self.balls = (anchors, radii2)
        self.screen = True


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
    """Rowwise direct projections: row j onto stack ellipsoid j.

    Rows the stack certifies interior (EllipsoidStack.certified) return
    unchanged without being rotated.  When the stack does not screen, or
    the rows in doubt are at least as many as the certified ones, the whole
    stack is rotated in one batch and its interior rows become the new
    anchors; otherwise only the rows in doubt are rotated, one product
    each, and the anchors stay.  A per-row product equals its row of the
    batched one bit for bit, and a certified row is interior by the exact
    test, so every output is what rotating every row would give.  Row j
    uses basis j mod len(stack.rot), which is j itself unless the stack is
    a tile (EllipsoidStack.tile).
    """
    rows = np.ascontiguousarray(rows, dtype=float)
    out = rows.copy()
    period = len(stack.rot)
    cert = stack.certified(rows)
    if cert is None or 2 * np.count_nonzero(cert) <= len(cert):
        zt = stack.to_eigen(rows)
        g = stack.g_eigen(zt)
        ext = ~(g <= 0.0)   # non-finite rows are exterior, and raise
        idx = np.flatnonzero(ext)
        if len(idx) < len(ext):
            stack.anchor(rows, zt, g, ~ext)
        else:
            stack.screen = False
        zt_ext = zt[idx]
    else:
        doubt = np.flatnonzero(~cert)
        zt = np.empty((len(doubt), stack.dim))
        for k, j in enumerate(doubt.tolist()):
            np.dot(stack.rot[j % period].T, rows[j], out=zt[k])
        ext = ~(_g_rows(stack.eigs[doubt], stack.b_rot[doubt], stack.alphas[doubt], zt) <= 0.0)
        idx = doubt[ext]
        zt_ext = zt[ext]
    if len(idx):
        pt = _root_project(
            stack.eigs[idx], stack.b_rot[idx], stack.alphas[idx], zt_ext, 0.5 * tol
        )
        for k, j in enumerate(idx.tolist()):
            np.dot(stack.rot[j % period], pt[k], out=out[j])
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

    out[idx] = np.matmul(stack.rot[idx % len(stack.rot)], q_prev[..., None])[..., 0]
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
