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
batched results equal one-at-a-time results exactly.  At these sizes a
step costs its numpy calls more than its arithmetic, so the root-find
makes as few as it can: it starts from the g of the interior test (at
lam = 0 nothing is left to evaluate), reads the constant beta of the
secular form from the stack, and steps in buffers allocated once per
call.  Each later step evaluates g in secular form, sum s^2 / w - beta
with s = (w z + b) / (1 + lam w), from one s^2 that also gives the next
step's derivative: two row sums per step, and the stop rule tests that
g.  The projection p itself is formed once per row, after the loop, from
its final lam.  A row also finishes when a late step moves lam only by
rounding, since with a large beta g's rounding can exceed the tolerance.
The stacked projector, kkt_exterior_stacked, returns the exterior rows'
indices and their projections only, since every interior row projects to
itself; kkt_project_stacked writes them into a copy of the rows, the dense
(J, n) result.  A call whose rows are all exterior rotates them back in
one batched product, with no copy of the input and no scatter.

Most rows of a solver's projector calls are interior and come back
unchanged, yet the interior test needs the row in the eigenbasis: an
O(n^2) rotation per row.  g is quadratic with Hessian 2A <= 2 w_max I, so
around any anchor y it is bounded exactly by its tangent plane plus a
curvature term, g(x) <= g(y) + grad g(y)'(x - y) + w_max |x - y|^2.
Expanded in x, that bound is a constant plus a linear form in
(x, |x|, |x|^2), so each stack keeps, per row, one anchor (a point the
exact test found interior) as one constant and one row of n + 2
coefficients (Tangents).  Only a point shared by every row of a call (rows
with stride 0), the call every solver makes, is screened and anchors, and
certifying it is one GEMV.  Only a stack of at least SCREEN_MIN_ENTRIES
eigenbasis entries (J n^2 for a plan's stack) anchors: on a smaller one
the GEMV and the anchor updates cost more than the rotations they save
(J n^2 is about 4e3 at 10x10), so it never screens and every call
rotates the whole stack.  A row whose bound, plus a margin that covers
the float64 rounding of the exact test and of the expanded form, is below
0 is certified interior and returned unchanged without being rotated,
exactly as the exact test would return it.  Every other row takes the
same arithmetic as without the cache, so the cache never changes an
output bit.

Every stack has one layout (EllipsoidStack): C-contiguous per-row
arrays, and a (period, n, n) array of eigenbases in which row r uses basis
r mod period, so a tile shares its members' eigenbases and one batched
product (_rotate) rotates any stack.  Every rotation of some rows of a call
(the rows in doubt, the exterior rows back, new anchors' gradients back)
goes through one routine, _rotate_rows: one batched product when the rows
are at least half of the call's, else one np.dot per row, which gives the
same bits as its row of the batch.

Eigendecompositions are computed in one place, decompose(): over many
ellipsoids at once (an instance's members, in operator order), on a
thread pool when the work pays for one, into one array of rows, and each
ellipsoid's cache is a view of its row.  Generation hands decompose each
member's build as it draws the member, so the same pool builds the
matrices while the draws go on, then decomposes them.  A stack over
consecutive rows of that array, in order, views the slice; any other
stack gathers a copy of its rows.

Two projectors are provided: project_kkt solves the root-find directly;
project_admm runs a splitting iteration (quadratic term / indicator term
with a consensus constraint) whose set step is that same root-find.  Both
build a one-row stack per call and keep no state, and an Ellipsoid holds
no stack: an operator that projects onto it (operators.EllipsoidProjection)
keeps its own one-row stack, and every plan its own stack, so each caller's
anchors live as long as that caller.  The operators of crmfp.operators
project through the direct root-find only.  The tests check both projectors
against dense bisection on the multiplier, which shares no code with either.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, RootNotBracketed, integer

# Inner root-find residual: |g| <= INNER_G_RTOL * (1 + |alpha|).
INNER_G_RTOL = 1e-12
# Default tolerance of the direct projector (it stops at |g| <= KKT_TOL / 2).
KKT_TOL = 1e-11
# Margin of the interior certificate, relative to the size of g's terms at
# the anchor and the row (see EllipsoidStack.anchor).
SCREEN_RTOL = 1e-9
# The fewest eigenbasis entries (stack.rot.size, J n^2 for a plan's stack)
# of a stack that anchors shared points; a smaller stack never screens.
# Measured on whole ppm and crm runs: the screen loses at 10x10 (4e3
# entries), breaks even at 10x30 (1.2e4) and wins from 10x50 (2e4) on.
SCREEN_MIN_ENTRIES = 2**14
# The settings of the threads one BLAS call may take, in the order BLAS reads them.
_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


def _check_vec(x, dim: int) -> np.ndarray:
    """x as a float vector of dimension dim, or DimensionMismatch."""
    x = np.asarray(x, dtype=float)
    if x.shape != (dim,):
        raise DimensionMismatch(f"point has shape {x.shape}, expected ({dim},)")
    return x


class Ellipsoid:
    """Set {x : x'Ax + 2 b'x - alpha <= 0} with A symmetric positive definite.

    alpha must be positive, so the origin is interior: g(0) = -alpha < 0.

    A is kept as its entries whose bits are not +0.0 (a -0.0 is kept),
    each with its flat index: a generated A is 2-10 % nonzero at n >= 50,
    so this is a small fraction of its dense bytes, and a fully dense A
    costs up to twice them (an int64 index beside each value).  The
    attribute A rebuilds a new dense array, bit for bit the input, on each
    access, in O(n^2).  decompose() reads it once per member, and g,
    translate and to_dict once per call; no projector path reads it.  b is
    a copy of the input, so a caller's later writes change nothing here.
    """

    def __init__(self, A, b, alpha: float):
        A = np.asarray(A, dtype=float)
        b = np.array(b, dtype=float)
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
        flat = np.ascontiguousarray(A).ravel()
        self._n = A.shape[0]
        # Every entry whose bits are not those of +0.0 (so -0.0 is kept), by
        # its flat C-order index; nothing else of A is kept.  The mask's
        # nonzero() is 4x faster than that of the uint64 view at n = 100-200.
        self._index = (flat.view(np.uint64) != 0).nonzero()[0]
        self._values = flat[self._index]
        self.b = b
        self.alpha = alpha
        self._eig: tuple[np.ndarray, np.ndarray] | None = None
        # b in the eigenbasis, and the row of both caches in decompose()'s
        # arrays; decompose() sets them.  Every attribute is bound here, so
        # instances keep one layout: binding _row first in decompose() made
        # the operator checks, which read none of these, 3-4 % slower.
        self._b_rot: np.ndarray | None = None
        self._row: int | None = None

    @property
    def A(self) -> np.ndarray:
        """A new dense (n, n) array, bit for bit the A this ellipsoid was
        built from."""
        A = np.zeros((self._n, self._n))
        A.ravel()[self._index] = self._values
        return A

    @property
    def dim(self) -> int:
        return self._n

    def g(self, x) -> float:
        """Membership value x'Ax + 2 b'x - alpha; nonpositive inside the set."""
        x = _check_vec(x, self.dim)
        return float(x @ self.A @ x + 2.0 * (self.b @ x) - self.alpha)

    def eig(self) -> tuple[np.ndarray, np.ndarray]:
        """Cached eigendecomposition (eigenvalues, eigenvectors) of A.

        b in that eigenbasis, Q'b, is cached beside it (as _b_rot); one
        np.dot gives the bits of its row of a batched rotation.  Only
        decompose() sets the caches, always as views of one row of its
        arrays; here it runs over this ellipsoid alone, unless the caches
        are already set (generation and loading set them for a whole
        instance).
        """
        if self._eig is None:
            decompose([self])
        return self._eig

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


def _pool_size(members: int, n: int) -> int:
    """Threads for decompose: the CPUs this process may use over the threads
    one BLAS call may take, at most one per member, and one (no pool) for
    fewer than 2^26 units of members * n^3.  members may be a bound on the
    count (generation sizes its pool before the draws end).  BLAS takes
    every CPU unless the first of OPENBLAS_NUM_THREADS, MKL_NUM_THREADS and
    OMP_NUM_THREADS that holds a positive count says otherwise; a pool
    beside a threaded BLAS only oversubscribes the CPUs.  Below that work a
    pool ran no faster than one thread (40 and 200 members at n = 50), and
    a pool leaves the process multi-threaded for good, so it must pay for
    itself."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    blas = next((int(v) for v in map(os.getenv, _BLAS_ENV) if v and v.isdigit() and int(v)), cpus)
    return max(1, min(members, cpus // blas)) if members * n**3 >= 2**26 else 1


class _Done(NamedTuple):
    """A future whose task is done: result() is value."""

    value: object

    def result(self):
        return self.value


# The executor of one thread, the caller's: each task runs when submitted.
_INLINE = SimpleNamespace(submit=lambda task, *args: _Done(task(*args)))


def decompose(members, bound: tuple[int, int] | None = None) -> list[Ellipsoid]:
    """Set the eig() caches of same-dimension ellipsoids from one set of
    arrays; return the ellipsoids in row order.

    members yields Ellipsoids or builds: zero-argument callables that each
    return a new Ellipsoid (generation yields one per member as it draws
    it).  For builds, bound = (at most how many, n) sizes the pool, which
    starts before the last member is known; without it, members is read
    into a list first, one entry per distinct ellipsoid (by identity).
    decompose runs on an executor of W = _pool_size(most, n) threads: a
    pool created for this call and shut down before it returns (LAPACK
    releases the GIL), so no thread outlives it and a later fork inherits
    none; at W = 1 the same tasks run at once on the calling thread.  Each
    build is submitted as members yields it.  Once members is exhausted,
    its count M is known, eigs (M, n), rot (M, n, n) and b_rot (M, n) are
    allocated once, C-contiguous, with row j for the j-th member, and one
    task per member writes its row: np.linalg.eigh and np.dot(q.T, b),
    whatever thread runs it, so the bits do not depend on W.  A task drops
    eigh's output at once, so no eigenbasis is held twice.  Each member's
    caches become views of its row (_row = j).  This is the only place
    that computes eigendecompositions.  When a build fails or some A is
    not positive definite, the error is raised (on a pool, the first in
    row order once every task is done), and no member's caches are set.
    """
    if bound is None:
        members = list(dict.fromkeys(members))   # by identity: one row per ellipsoid
        bound = (len(members), members[0].dim if members else 0)
    most, n = bound

    def fill(j, member):
        e = member.result()
        w, q = np.linalg.eigh(e.A)
        if w.min() <= 0.0:
            raise ValueError("A is not positive definite")
        eigs[j], rot[j], b_rot[j] = w, q, np.dot(q.T, e.b)
        return e

    workers = _pool_size(most, n)
    with ThreadPoolExecutor(workers) if workers > 1 else nullcontext(_INLINE) as pool:
        # A build is not kept once submitted, so its draws are freed once it has run.
        built = [pool.submit(item) if callable(item) else _Done(item) for item in members]
        M = len(built)
        eigs, rot, b_rot = np.empty((M, n)), np.empty((M, n, n)), np.empty((M, n))
        # The pool starts tasks in the order they were submitted, so a fill
        # waits only for a build that is running or done.
        filled = [pool.submit(fill, j, member) for j, member in enumerate(built)]
        done = [f.result() for f in filled]
    for j, e in enumerate(done):
        e._eig, e._b_rot, e._row = (eigs[j], rot[j]), b_rot[j], j
    return done


class Tangents(NamedTuple):
    """The interior certificate of an EllipsoidStack: one anchor per row,
    in expanded form.

    Row j is certified at x when const[j] + lin[j] @ (x, |x|, |x|^2) < 0
    (see EllipsoidStack.anchor).  For an anchor y with gradient G and
    curvature c, lin[j] is (G - 2 c y, rho |G - 2 c y|, c (1 + rho)).  A row
    without an anchor has const inf and lin (0, 0, c (1 + rho)).  curv,
    m_const and m_norm2 are fixed per row.
    """

    const: np.ndarray           # (J,) g(y) + m_y - G'y + c |y|^2; inf without an anchor
    lin: np.ndarray             # (J, n + 2) the coefficients of (x, |x|, |x|^2)
    curv: np.ndarray            # (J,) c = w_max (1 + 6 SCREEN_RTOL)
    m_const: np.ndarray         # (J,) m_y = m_const + m_norm2 |y|^2
    m_norm2: np.ndarray         # (J,)


def _rotate(rot: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Row r times rot[r mod len(rot)], in one batched product."""
    return np.matmul(rot, rows.reshape(-1, len(rot), rows.shape[-1], 1)).reshape(rows.shape)


def _rotate_rows(rot: np.ndarray, count: int, idx: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """vecs[k] times rot[idx[k] mod len(rot)], for rows idx of a call of
    count rows: one batched product when idx is at least half the rows,
    else one np.dot per row.  Each np.dot equals its row of the batch bit
    for bit."""
    if 2 * len(idx) >= count:
        scattered = np.zeros((count, vecs.shape[-1]))
        scattered[idx] = vecs
        return _rotate(rot, scattered)[idx]
    out = np.empty_like(vecs)
    period = len(rot)
    for k, j in enumerate(idx.tolist()):
        np.dot(rot[j % period], vecs[k], out=out[k])
    return out


class EllipsoidStack:
    """Eigenbasis data for a fixed list of same-dimension ellipsoids.

    Row j of a batch belongs to ellipsoid j.  Built once and reused.  Every
    stack, plain or tiled, has one layout: eigs, b_rot (b in the
    eigenbasis), alphas and betas are C-contiguous arrays with one row per
    batch row, and rot is a (period, n, n) array of eigenbases, row r using
    rot[r mod period] (period = J for a plain stack).  betas holds each
    row's constant beta = alpha + sum b~^2 / w of the secular form (see
    _root_project), computed once here rather than per projector call.

    The rows come from the members' Ellipsoid.eig() caches, the
    eigendecomposition and b in its eigenbasis, which decompose() sets as
    views of one row of its arrays (.base names the array, _row the row).
    The stack first decomposes, in one call, the members that have no cache
    yet (no call when every member has one), then follows one rule: when
    the members' caches are consecutive rows of one array, in order, eigs,
    rot and b_rot view that slice; otherwise they gather a copy.  No stack
    rebinds a cache.
    So every combination's stack and every plan over an instance that
    generation or loading decomposed, in operator order, views one array
    and copies nothing; a reversed list or a subset copies.  The caches
    keep only the arrays alive, never a stack, so a stack is freed when its
    last user drops it.  Each stack keeps its own alphas, betas and anchors.
    tile(k) repeats the stack k times over (row r belongs to member r mod
    J) without copying an eigenbasis, so k points can go through one
    stacked solve.

    The stack also caches, in tangents (a Tangents, None before the first
    anchor, and for good on a stack of fewer than SCREEN_MIN_ENTRIES
    eigenbasis entries), one anchor per row: the last shared point of a
    call that was in doubt at row j and that the exact test found interior
    there, kept as the constant and the coefficients of its tangent-plane
    bound.  certified() tests a shared point against those bounds, and
    anchor() replaces the cache as a whole, so a concurrent call never
    pairs one row's constant with another anchor's coefficients;
    kkt_project_stacked uses both.  The cache only decides
    which rows are rotated, never what any row's output is.
    """

    def __init__(self, ellipsoids):
        ellipsoids = tuple(ellipsoids)
        if not ellipsoids:
            raise ValueError("need at least one ellipsoid")
        self.dim = n = ellipsoids[0].dim
        if any(e.dim != n for e in ellipsoids):
            raise DimensionMismatch("stacked ellipsoids must share one dimension")
        if fresh := [e for e in ellipsoids if e._eig is None]:
            decompose(fresh)
        # The slice of the first member's arrays that starts at its row, when
        # the members' caches are that slice's rows.
        (w0, q0), b0, J = ellipsoids[0]._eig, ellipsoids[0]._b_rot, len(ellipsoids)
        base, start = q0.base, ellipsoids[0]._row
        self.eigs, self.rot, self.b_rot = (a.base[start:start + J] for a in (w0, q0, b0))
        if any(e._eig[1].base is not base or e._row != start + j for j, e in enumerate(ellipsoids)):
            self.eigs, self.rot, self.b_rot = map(
                np.stack, zip(*((*e._eig, e._b_rot) for e in ellipsoids)))
        self.alphas = np.array([e.alpha for e in ellipsoids])
        self.betas = self.alphas + (self.b_rot * self.b_rot / self.eigs).sum(-1)
        self.tangents: Tangents | None = None

    @classmethod
    def concatenate(cls, stacks) -> "EllipsoidStack":
        if any(len(s.rot) != len(s) for s in stacks):
            raise ValueError("a tile cannot be concatenated")
        out = cls.__new__(cls)
        out.dim = stacks[0].dim
        out.eigs = np.concatenate([s.eigs for s in stacks])
        out.rot = np.concatenate([s.rot for s in stacks])
        out.b_rot = np.concatenate([s.b_rot for s in stacks])
        out.alphas = np.concatenate([s.alphas for s in stacks])
        out.betas = np.concatenate([s.betas for s in stacks])
        out.tangents = None
        return out

    def tile(self, k: int) -> "EllipsoidStack":
        """Stack of k * J rows in which row r belongs to member r mod J.

        The eigenbases are shared, never copied: rot is this stack's own
        array.  The per-row arrays (eigs, b_rot, alphas, betas) gather this
        stack's rows by member index into owned C-contiguous arrays, the
        same way for every J.  The tiled stack starts with no anchors, and a
        call on it never changes this stack's.
        """
        out = EllipsoidStack.__new__(EllipsoidStack)
        member = np.arange(k * len(self)) % len(self)
        out.dim, out.rot, out.tangents = self.dim, self.rot, None
        out.eigs, out.b_rot, out.alphas, out.betas = (
            a[member] for a in (self.eigs, self.b_rot, self.alphas, self.betas))
        return out

    def __len__(self) -> int:
        return len(self.alphas)

    def to_eigen(self, rows: np.ndarray) -> np.ndarray:
        return _rotate(self.rot.transpose(0, 2, 1), rows)

    def certified(self, rows: np.ndarray) -> np.ndarray | None:
        """Rows whose tangent-plane bound at their anchor, with its margin,
        is below 0 (a mask), or None when the stack has no anchors or the
        rows are not one shared point.  Rows with stride 0 are one point x,
        screened by one GEMV of the coefficients with (x, |x|, |x|^2).  A
        NaN or inf point is never certified: its bound is NaN or +inf."""
        tan = self.tangents
        if tan is None or rows.strides[0]:
            return None
        sq = rows[0] @ rows[0]
        return tan.const + tan.lin @ np.concatenate((rows[0], (np.sqrt(sq), sq))) < 0.0

    def anchor(self, idx: np.ndarray, rows: np.ndarray, rows_t: np.ndarray, g: np.ndarray) -> None:
        """Make rows, which the exact test found interior, the anchors of
        stack rows idx (rows_t: their eigencoordinates; g: their computed g).
        kkt_project_stacked anchors only a shared point, so its rows are
        equal; the bound below holds for any rows.

        For an anchor y with eigencoordinates t, G = grad g(y) = Q G~ with
        G~ = 2 (w t + b~), and g is quadratic with Hessian 2A <= 2 w I
        (w = w_max), so for d = x - y exactly g(x) = g(y) + G'd + d'Ad
        <= g(y) + G'd + w |d|^2.  With rho = SCREEN_RTOL, c = w (1 + 6 rho),
        a = G - 2 c y and level = g(y) + m_y, the bound level + G'd + c |d|^2
        is, expanded in x, const + a'x + c |x|^2 with
        const = level - G'y + c |y|^2.  Row j is certified at x when
            const + a'x + rho |a| |x| + c (1 + rho) |x|^2 < 0,
            m_y = rho (1 + 4 alpha + 11 |b|^2 / w + 24 w |y|^2),
        evaluated as one dot product of (a, rho |a|, c (1 + rho)) with
        (x, |x|, |x|^2), plus const.  In exact arithmetic that value is
        g(y) + G'd + w |d|^2 plus the margin
        m_y + 6 rho w |d|^2 + rho |a| |x| + rho c |x|^2.

        Each dot product of k terms rounds by at most k u times the sum of
        its terms' magnitudes (Higham, Accuracy and Stability of Numerical
        Algorithms, 2nd ed., section 3.1; u the unit roundoff).  So with
        gamma = c' n^(3/2) u (c' about 10, worst case, the rotation
        included) the rounding is at most gamma times S1 + S2:
        - S1, the exact test at x and g(y) and G as stored,
            1 + alpha + |g(y)| + 2 |b| (|x| + |y|) + |G| |d|
              + w (|x|^2 + |y|^2 + |y| |d| + |d|^2);
        - S2, the expanded form: forming const (|level| + |G| |y|
          + c |y|^2), forming a and a'x ((|G| + 2 c |y|) |x|), and the sum
          and the norms (|const| + 2 |a| |x| + 2 c |x|^2).
        With |g(y)| <= alpha + 2 |b| |y| + w |y|^2, |G| <= 2 w |y| + 2 |b|,
        c = w up to terms of order rho, and 2 |p| |q| <= |p|^2 / s + s |q|^2
        for any s > 0,
            S1 <= 1 + 2 alpha + 6 |b|^2 / w + 10 w |y|^2 + 6 w |d|^2,
            S2 <= 2 alpha + 5 |b|^2 / w + 14 w |y|^2 + 5 w |x|^2 + 2 |a| |x|.
        So the margin covers the rounding while 5 gamma <= rho, for n up to
        about three thousand.  When x is within a few ulps of y, const, a'x
        and c |x|^2 are each of size w |y|^2 and cancel to about g(y); the
        24 rho w |y|^2 of m_y covers their rounding.  The bound holds about
        any anchor; anchors are interior points because that is where it
        certifies most.  G~ is rotated back here, by _rotate_rows.
        """
        tan, n = self.tangents, self.dim
        if tan is None:
            w_max = self.eigs.max(-1)
            b2 = np.einsum("ij,ij->i", self.b_rot, self.b_rot)
            curv = w_max * (1.0 + 6.0 * SCREEN_RTOL)
            lin = np.zeros((len(self), n + 2))
            lin[:, n + 1] = curv * (1.0 + SCREEN_RTOL)
            tan = Tangents(
                np.full(len(self), np.inf), lin, curv,
                SCREEN_RTOL * (1.0 + 4.0 * self.alphas + 11.0 * b2 / w_max),
                SCREEN_RTOL * 24.0 * w_max,
            )
        grad_t = 2.0 * (self.eigs[idx] * rows_t + self.b_rot[idx])
        grad = _rotate_rows(self.rot, len(self), idx, grad_t)
        curv, y2 = tan.curv[idx], np.einsum("ij,ij->i", rows, rows)
        level = g + tan.m_const[idx] + tan.m_norm2[idx] * y2
        const, lin = tan.const.copy(), tan.lin.copy()
        const[idx] = level - np.einsum("ij,ij->i", grad, rows) + curv * y2
        lin[idx, :n] = grad - 2.0 * curv[:, None] * rows
        lin[idx, n] = SCREEN_RTOL * np.linalg.norm(lin[idx, :n], axis=-1)
        self.tangents = tan._replace(const=const, lin=lin)


@dataclass(frozen=True)
class AdmmConfig:
    """Splitting-iteration parameters for the ellipsoid projector."""

    tolerance: float = 1e-8
    max_iterations: int = 10000
    penalty: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.tolerance < np.inf:
            raise ValueError("tolerance must be positive and finite")
        if integer(self.max_iterations) < 1:   # not a bool, or TypeError
            raise ValueError("max_iterations must be at least 1")
        if not 0.0 < self.penalty < np.inf:
            raise ValueError("penalty must be positive and finite")


@dataclass
class AdmmResult:
    """Projection estimate, iterations used, and whether the stop rule fired."""

    point: np.ndarray
    iterations: int
    converged: bool


def _g_rows(w, bt, alph, pt) -> np.ndarray:
    return (w * pt * pt).sum(-1) + 2.0 * (bt * pt).sum(-1) - alph


def _root_project(w, bt, beta, zt, g, gtol) -> np.ndarray:
    """Eigencoordinate projections for rows strictly outside their sets.

    Solves g(p(lam)) = 0 per row, p(lam) = (z - lam b) / (1 + lam w)
    elementwise.  With s = (w z + b) / (1 + lam w) = w p + b, the value has
    the secular form phi(lam) = g + beta = sum s^2 / w, where
    beta = alpha + sum b^2 / w > 0 (EllipsoidStack.betas), so h = phi^(-1/2)
    is concave and increasing in lam.  Newton on h(lam) = beta^(-1/2) from
    lam = 0 therefore rises monotonically to the root: no bracket or
    safeguard is needed.  A row finishes when |g| <= gtol, or, from step 6
    on, when its last step was below 2^-50 lam or negative: in exact
    arithmetic the steps stay positive, so the step then moved lam only by
    rounding, and the row is at the root to working precision.  That stall
    exit matters when beta is large, since g's rounding (about n eps beta)
    can then exceed any absolute gtol.  Finished rows keep their multiplier.

    g is the rows' value at lam = 0, which the caller's interior test has
    computed: there the denominator is exactly 1 and s = w z + b, so the
    first step evaluates nothing but the slope sum s^2.  Every later step
    evaluates g in secular form, g = sum s^2 / w - beta, with s^2 computed
    once per step; the same s^2 gives the next step's slope
    -phi' / 2 = sum s^2 / (1 + lam w).  So the stop rule tests that secular
    g, and p is formed only once, after the loop, from each row's final
    lam; a row that finishes at lam = 0 comes back as z - 0 b, its signs
    of zero included.  Every step writes into buffers allocated once per
    call.  The buffers are C-contiguous, so each row sum is numpy's
    pairwise sum of that row, as for a freshly allocated array.  The inputs
    are used as they come, with no copy: every stack's per-row arrays are
    C-contiguous (EllipsoidStack), and so are their fancy-indexed rows.  At
    these sizes numpy's per-call dispatch outweighs the arithmetic, so the
    constant 1 is a 0-d array, which dispatches faster in every step.
    """
    if np.count_nonzero(np.isfinite(g)) < len(g):
        raise RootNotBracketed("non-finite exterior row")
    gtol, one, num = np.asarray(gtol), np.array(1.0), w * zt + bt
    lam = np.zeros(len(zt))
    lam_col, val, phi = lam[:, None], g.copy(), g + beta
    denom, buf = np.empty(zt.shape), np.empty(zt.shape)
    slope = np.add.reduce(np.square(num, out=buf), -1)   # sum s^2 / denom at lam = 0
    step, aux = np.empty(len(zt)), np.empty(len(zt))
    hit, active = np.empty(len(zt), dtype=bool), np.ones(len(zt), dtype=bool)
    for k in range(100):
        np.less_equal(np.abs(val, out=aux), gtol, out=hit)
        if k >= 6:   # the last step moved lam back, or only by rounding
            hit |= step <= 2.0**-50 * lam
        if not np.count_nonzero(np.greater(active, hit, out=active)):
            if not k:
                return zt - 0.0 * bt   # p(0), its signs of zero included
            return (zt - lam_col * bt) / (lam_col * w + one)   # p, from each row's final lam
        # h step (beta^-1/2 - phi^-1/2) / h', with beta (sqrt(phi / beta) + 1)
        # = sqrt(phi beta) + beta: phi val / ((sqrt(phi beta) + beta) slope).
        np.add(np.sqrt(np.multiply(phi, beta, out=aux), out=aux), beta, out=aux)
        np.divide(np.multiply(phi, val, out=step), np.multiply(aux, slope, out=aux), out=step)
        np.add(lam, step, out=lam, where=active)
        # The secular form at the new multipliers: s^2 = (num / denom)^2,
        # the next slope sum s^2 / denom, phi = sum s^2 / w and g = phi - beta.
        np.add(np.multiply(lam_col, w, out=denom), one, out=denom)
        np.square(np.divide(num, denom, out=buf), out=buf)
        np.add.reduce(np.divide(buf, denom, out=denom), -1, out=slope)
        np.add.reduce(np.divide(buf, w, out=buf), -1, out=phi)
        np.subtract(phi, beta, out=val)
    raise RootNotBracketed("projection multiplier iteration did not converge")


def kkt_exterior_stacked(stack: EllipsoidStack, rows: np.ndarray,
                         tol: float) -> tuple[np.ndarray, np.ndarray]:
    """(idx, proj): the rows outside their sets, in ascending order, and
    their direct projections, row j onto stack ellipsoid j.  Every other
    row is interior and projects to itself.

    Rows the stack certifies interior (EllipsoidStack.certified) are not
    rotated.  When nothing is certified (no anchors, or rows that are not
    one shared point), or the rows in doubt are at least as many as the
    certified ones, the whole stack is rotated in one batch; otherwise only
    the rows in doubt are rotated, by _rotate_rows.  At a shared point,
    either way, the rows in doubt that the exact test finds interior become
    the anchors of their rows, and certified rows keep theirs, on a stack
    of at least SCREEN_MIN_ENTRIES eigenbasis entries (stack.rot.size); a
    smaller stack never anchors, so nothing is ever certified and every
    call takes the full path.  A per-row product equals its row of the
    batched one bit for bit, and a certified row is interior by the exact
    test, so idx and proj are what rotating every row would give.  A call
    whose rows are all exterior (none certified, none interior) hands them
    to the root-find as they are and rotates the results back in one batch.
    Row j uses basis j mod len(stack.rot), which is j itself unless the
    stack is a tile (EllipsoidStack.tile).

    Rows with stride 0, such as np.broadcast_to(x, (J, n)), are one point
    x shared by every row: they are used as they are, with no contiguous
    copy, and the screen is one GEMV.  Every other rows argument, such as
    a tile's in operators.images, is made C-contiguous first, and is
    neither screened nor anchored: the anchors stay as they are.  The
    argument stays a 2-D (J, n) array even for one shared point, so that
    every caller sees one signature.  The evaluation plans call this
    function; kkt_project_stacked is its dense form.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.strides[0] or not rows[0].flags.c_contiguous:
        rows = np.ascontiguousarray(rows)
    count = len(rows)
    cert = stack.certified(rows)
    full = cert is None or 2 * np.count_nonzero(cert) <= count
    if full:
        rotated = np.arange(count)
        zt = stack.to_eigen(rows)
        g = _g_rows(stack.eigs, stack.b_rot, stack.alphas, zt)
    else:
        rotated = np.flatnonzero(~cert)
        zt = _rotate_rows(stack.rot.transpose(0, 2, 1), count, rotated, rows[rotated])
        g = _g_rows(stack.eigs[rotated], stack.b_rot[rotated], stack.alphas[rotated], zt)
    inside = g <= 0.0   # non-finite rows are exterior, and raise
    if full and not inside.any():
        return rotated, _rotate(stack.rot, _root_project(stack.eigs, stack.b_rot, stack.betas,
                                                         zt, g, 0.5 * tol))
    # At a shared point, rows in doubt found interior become anchors, and
    # certified rows keep theirs.
    fresh = inside if cert is None or not full else inside & ~cert
    if not rows.strides[0] and stack.rot.size >= SCREEN_MIN_ENTRIES and fresh.any():
        stack.anchor(rotated[fresh], rows[rotated[fresh]], zt[fresh], g[fresh])
    ext = ~inside
    idx = rotated[ext]
    pt = _root_project(stack.eigs[idx], stack.b_rot[idx], stack.betas[idx], zt[ext], g[ext],
                       0.5 * tol)
    return idx, _rotate_rows(stack.rot, count, idx, pt)


def kkt_project_stacked(stack: EllipsoidStack, rows: np.ndarray, tol: float) -> np.ndarray:
    """Rowwise direct projections, row j onto stack ellipsoid j, as one
    dense (J, n) array: kkt_exterior_stacked's projections written into a
    copy of the rows, or, when every row is exterior, those projections
    themselves, with no copy.  Interior rows come back unchanged, their
    signs of zero included.  The arguments are kkt_exterior_stacked's.
    """
    rows = np.asarray(rows, dtype=float)
    idx, proj = kkt_exterior_stacked(stack, rows, tol)
    if len(idx) == len(rows):
        return proj
    out = rows.copy()
    out[idx] = proj
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
    # Non-finite rows are exterior, and raise.
    ext = ~(_g_rows(stack.eigs, stack.b_rot, stack.alphas, zt_all) <= 0.0)
    if not ext.any():
        return out, iters, converged

    idx = np.flatnonzero(ext)
    w, bt, alph, beta, zt = (a[idx] for a in (stack.eigs, stack.b_rot, stack.alphas,
                                              stack.betas, zt_all))
    gtol_inner = INNER_G_RTOL * (1.0 + np.abs(alph))
    rho = cfg.penalty
    # Exterior rows hit the cap unconverged unless their displacement stops them.
    iters[idx], converged[idx] = cfg.max_iterations, False
    p, u, q_prev = zt.copy(), np.zeros_like(zt), zt.copy()
    active = np.ones(len(idx), dtype=bool)

    for k in range(1, cfg.max_iterations + 1):
        act = np.flatnonzero(active)
        shifted = p[act] + u[act]
        q_act = shifted.copy()
        g_inner = _g_rows(w[act], bt[act], alph[act], shifted)
        inner_ext = ~(g_inner <= 0.0)
        if inner_ext.any():
            ii = act[inner_ext]
            q_act[inner_ext] = _root_project(w[ii], bt[ii], beta[ii], shifted[inner_ext],
                                             g_inner[inner_ext], gtol_inner[ii])
        p_new = (zt[act] + rho * (q_act - u[act])) / (1.0 + rho)
        u_new = u[act] + p_new - q_act
        disp = np.linalg.norm(q_act - q_prev[act], axis=-1)

        p[act], u[act], q_prev[act] = p_new, u_new, q_act
        hit = disp < cfg.tolerance
        if hit.any():
            done = act[hit]
            iters[idx[done]], converged[idx[done]], active[done] = k, True, False
            if not active.any():
                break

    out[idx] = _rotate_rows(stack.rot, count, idx, q_prev)
    return out, iters, converged


def project_kkt(ellipsoid: Ellipsoid, x, tol: float = KKT_TOL) -> np.ndarray:
    """Euclidean projection onto the ellipsoid via the stationarity root-find.

    Interior points (g(x) <= 0) return unchanged.  For exterior points the
    unique multiplier lam* > 0 with g(p(lam*)) = 0 is refined until
    |g| <= tol / 2, or until a step moves it only by rounding
    (_root_project).  Each call projects through a one-row stack of its
    own, so nothing is kept between calls; EllipsoidProjection keeps one
    such stack, and takes the same root-find, with the same bits.
    """
    x = _check_vec(x, ellipsoid.dim)
    return kkt_project_stacked(EllipsoidStack([ellipsoid]), x[None, :], tol)[0]


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
    x = _check_vec(x, ellipsoid.dim)
    pts, iters, conv = admm_project_stacked(EllipsoidStack([ellipsoid]), x[None, :], cfg)
    return AdmmResult(point=pts[0], iterations=int(iters[0]), converged=bool(conv[0]))
