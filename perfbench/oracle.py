"""Independent reference for the operators the workloads evaluate.

Projects onto an ellipsoid {x : x'Ax + 2 b'x <= alpha} by plain bisection
on the multiplier of the stationarity system (I + lam A) p = x - lam b,
in an eigenbasis computed here rather than taken from the library's
cache.  g(p(lam)) decreases strictly in lam, so bisection to a bracket
width at rounding level gives the projection to near machine precision.
Slow but simple; used only outside the timed phase.
"""
from __future__ import annotations

import numpy as np


class EllipsoidOracle:
    """Rowwise reference projections onto a fixed list of ellipsoids."""

    def __init__(self, ellipsoids):
        self.w, self.q, self.bt, self.alpha = [], [], [], []
        for e in ellipsoids:
            w, q = np.linalg.eigh(np.asarray(e.A, dtype=float))
            self.w.append(w)
            self.q.append(q)
            self.bt.append(q.T @ np.asarray(e.b, dtype=float))
            self.alpha.append(float(e.alpha))
        self.w = np.array(self.w)
        self.q = np.array(self.q)
        self.bt = np.array(self.bt)
        self.alpha = np.array(self.alpha)

    def project(self, rows: np.ndarray) -> np.ndarray:
        """Row j projected onto ellipsoid j."""
        rows = np.asarray(rows, dtype=float)
        zt = np.einsum("jkn,jk->jn", self.q, rows)
        w, bt, alpha = self.w, self.bt, self.alpha

        def g(lam):
            pt = (zt - lam[:, None] * bt) / (1.0 + lam[:, None] * w)
            return (w * pt * pt).sum(-1) + 2.0 * (bt * pt).sum(-1) - alpha, pt

        outside = g(np.zeros(len(rows)))[0] > 0.0
        lo = np.zeros(len(rows))
        hi = np.ones(len(rows))
        for _ in range(200):
            grow = outside & (g(hi)[0] > 0.0)
            if not grow.any():
                break
            hi = np.where(grow, 2.0 * hi, hi)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if not (outside & (mid > lo) & (mid < hi)).any():
                break
            pos = g(mid)[0] > 0.0
            lo = np.where(outside & pos, mid, lo)
            hi = np.where(outside & ~pos, mid, hi)
        pt = g(hi)[1]
        out = np.einsum("jnk,jk->jn", self.q, pt)
        return np.where(outside[:, None], out, rows)


def _parts(op):
    """(members, weights) of a convex combination; a projection is its own member."""
    if hasattr(op, "operators"):
        return list(op.operators), np.asarray(op.weights, dtype=float)
    return [op], np.ones(1)


class CombinationOracle:
    """Reference images of convex combinations of ellipsoid projections.

    Takes the library's operators only as data: a combination exposes
    ``operators`` (projections with an ``ellipsoid``) and ``weights``; a
    single projection stands for itself with weight one.
    """

    def __init__(self, operators):
        parts = [_parts(op) for op in operators]
        self.sizes = [len(members) for members, _ in parts]
        self.weights = [weights for _, weights in parts]
        self.members = EllipsoidOracle(
            [proj.ellipsoid for members, _ in parts for proj in members]
        )

    def images(self, points: np.ndarray) -> np.ndarray:
        """Row i: operator i applied to points[i] (points is (p, n))."""
        proj = self.members.project(np.repeat(points, self.sizes, axis=0))
        out = np.empty_like(np.asarray(points, dtype=float))
        start = 0
        for i, (size, weights) in enumerate(zip(self.sizes, self.weights)):
            out[i] = weights @ proj[start:start + size]
            start += size
        return out

    def certificate(self, x: np.ndarray) -> float:
        """max_i ||T_i x - x||: zero exactly at a common fixed point."""
        x = np.asarray(x, dtype=float)
        points = np.broadcast_to(x, (len(self.sizes), x.shape[0]))
        return float(np.linalg.norm(self.images(points) - x, axis=1).max())
