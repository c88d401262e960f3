"""Seeded random instances: convex combinations of ellipsoid projections.

Every generated ellipsoid contains the origin in its interior, so the zero
vector is a certified common fixed point of all generated operators.  All
randomness flows through one numpy Generator per instance; the draw order
is fixed (per operator: member count, raw weights, then each ellipsoid as
sparsity mask, dense values, linear term), so a spec regenerates the same
instance bit for bit.

Generation and loading also decompose the instance: one
ellipsoid.decompose call over every member ellipsoid, in operator order,
fills their eig() caches from one array, so every combination and every
operator-list plan over the instance views its rows instead of copying
them.  Generation draws on the calling thread and hands decompose each
member's build (A from the member's sparse B) as soon as the member is
drawn, so on decompose's pool the builds, and then the
eigendecompositions, overlap the draws; the bits are those of one thread.
A build writes a dense A, but the member keeps only A's nonzero entries
(Ellipsoid), 2-10 % of them at n >= 50, so once the member is built the
dense A is garbage.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .ellipsoid import Ellipsoid, decompose
from .errors import CannotExitSets, integer
from .operators import ConvexCombination, EllipsoidProjection


def _check_gamma_and_density(gamma: float, density: float) -> None:
    """The rules on an ellipsoid's curvature floor gamma and fill ratio
    density, which InstanceSpec and gen_ellipsoid both apply before any
    draw; NaN fails both comparisons."""
    if not 0.0 < gamma < np.inf:
        raise ValueError("gamma must be positive and finite")
    if not 0.0 < density <= 1.0:
        raise ValueError("density must lie in (0, 1]")


@dataclass
class InstanceSpec:
    """Parameters of one random instance.

    density defaults to 2/n (capped at 1), the expected two nonzeros per
    matrix row.  eta is the common coordinate of the starting point and
    must be negative so the start lies outside the positive-leaning sets.
    """

    n: int
    p: int
    seed: int
    gamma: float = 1.0
    density: float | None = None
    r_range: tuple[int, ...] = (3, 4, 5)
    eta: float = -5.0

    def __post_init__(self):
        # Counts and the seed are integers (numpy's too, not bools); anything
        # else raises TypeError (errors.integer).
        self.n, self.p, self.seed = integer(self.n), integer(self.p), integer(self.seed)
        if self.n < 1 or self.p < 1:
            raise ValueError("n and p must be positive")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.density is None:
            self.density = min(1.0, 2.0 / self.n)
        _check_gamma_and_density(self.gamma, self.density)
        self.r_range = tuple(map(integer, self.r_range))
        if not self.r_range or any(r < 1 for r in self.r_range):
            raise ValueError("r_range must hold positive member counts")
        if not -np.inf < self.eta < 0.0:
            raise ValueError("eta must be negative and finite")

    def to_dict(self) -> dict:
        return {**asdict(self), "r_range": list(self.r_range)}

    @classmethod
    def from_dict(cls, data: dict) -> "InstanceSpec":
        # The counts and the seed are read by the constructor's own check.
        parsers = {"n": integer, "p": integer, "seed": integer, "gamma": float, "density": float,
                   "r_range": lambda rs: tuple(map(integer, rs)), "eta": float}
        return cls(**{name: _field(data, name, parse) for name, parse in parsers.items()})


def _field(data, key, convert):
    """convert(data[key]).  A missing or malformed value raises a ValueError
    that names key; nested fields read "operators: 0: ellipsoids: 1: A: missing"."""
    try:
        value = data[key]
    except (KeyError, TypeError):
        raise ValueError(f"{key}: missing") from None
    try:
        return convert(value)
    except KeyError as exc:   # a field of value is missing (Ellipsoid.from_dict)
        raise ValueError(f"{key}: {exc.args[0]}: missing") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{key}: {exc}") from None


@dataclass
class FppInstance:
    """Generated problem: p operators on R^n with certified common fixed point."""

    spec: InstanceSpec
    operators: list[ConvexCombination]
    fixed_point: np.ndarray


def _draw_ellipsoid(n: int, rng: np.random.Generator, gamma: float, density: float):
    """Draw one ellipsoid (sparsity mask, dense values, linear term) and
    return its build: a zero-argument callable that returns the Ellipsoid.

    Only B's masked entries (about 2n at the default density) are kept
    until the build.  The build writes A = gamma I + B'B, symmetrised, into
    an array allocated here, on the drawing thread, and checks it through
    Ellipsoid.  Per element it takes the operations of the dense form
    0.5 * ((gamma I + B'B) + (gamma I + B'B)'), in that order, so any thread
    gives the same bits.  Only the addition of gamma * 0 = +0.0 off the
    diagonal is skipped; it would change nothing but a -0.0 of B'B, and
    B'B's sums hold none even where every product is -0.0 (the tests
    compare the bits with the dense form on such a B).  The Ellipsoid keeps
    A's nonzero entries, not the array, so A is freed with the build.
    """
    at = np.flatnonzero(rng.random(n * n) < density)
    values = rng.standard_normal(n * n)[at]
    b = rng.random(n)
    A = np.empty((n, n))

    def build() -> Ellipsoid:
        B = np.zeros((n, n))
        B.ravel()[at] = values          # ravel views a C-contiguous array
        G = B.T @ B
        G.ravel()[::n + 1] += gamma     # as is matmul's result
        np.add(G, G.T, out=A)
        np.multiply(0.5, A, out=A)
        return Ellipsoid(A, b, float(b @ A @ b) + 1.0)

    return build


def _draw_operators(count: int, n: int, rng: np.random.Generator, spec: InstanceSpec,
                    weights: list):
    """Draw count operators in the seeded order, yielding each member's
    build as it is drawn; each operator's weights are appended to weights
    before its members are drawn."""
    for _ in range(count):
        r = int(rng.choice(np.asarray(spec.r_range)))
        raw = rng.random(r)
        weights.append(raw / raw.sum())
        for _ in range(r):
            yield _draw_ellipsoid(n, rng, spec.gamma, spec.density)


def _combinations(ellipsoids, weights) -> list[ConvexCombination]:
    """ellipsoids, in order, split into one combination per weight vector."""
    members = iter(ellipsoids)
    return [ConvexCombination([EllipsoidProjection(next(members)) for _ in w], w) for w in weights]


def gen_ellipsoid(n: int, rng: np.random.Generator, gamma: float = 1.0,
                  density: float | None = None) -> Ellipsoid:
    """One random ellipsoid containing the origin in its interior.

    A = gamma I + B'B with B sparse (entries standard normal with the given
    density), b uniform on [0, 1]^n, and the level alpha = b'Ab + 1, which
    keeps g(0) = -alpha strictly negative.  It draws and builds on the
    calling thread; gen_instance's members take the same draws and builds,
    the builds on decompose's pool.  gamma and density follow InstanceSpec's
    rules, checked before anything is drawn, so a rejected call leaves rng
    as it was.
    """
    density = min(1.0, 2.0 / n) if density is None else density
    _check_gamma_and_density(gamma, density)
    return _draw_ellipsoid(n, rng, gamma, density)()


def gen_operator(n: int, rng: np.random.Generator, spec: InstanceSpec) -> ConvexCombination:
    """One random convex combination of ellipsoid projections (KKT root-find)."""
    weights = []
    members = [build() for build in _draw_operators(1, n, rng, spec, weights)]
    return _combinations(members, weights)[0]


def gen_instance(spec: InstanceSpec, decomposed: bool = True) -> FppInstance:
    """All p operators of an instance from one seeded stream, decomposed
    unless decomposed is False (for a caller that only writes it out).

    The draws run on the calling thread, in the seeded order.  Decomposed,
    each member's build goes to decompose as it is drawn, so on decompose's
    pool (sized on p * max(r_range) members, the most the draws can give)
    builds overlap the draws that follow, and eigendecompositions follow
    once the last member is drawn.  Not decomposed, the builds run on the
    calling thread and no thread is started.
    """
    rng = np.random.default_rng(spec.seed)
    weights = []
    builds = _draw_operators(spec.p, spec.n, rng, spec, weights)
    ellipsoids = (decompose(builds, (spec.p * max(spec.r_range), spec.n)) if decomposed
                  else [build() for build in builds])
    return FppInstance(spec=spec, operators=_combinations(ellipsoids, weights),
                       fixed_point=np.zeros(spec.n))


def _decomposed(instance: FppInstance) -> FppInstance:
    """instance, its member ellipsoids decomposed in one call, in operator order."""
    decompose(proj.ellipsoid for op in instance.operators for proj in op.operators)
    return instance


def initial_point(instance: FppInstance) -> np.ndarray:
    """Constant starting vector (eta, ..., eta) outside every generated set.

    If some ellipsoid still contains the candidate, eta is doubled, up to
    ten times; generated sets are bounded so this fails only on broken data.
    """
    eta = instance.spec.eta
    ellipsoids = [
        proj.ellipsoid for op in instance.operators for proj in op.operators
    ]
    for _ in range(11):
        x = np.full(instance.spec.n, eta)
        if all(e.g(x) > 0.0 for e in ellipsoids):
            return x
        eta *= 2.0
    raise CannotExitSets("no scaled constant start lies outside every set")


def instance_to_dict(instance: FppInstance) -> dict:
    """Plain-data form of an instance (spec plus every operator's data)."""
    return {
        "spec": instance.spec.to_dict(),
        "operators": [
            {
                "weights": op.weights.tolist(),
                "ellipsoids": [proj.ellipsoid.to_dict() for proj in op.operators],
            }
            for op in instance.operators
        ],
    }


def instance_from_dict(data: dict) -> FppInstance:
    """Inverse of instance_to_dict, decomposed.  A missing or malformed field
    raises a ValueError that names it; a matrix that is not positive
    definite raises decompose's ValueError."""
    spec = _field(data, "spec", InstanceSpec.from_dict)

    def entries(convert):
        return lambda items: [_field(items, k, convert) for k in range(len(items))]

    def member(e):
        return EllipsoidProjection(Ellipsoid.from_dict(e, spec.n))

    def combination(op_data):
        members = _field(op_data, "ellipsoids", entries(member))
        return ConvexCombination(members, _field(op_data, "weights", np.asarray))

    operators = _field(data, "operators", entries(combination))
    return _decomposed(FppInstance(spec=spec, operators=operators, fixed_point=np.zeros(spec.n)))


def save_instance(instance: FppInstance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_dict(instance), fh, indent=2)
        fh.write("\n")


def load_instance(path) -> FppInstance:
    """Read an instance json.  A file that is not json, or whose fields are
    missing or malformed, raises a ValueError naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return instance_from_dict(json.load(fh))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
