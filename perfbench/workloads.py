"""The three benchmark workloads and their correctness checks.

Every workload is a fixed amount of work derived from the master seed:
set-up builds the inputs, and one *pass* runs the timed work on them.
Passes are repeated for the measured time; every pass does the same work
and must produce bit-identical results.

Solver workloads are organised in *streams*.  A stream solves the
instances of one (n, p) cell with one solver, one after another, and
stops after exactly ``budget`` iterations: each solve runs until it
converges or reaches ``cap`` iterations (or the rest of the budget).
Iteration counts to convergence vary over 30x between seeds of the same
cell, so a fixed iteration budget, spread over several instances, is
what keeps the work, and the time, of a pass steady from seed to seed.
A solve cut at its cap is checked by invariants (finite iterates, Fejer
monotone distance to the certified solution, operator images equal to an
independent oracle at the final point).  In every stream that completes
no solve, the first cut solve is resumed once per run, outside the timed
phase, for up to RESUME_ITERATIONS iterations in all, and a converged
resume must pass the certificate.  crm must converge within that limit;
ppm, whose iteration counts reach 7555 at 50x50 over five seeds, may not,
and an unfinished ppm resume is recorded without counting as a failure.
"""
from __future__ import annotations

import math
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from crmfp import bench, instance_gen, operators, product_space, solvers

from oracle import CombinationOracle

TOLERANCE = 1e-6          # SolverConfig default, as in `crmfp bench`
# Total iterations of a resumed solve: bounds the untimed verification
# (ppm at 50x50 costs about 2.4 ms per iteration on the development box).
RESUME_ITERATIONS = 10000
CRM_DIAGNOSTICS = ("fejer", "membership")   # what the grid runner enables
# Certificate bound max_i ||T_i x - x|| <= CERT_FACTOR * p * TOLERANCE; the
# parallel step stops on the mean displacement, so one operator may still
# move x by up to p times the tolerance.
CERT_FACTOR = 10.0
# Operator images at a final point must match the oracle to this relative
# accuracy; the library's projector meets it with gaps near 1e-12.
ORACLE_RTOL = 1e-9
FEJER_RTOL = 1e-8
SLACK_RTOL = 1e-8
GRADIENT_GAP_MAX = 1e-5   # acceptance criterion 11 of the test suite


def instance_seed(master_seed: int, n: int, p: int, replicate: int) -> int:
    """Per-instance seed from the master seed, independent of order."""
    ss = np.random.SeedSequence([master_seed, n, p, replicate])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@dataclass
class Case:
    """One generated instance with its start point, ready to solve."""

    replicate: int
    seed: int
    instance: object
    x0: np.ndarray


def make_case(master_seed: int, n: int, p: int, replicate: int) -> Case:
    seed = instance_seed(master_seed, n, p, replicate)
    inst = instance_gen.gen_instance(instance_gen.InstanceSpec(n=n, p=p, seed=seed))
    x0 = instance_gen.initial_point(inst)
    # Warm-up: one evaluation per operator computes and caches every
    # eigendecomposition, so the timed solves start from a warm state.
    for op in inst.operators:
        op(x0)
    return Case(replicate, seed, inst, x0)


@dataclass(frozen=True)
class Stream:
    solver: str   # "ppm" (parallel step in R^n) or "crm" (product space)
    n: int
    p: int
    budget: int   # iterations per pass
    cap: int      # iterations per solve at most

    @property
    def label(self) -> str:
        return f"{self.solver}@{self.n}x{self.p}"


@dataclass
class Solve:
    """One solve of a pass; everything but elapsed_s must repeat exactly."""

    stream: Stream
    case: Case
    max_iterations: int
    iterations: int = 0
    stop_reason: str = ""
    elapsed_s: float = 0.0
    final_point: np.ndarray | None = None
    error: str = ""

    def key(self) -> tuple:
        point = b"" if self.final_point is None else self.final_point.tobytes()
        return (self.stream.label, self.case.replicate, self.iterations,
                self.stop_reason, self.error, point)

    def record(self) -> dict:
        return {
            "stream": self.stream.label, "replicate": self.case.replicate,
            "seed": self.case.seed, "iterations": self.iterations,
            "stop_reason": self.error or self.stop_reason,
        }


def solve(stream: Stream, case: Case, max_iterations: int, start=None):
    """One run of the stream's solver, as the grid runner sets it up."""
    inst = case.instance
    if stream.solver == "ppm":
        cfg = solvers.SolverConfig(tolerance=TOLERANCE, max_iterations=max_iterations)
        x = case.x0 if start is None else start
        # The solution only adds a distance record per iteration (for the
        # Fejer check); ppm runs no diagnostics, as in the grid runner.
        return solvers.run("ppm", inst.operators, x, cfg, solution=inst.fixed_point)
    p = len(inst.operators)
    cfg = solvers.SolverConfig(
        tolerance=TOLERANCE, max_iterations=max_iterations, diagnostics=CRM_DIAGNOSTICS
    )
    lifted = product_space.BlockOperator(inst.operators)
    diagonal = product_space.DiagonalSubspace(stream.n, p)
    x = product_space.embed(case.x0, p) if start is None else start
    return solvers.run(
        "crm", (lifted, diagonal), x, cfg, solution=product_space.embed(inst.fixed_point, p)
    )


def fejer_ok(dist_history) -> bool:
    d = np.asarray(dist_history)
    return bool((d[1:] <= d[:-1] + FEJER_RTOL * (1.0 + d[:-1])).all())


def run_stream(stream: Stream, cases: list[Case]) -> list[Solve]:
    """Solve the cell's instances in turn until the budget is spent."""
    out = []
    used = 0
    r = 0
    while used < stream.budget:
        case = cases[r % len(cases)]
        s = Solve(stream, case, min(stream.cap, stream.budget - used))
        try:
            trace = solve(stream, case, s.max_iterations)
        except Exception as exc:  # recorded as a failed solve; the pass goes on
            s.error = f"error:{type(exc).__name__}: {exc}"
            s.iterations = s.max_iterations
        else:
            s.iterations = trace.iterations
            s.stop_reason = trace.stop_reason
            s.elapsed_s = trace.elapsed_s
            s.final_point = trace.final_point
            if not fejer_ok(trace.dist_history):
                s.error = "fejer-violation"
            elif not np.isfinite(trace.final_point).all():
                s.error = "non-finite"
            elif not (trace.stop_reason == "converged"
                      or trace.iterations == s.max_iterations):
                s.error = f"unexpected-stop:{trace.stop_reason}"
        out.append(s)
        used += s.iterations
        r += 1
    return out


@dataclass
class PassResult:
    wall_s: float
    work_s: float            # solver loop time, or wall time for checks
    iterations: int          # solver iterations, or checks
    evaluations: int         # operator evaluations
    items: list              # Solve or Check records, in order
    setup_s: float | None = None   # set-up time inside the pass (bench-grid)
    scale: float = 1.0             # seconds at the reference speed per second

    def keys(self) -> list:
        return [item.key() for item in self.items]


def _solver_pass(streams, pools, t0) -> PassResult:
    solves = [s for st in streams for s in run_stream(st, pools[(st.n, st.p)])]
    work = sum(s.elapsed_s for s in solves)
    iterations = sum(s.iterations for s in solves)
    evaluations = sum(s.iterations * s.stream.p for s in solves)
    return PassResult(time.perf_counter() - t0, work, iterations, evaluations, solves)


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)


def verify_solves(solves: list[Solve], verdict: Verdict, resume_log: list) -> None:
    """Oracle checks on one pass's solves, plus one converged solve per stream."""
    oracles: dict[int, CombinationOracle] = {}

    def oracle(case):
        if id(case) not in oracles:
            oracles[id(case)] = CombinationOracle(case.instance.operators)
        return oracles[id(case)]

    def check_final(s, point, iterations, stop_reason):
        ops = s.case.instance.operators
        orc = oracle(s.case)
        x = point[0] if s.stream.solver == "crm" else point
        p = len(ops)
        scale = 1.0 + float(np.linalg.norm(x))
        if s.stream.solver == "crm":
            spread = float(np.abs(point - point[0]).max())
            verdict.check(spread <= 1e-9 * scale, f"{s.stream.label} r{s.case.replicate}: "
                          f"lifted iterate off the diagonal by {spread:.2e}")
        images = np.stack([op(x) for op in ops])
        ref = orc.images(np.broadcast_to(x, (p, x.shape[0])))
        gap = float(np.abs(images - ref).max())
        verdict.check(gap <= ORACLE_RTOL * scale, f"{s.stream.label} r{s.case.replicate}: "
                      f"operator images differ from the oracle by {gap:.2e}")
        if stop_reason == "converged":
            cert = orc.certificate(x)
            bound = CERT_FACTOR * p * TOLERANCE
            verdict.check(cert <= bound, f"{s.stream.label} r{s.case.replicate}: "
                          f"certificate {cert:.2e} > {bound:.1e} after {iterations} its")

    for s in solves:
        verdict.check(not s.error, f"{s.stream.label} r{s.case.replicate}: {s.error}")
        if s.error:
            continue
        check_final(s, s.final_point, s.iterations, s.stop_reason)

    by_stream: dict[str, list[Solve]] = {}
    for s in solves:
        by_stream.setdefault(s.stream.label, []).append(s)
    for label, group in by_stream.items():
        if any(s.stop_reason == "converged" and not s.error for s in group):
            continue
        s = next((s for s in group if not s.error), None)
        if s is None:
            continue
        try:
            trace = solve(s.stream, s.case, RESUME_ITERATIONS - s.iterations,
                          start=s.final_point)
        except Exception as exc:
            verdict.check(False, f"{label} resume: error:{type(exc).__name__}")
            continue
        total = s.iterations + trace.iterations
        resume_log.append({"stream": label, "replicate": s.case.replicate,
                           "iterations": total, "stop_reason": trace.stop_reason})
        if s.stream.solver == "crm" or trace.stop_reason != "max-iterations":
            verdict.check(trace.stop_reason == "converged",
                          f"{label} r{s.case.replicate}: resumed solve stopped with "
                          f"{trace.stop_reason} after {total} iterations")
        verdict.check(fejer_ok(trace.dist_history), f"{label} resume: fejer-violation")
        check_final(s, trace.final_point, total, trace.stop_reason)


# -- solver workloads ------------------------------------------------------


class StreamWorkload:
    """crm-large: product-space crm streams on instances built in set-up."""

    name = "crm-large"
    # Stacked rotations of several MB per call: see run.Calibration.
    batched_calibration = True

    def __init__(self, seed, streams, pool):
        self.seed = seed
        self.streams = streams
        self.pool = pool

    def make_pools(self) -> dict:
        cells = sorted({(s.n, s.p) for s in self.streams})
        return {
            (n, p): [make_case(self.seed, n, p, r) for r in range(self.pool)]
            for n, p in cells
        }

    def setup(self):
        return self.make_pools()

    def prepare(self, state):
        return state

    def run_pass(self, pools) -> PassResult:
        return _solver_pass(self.streams, pools, time.perf_counter())

    def verify(self, last: PassResult, verdict: Verdict, log: list) -> None:
        verify_solves(last.items, verdict, log)


class GridWorkload(StreamWorkload):
    """bench-grid: the grid runner's cells, solvers and exports, per pass."""

    name = "bench-grid"

    def __init__(self, seed, streams, pool, workdir):
        super().__init__(seed, streams, pool)
        self.workdir = workdir

    def setup(self):
        return None          # generation is part of every pass, as in the grid

    def run_pass(self, state) -> PassResult:
        t0 = time.perf_counter()
        result = _solver_pass(self.streams, self.make_pools(), t0)
        # Set-up inside the grid: its wall time minus the solver loops.
        result.setup_s = result.wall_s - result.work_s
        rows = [
            bench.RunResult(
                solver=s.stream.solver, n=s.stream.n, p=s.stream.p,
                replicate=s.case.replicate, seed=s.case.seed, iterations=s.iterations,
                elapsed_s=s.elapsed_s, final_residual=math.nan,
                stop_reason=s.error or s.stop_reason,
            )
            for s in result.items
        ]
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=self.workdir) as out:
            out = Path(out)
            bench.export(rows, out / "results.csv")
            for group in (("solver",), ("solver", "n"), ("solver", "p")):
                bench.export(bench.summarize(rows, group_by=group),
                             out / f"summary_by_{'_'.join(group)}.csv")
            bench.export(bench.performance_profile(rows), out / "profile_iterations.csv")
        result.wall_s = time.perf_counter() - t0
        return result


# -- checks workload -------------------------------------------------------


@dataclass
class Check:
    kind: str          # "slack-member", "slack-combination" or "gradient"
    op: object
    x: np.ndarray
    y: np.ndarray | None = None
    value: float = math.nan
    error: str = ""

    def key(self) -> tuple:
        return (self.kind, self.value, self.error)

    def evaluations(self) -> int:
        return 2 if self.y is not None else 1 + 2 * self.x.shape[0]


def _exterior_point(rng, n, sets, scale, margin=0.0) -> np.ndarray:
    x = rng.standard_normal(n) * scale
    for _ in range(60):
        if all(e.g(x) > margin for e in sets):
            return x
        x = 1.5 * x
    raise RuntimeError("could not draw a point outside the sets")


class ChecksWorkload:
    """checks-exterior: the operator algebra's checks on exterior points."""

    name = "checks-exterior"
    # One to five rows per call: interpreter-bound, see run.Calibration.
    batched_calibration = False

    def __init__(self, seed, n, p, member_pairs, combination_pairs, gradients):
        self.seed = seed
        self.n = n
        self.p = p
        self.sizes = (member_pairs, combination_pairs, gradients)

    def setup(self):
        return make_case(self.seed, self.n, self.p, 0)

    def prepare(self, case):
        """The pass's inputs, drawn from the seed (not part of set-up time)."""
        rng = np.random.default_rng([self.seed, self.n, self.p, 1])
        combos = case.instance.operators
        members = [m for op in combos for m in op.operators]
        member_pairs, combination_pairs, gradients = self.sizes
        checks = []
        for i in range(member_pairs):
            m = members[i % len(members)]
            sets = [m.ellipsoid]
            checks.append(Check("slack-member", m, _exterior_point(rng, self.n, sets, 3.0),
                                _exterior_point(rng, self.n, sets, 3.0)))
        for i in range(combination_pairs):
            op = combos[i % len(combos)]
            sets = [m.ellipsoid for m in op.operators]
            checks.append(Check("slack-combination", op,
                                _exterior_point(rng, self.n, sets, 3.0),
                                _exterior_point(rng, self.n, sets, 3.0)))
        for i in range(gradients):
            m = members[(7 * i) % len(members)]
            checks.append(Check("gradient", m,
                                _exterior_point(rng, self.n, [m.ellipsoid], 3.0, 1e-3)))
        return case, checks

    def run_pass(self, state) -> PassResult:
        case, checks = state
        t0 = time.perf_counter()
        done = []
        for c in checks:
            r = Check(c.kind, c.op, c.x, c.y)
            try:
                if c.y is None:
                    r.value = operators.gradient_check(c.op, c.x)
                else:
                    r.value = operators.firm_nonexpansiveness_slack(c.op, c.x, c.y)
            except Exception as exc:  # recorded as a failed check; the pass goes on
                r.error = f"error:{type(exc).__name__}: {exc}"
            done.append(r)
        wall = time.perf_counter() - t0
        evaluations = sum(c.evaluations() for c in checks)
        return PassResult(wall, wall, len(checks), evaluations, done)

    def verify(self, last: PassResult, verdict: Verdict, log: list) -> None:
        for c in last.items:
            if c.error:
                verdict.check(False, f"{c.kind}: {c.error}")
            elif c.y is None:
                verdict.check(c.value <= GRADIENT_GAP_MAX,
                              f"gradient gap {c.value:.2e} > {GRADIENT_GAP_MAX:.0e}")
            else:
                tol = SLACK_RTOL * (1.0 + float(np.sum((c.x - c.y) ** 2)))
                verdict.check(c.value >= -tol, f"{c.kind}: slack {c.value:.2e} < -{tol:.1e}")
        # The checks pass for any firmly nonexpansive map (the identity
        # too), so the projections themselves are compared with the oracle.
        items = last.items
        ops = [c.op for c in items] + [c.op for c in items if c.y is not None]
        points = np.stack([c.x for c in items] + [c.y for c in items if c.y is not None])
        images = np.stack([op(x) for op, x in zip(ops, points)])
        gaps = np.abs(images - CombinationOracle(ops).images(points)).max(axis=1)
        for gap, scale in zip(gaps, 1.0 + np.linalg.norm(points, axis=1)):
            verdict.check(gap <= ORACLE_RTOL * scale,
                          f"projection differs from the oracle by {gap:.2e}")


def build(name: str, seed: int, workdir: Path, tiny: bool = False):
    """The named workload; tiny=True gives the self-test's small version."""
    if name == "bench-grid":
        # The default grid runner's work on square cells: ppm in R^n and
        # crm in the product space with fejer+membership.  ppm carries
        # most of the iterations; every projector call shares one point
        # (about 40 rows per call at 10x10, 200 at 50x50).  10x10 is bound
        # by per-call interpreter overhead, 50x50 by the stacked rotation.
        if tiny:
            streams = (Stream("ppm", 4, 3, 30, 10), Stream("crm", 4, 3, 12, 4))
            return GridWorkload(seed, streams, 2, workdir)
        streams = (
            Stream("ppm", 10, 10, 300, 100), Stream("crm", 10, 10, 120, 40),
            Stream("ppm", 50, 50, 200, 70), Stream("crm", 50, 50, 90, 30),
        )
        return GridWorkload(seed, streams, 3, workdir)
    if name == "crm-large":
        # crm on large blocks: rows of a block call carry different points
        # (the np.repeat path of apply_each), so the lifted operator, the
        # diagonal projection, circumcenters and the diagnostics all run.
        # The eigenbases read per call (10-13 MB) exceed the L2 cache.
        if tiny:
            return StreamWorkload(seed, (Stream("crm", 6, 3, 12, 6),), 2)
        streams = (Stream("crm", 100, 30, 150, 50), Stream("crm", 200, 10, 150, 50))
        return StreamWorkload(seed, streams, 3)
    if name == "checks-exterior":
        # The checks of the operator algebra, the projector layer used the
        # other way round: 1 row per member call, 3-5 per combination
        # call, and every row exterior, so the root-find dominates.
        if tiny:
            return ChecksWorkload(seed, 5, 2, 4, 2, 1)
        return ChecksWorkload(seed, 50, 10, 80, 50, 5)
    raise KeyError(name)
