"""Acceptance suite: thirteen end-to-end behavioral criteria.

Each test prints one `criterion NN PASS/FAIL` line with the measured
quantity (visible under pytest -rA or -s), then asserts.  Fixtures shared
by several criteria (the benchmark grid, the small lifted runs) execute
once per session.
"""
import time

import numpy as np
import pytest

from crmfp import (
    AdmmConfig,
    AffineSubspace,
    AffineSubspaceProjection,
    BallProjection,
    BlockOperator,
    Composition,
    ConvexCombination,
    DiagonalSubspace,
    EllipsoidProjection,
    GridConfig,
    HalfspaceProjection,
    InstanceSpec,
    circumcenter3,
    crm_step,
    diag_project,
    embed,
    estimate_rate,
    extract,
    firm_nonexpansiveness_slack,
    gen_ellipsoid,
    gen_instance,
    gradient_check,
    idempotence_violation_search,
    initial_point,
    ppm_step,
    project_admm,
    project_kkt,
    run,
    run_experiment,
    translate,
    translated_projection_deviation,
)


def report(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} {status}: {detail}")
    assert ok, f"criterion {num:02d} failed: {detail}"


def line_problem(theta):
    d = np.array([np.cos(theta), np.sin(theta)])
    operator = AffineSubspaceProjection(AffineSubspace(np.zeros(2), d[None, :]))
    subspace = AffineSubspace(np.zeros(2), np.array([[1.0, 0.0]]))
    return operator, subspace


@pytest.fixture(scope="session")
def small_crm_courses():
    """Stepwise CRM on 50 small lifted instances; per-step measurements.

    Returns (worst relative orthogonality defect, worst relative
    off-subspace gap, total steps, elapsed seconds).
    """
    rng = np.random.default_rng(515)
    worst_orth = 0.0
    worst_member = 0.0
    steps = 0
    t0 = time.perf_counter()
    for case in range(50):
        n = int(rng.integers(2, 11))
        p = int(rng.integers(1, 6))
        inst = gen_instance(InstanceSpec(n=n, p=p, seed=7000 + case))
        block = BlockOperator(inst.operators)
        diag = DiagonalSubspace(n, p)
        x = embed(initial_point(inst), p)
        for _ in range(2000):
            gap = float(np.linalg.norm(diag.project(x) - x))
            worst_member = max(worst_member, gap / (1.0 + float(np.linalg.norm(x))))
            tx = block(x)
            c = crm_step(block, diag, x)
            steps += 1
            dx = x - tx
            dc = c - tx
            inner = abs(float(np.vdot(dx, dc)))
            scale = 1.0 + float(np.linalg.norm(dx)) * float(np.linalg.norm(dc))
            worst_orth = max(worst_orth, inner / scale)
            moved = float(np.linalg.norm(c - x))
            x = c
            if moved < 1e-6:
                break
        else:
            raise AssertionError(f"case {case} did not converge in 2000 steps")
        gap = float(np.linalg.norm(diag.project(x) - x))
        worst_member = max(worst_member, gap / (1.0 + float(np.linalg.norm(x))))
    return worst_orth, worst_member, steps, time.perf_counter() - t0


@pytest.fixture(scope="session")
def grid_results():
    """The desk-scale benchmark grid: n=10, p=10, 10 replicates."""
    grid = GridConfig(
        n_values=(10,),
        p_values=(10,),
        replicates=10,
        master_seed=2024,
        tolerance=1e-6,
        max_iterations=50000,
        diagnostics=True,
    )
    t0 = time.perf_counter()
    results = run_experiment(grid)
    return grid, results, time.perf_counter() - t0


def test_01_circumcenter_equidistance():
    rng = np.random.default_rng(11)
    dims = (2, 10, 50)
    worst = 0.0
    t0 = time.perf_counter()
    count = 0
    while count < 1000:
        dim = dims[count % 3]
        pts = rng.standard_normal((3, dim)) * rng.uniform(0.5, 20.0)
        # Skip near-collinear triples: conditioning, not correctness.
        sv = np.linalg.svd(pts[1:] - pts[0], compute_uv=False)
        if sv[-1] < 1e-3 * (sv[0] + 1.0):
            continue
        count += 1
        result = circumcenter3(pts[0], pts[1], pts[2])
        d = [float(np.linalg.norm(result.center - q)) for q in pts]
        worst = max(worst, (max(d) - min(d)) / max(d))
    elapsed = time.perf_counter() - t0
    report(
        1,
        worst <= 1e-10 and elapsed < 1.0,
        f"equidistance over 1000 triples in dims {dims}: max relative "
        f"deviation {worst:.3e} (<= 1e-10), elapsed {elapsed:.2f}s (< 1s)",
    )


def test_02_step_orthogonality(small_crm_courses):
    worst_orth, _, steps, elapsed = small_crm_courses
    report(
        2,
        worst_orth <= 1e-8 and elapsed < 30.0,
        f"displacement-to-center orthogonality over {steps} steps of 50 "
        f"lifted runs: max relative defect {worst_orth:.3e} (<= 1e-8), "
        f"elapsed {elapsed:.2f}s (< 30s)",
    )


def test_03_iterate_membership(small_crm_courses):
    _, worst_member, steps, _ = small_crm_courses
    report(
        3,
        worst_member <= 1e-8,
        f"subspace membership over {steps} steps of 50 lifted runs: max "
        f"relative gap {worst_member:.3e} (<= 1e-8)",
    )


def test_04_fejer_slack_on_grid(grid_results):
    _, results, _ = grid_results
    # Any slack below -1e-8 would have aborted that run with a
    # diagnostic-failure stop reason.
    bad = [r.stop_reason for r in results if not r.stop_reason.startswith(("converged", "max-iterations"))]
    # Direct measurement on one replicate for the record.
    inst = gen_instance(InstanceSpec(n=10, p=10, seed=results[0].seed))
    block = BlockOperator(inst.operators)
    diag = DiagonalSubspace(10, 10)
    x = embed(initial_point(inst), 10)
    y = embed(inst.fixed_point, 10)
    min_slack = np.inf
    for _ in range(300):
        c = crm_step(block, diag, x)
        step = diag.project(block(x)) - x
        slack = (
            float(np.linalg.norm(x - y)) ** 2
            - float(np.linalg.norm(c - y)) ** 2
            - float(np.linalg.norm(step)) ** 2
        )
        min_slack = min(min_slack, slack)
        if float(np.linalg.norm(c - x)) < 1e-6:
            break
        x = c
    report(
        4,
        not bad and min_slack >= -1e-8,
        f"no diagnostic failures among {len(results)} monitored grid runs; "
        f"directly measured min Fejer slack {min_slack:.3e} (>= -1e-8)",
    )


def test_05_product_space_equivalence():
    rng = np.random.default_rng(99)
    worst = 0.0
    t0 = time.perf_counter()
    for case in range(200):
        n = int(rng.integers(2, 8))
        p = int(rng.integers(1, 7))
        inst = gen_instance(InstanceSpec(n=n, p=p, seed=20000 + case))
        x = rng.standard_normal(n) * 4
        lifted = extract(
            diag_project(BlockOperator(inst.operators)(embed(x, p))), tol=np.inf
        )
        direct = ppm_step(inst.operators, x)
        worst = max(worst, float(np.linalg.norm(lifted - direct)))
    elapsed = time.perf_counter() - t0
    report(
        5,
        worst <= 1e-12 and elapsed < 5.0,
        f"lift-project-extract vs direct parallel step over 200 samples: "
        f"max gap {worst:.3e} (<= 1e-12), elapsed {elapsed:.2f}s (< 5s)",
    )


def test_06_two_line_rate_bound():
    t0 = time.perf_counter()
    worst_map_err = 0.0
    worst_crm_excess = -np.inf
    for deg in (15, 30, 45, 60):
        theta = np.radians(deg)
        operator, subspace = line_problem(theta)
        x0 = np.array([1.0, 0.0])
        trace = run("map", (operator, subspace), x0, solution=np.zeros(2))
        est = estimate_rate(trace.dist_history)
        expected = np.cos(theta) ** 2
        worst_map_err = max(
            worst_map_err,
            max(abs(r - expected) for r in est.per_step_ratios),
        )
        crm_trace = run("crm", (operator, subspace), x0, solution=np.zeros(2))
        crm_est = estimate_rate(crm_trace.dist_history)
        worst_crm_excess = max(worst_crm_excess, crm_est.sup_ratio - np.cos(theta))
    elapsed = time.perf_counter() - t0
    report(
        6,
        worst_map_err <= 1e-9 and worst_crm_excess <= 1e-6 and elapsed < 1.0,
        f"two-line rates at 15/30/45/60 deg: max alternating-ratio error "
        f"{worst_map_err:.3e} (<= 1e-9), max circumcentered excess over "
        f"cos(theta) {worst_crm_excess:.3e} (<= 1e-6), elapsed "
        f"{elapsed:.2f}s (< 1s)",
    )


def test_07_one_step_exactness_two_lines():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        theta = rng.uniform(0.05, np.pi / 2 - 0.05)
        operator, subspace = line_problem(theta)
        x = np.array([rng.uniform(-10, 10), 0.0])
        c = crm_step(operator, subspace, x)
        worst = max(worst, float(np.linalg.norm(c)))
    report(
        7,
        worst <= 1e-10,
        f"one circumcentered step from 100 seeded on-axis starts lands on "
        f"the intersection: max distance {worst:.3e} (<= 1e-10)",
    )


def test_08_projector_oracle_equivalence():
    rng = np.random.default_rng(88)
    cfg = AdmmConfig(tolerance=1e-8)
    worst = 0.0
    t0 = time.perf_counter()
    for _ in range(100):
        n = int(rng.integers(2, 51))
        e = gen_ellipsoid(n, rng)
        found = 0
        while found < 10:
            x = rng.standard_normal(n) * rng.uniform(2.0, 8.0)
            if e.g(x) <= 0:
                x = x * 100
            found += 1
            gap = float(
                np.linalg.norm(project_admm(e, x, cfg).point - project_kkt(e, x, 1e-10))
            )
            worst = max(worst, gap)
    elapsed = time.perf_counter() - t0
    report(
        8,
        worst <= 1e-6 and elapsed < 60.0,
        f"splitting vs direct projection on 100 ellipsoids x 10 exterior "
        f"points: max gap {worst:.3e} (<= 1e-6), elapsed {elapsed:.2f}s (< 60s)",
    )


def test_09_composition_counterexample():
    horizontal = AffineSubspaceProjection(
        AffineSubspace(np.zeros(2), np.array([[1.0, 0.0]]))
    )
    rt2 = np.sqrt(2.0)
    diagonal = AffineSubspaceProjection(
        AffineSubspace(np.zeros(2), np.array([[1.0 / rt2, 1.0 / rt2]]))
    )
    comp = Composition([horizontal, diagonal])
    slack = firm_nonexpansiveness_slack(comp, np.zeros(2), np.array([2.0, -1.0]))
    report(
        9,
        abs(slack - (-1.0)) <= 1e-12,
        f"pinned-order composition slack at the witness pair: {slack!r} "
        f"(= -1 within 1e-12)",
    )


def test_10_combination_structure():
    rng = np.random.default_rng(1010)
    min_violation = np.inf
    for _ in range(20):
        q = rng.standard_normal(2)
        ops = []
        for _ in range(2):
            normal = rng.standard_normal(2)
            normal /= np.linalg.norm(normal)
            ops.append(HalfspaceProjection(normal, float(normal @ q) + rng.uniform(0.2, 1.0)))
        w = rng.uniform(0.2, 0.8)
        combo = ConvexCombination(ops, [w, 1.0 - w])
        samples = rng.standard_normal((50, 2)) * 6
        min_violation = min(min_violation, idempotence_violation_search(combo, samples))

    max_deviation = 0.0
    for _ in range(20):
        dim = int(rng.integers(2, 6))
        k = int(rng.integers(1, dim))
        sub = AffineSubspace.from_span(
            rng.standard_normal(dim), rng.standard_normal((k, dim))
        )
        proj = AffineSubspaceProjection(sub)
        raw = rng.standard_normal(dim)
        c = raw - sub.basis.T @ (sub.basis @ raw)
        norm = np.linalg.norm(c)
        if norm < 1e-9:
            continue
        c *= rng.uniform(1.0, 3.0) / norm
        samples = rng.standard_normal((30, dim)) * 5
        dev = translated_projection_deviation(proj, c, float(rng.uniform(0.1, 0.9)), samples)
        max_deviation = max(max_deviation, dev)
    report(
        10,
        min_violation > 1e-6 and max_deviation <= 1e-10,
        f"two-halfspace mixtures are never projections (min idempotence "
        f"violation {min_violation:.3e} > 1e-6); orthogonal-translation "
        f"mixtures are (max deviation {max_deviation:.3e} <= 1e-10)",
    )


def test_11_distance_gradient():
    rng = np.random.default_rng(1111)
    worst = 0.0
    for case in range(100):
        dim = int(rng.integers(2, 7))
        kind = case % 4
        if kind == 0:
            normal = rng.standard_normal(dim)
            op = HalfspaceProjection(normal, float(rng.normal()))
        elif kind == 1:
            op = BallProjection(rng.standard_normal(dim), float(rng.uniform(0.5, 2.0)))
        elif kind == 2:
            k = int(rng.integers(1, dim))
            op = AffineSubspaceProjection(
                AffineSubspace.from_span(rng.standard_normal(dim), rng.standard_normal((k, dim)))
            )
        else:
            op = EllipsoidProjection(gen_ellipsoid(dim, rng))
        x = rng.standard_normal(dim) * 4
        worst = max(worst, gradient_check(op, x, h=1e-5))
    report(
        11,
        worst <= 1e-5,
        f"squared-distance gradient vs central differences on 100 pairs: "
        f"max relative deviation {worst:.3e} (<= 1e-5)",
    )


def test_12_desk_scale_benchmark(grid_results):
    _, results, elapsed = grid_results
    crm = {r.replicate: r for r in results if r.solver == "crm"}
    ppm = {r.replicate: r for r in results if r.solver == "ppm"}
    all_converged = all(r.stop_reason == "converged" for r in crm.values())
    mean_crm = np.mean([r.iterations for r in crm.values()])
    mean_ppm = np.mean([r.iterations for r in ppm.values()])
    each_faster = all(
        crm[i].iterations < ppm[i].iterations for i in range(10)
    )
    report(
        12,
        all_converged and mean_crm <= mean_ppm / 5.0 and each_faster and elapsed <= 300.0,
        f"grid n=10 p=10 x10: circumcentered converged on all replicates "
        f"({all_converged}), mean iterations {mean_crm:.1f} vs {mean_ppm:.1f} "
        f"(ratio {mean_crm / mean_ppm:.4f} <= 0.2), faster on every "
        f"replicate ({each_faster}), elapsed {elapsed:.1f}s (<= 300s)",
    )


def test_13_grid_determinism(grid_results):
    grid, results, _ = grid_results
    again = run_experiment(grid)
    key = lambda rows: [
        (r.solver, r.n, r.p, r.replicate, r.seed, r.iterations) for r in rows
    ]
    identical = key(again) == key(results)
    report(
        13,
        identical,
        f"re-running the grid with master seed {grid.master_seed} reproduces "
        f"all {len(results)} iteration counts exactly ({identical})",
    )
