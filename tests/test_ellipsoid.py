"""Ellipsoid sets and the two projection routes.

The direct root-find projector is validated against an in-test reference
that brackets the multiplier with plain dense solves (no eigenbasis), so
the two computations share no code path.  The splitting projector's set
step is that same root-find, so comparing the two checks the splitting
around it, not the root-find; dense bisection is the independent oracle
for both.
"""
import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crmfp.ellipsoid as ellipsoid_module
from crmfp import (
    AdmmConfig,
    DimensionMismatch,
    Ellipsoid,
    EllipsoidProjection,
    InstanceSpec,
    RootNotBracketed,
    gen_ellipsoid,
    gen_instance,
    initial_point,
    project_admm,
    project_kkt,
)
from crmfp.ellipsoid import KKT_TOL, EllipsoidStack, admm_project_stacked, kkt_project_stacked
from crmfp.operators import EvaluationPlan


def unit_ball(dim=2):
    return Ellipsoid(np.eye(dim), np.zeros(dim), 1.0)


def reference_projection(e, x, tol=1e-13):
    """Bisection on the multiplier using dense solves only."""
    if e.g(x) <= 0:
        return np.asarray(x, dtype=float)
    eye = np.eye(e.dim)

    def p_of(lam):
        return np.linalg.solve(eye + lam * e.A, x - lam * e.b)

    lo, hi = 0.0, 1.0
    while e.g(p_of(hi)) > 0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if e.g(p_of(mid)) > 0:
            lo = mid
        else:
            hi = mid
        # Relative in the multiplier: a small multiplier on a steep A moves
        # p by about (hi - lo) * ||A p + b||, so an absolute rule is too coarse.
        if hi - lo < tol * hi:
            break
    return p_of(0.5 * (lo + hi))


class TestEllipsoidType:
    def test_membership_values_unit_ball(self):
        e = unit_ball()
        assert e.g(np.array([1.0, 0.0])) == pytest.approx(0.0, abs=1e-15)
        assert e.g(np.array([2.0, 0.0])) == pytest.approx(3.0)

    def test_origin_always_interior(self):
        rng = np.random.default_rng(5)
        for n in (1, 3, 17):
            e = gen_ellipsoid(n, rng)
            assert e.g(np.zeros(n)) == pytest.approx(-e.alpha)
            assert e.alpha > 0

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionMismatch):
            Ellipsoid(np.ones((2, 3)), np.zeros(2), 1.0)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            Ellipsoid(np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros(2), 1.0)

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            Ellipsoid(np.eye(2), np.zeros(2), 0.0)

    def test_rejects_bad_b_shape(self):
        with pytest.raises(DimensionMismatch):
            Ellipsoid(np.eye(2), np.zeros(3), 1.0)

    def test_rejects_nonfinite(self):
        a = np.eye(2)
        a[0, 0] = np.nan
        with pytest.raises(ValueError):
            Ellipsoid(a, np.zeros(2), 1.0)

    def test_indefinite_matrix_fails_at_projection(self):
        e = Ellipsoid(np.diag([1.0, -1.0]), np.zeros(2), 1.0)
        with pytest.raises(ValueError, match="positive definite"):
            project_kkt(e, np.array([3.0, 3.0]))

    def test_g_dimension_check(self):
        with pytest.raises(DimensionMismatch):
            unit_ball().g(np.zeros(3))

    def test_dict_round_trip(self):
        e = gen_ellipsoid(4, np.random.default_rng(9))
        back = Ellipsoid.from_dict(e.to_dict(), 4)
        np.testing.assert_array_equal(back.A, e.A)
        np.testing.assert_array_equal(back.b, e.b)
        assert back.alpha == e.alpha


class TestKktProjection:
    def test_interior_point_unchanged(self):
        x = np.array([0.3, -0.2])
        np.testing.assert_array_equal(project_kkt(unit_ball(), x), x)

    def test_unit_ball_radial(self):
        p = project_kkt(unit_ball(), np.array([2.0, 0.0]))
        np.testing.assert_allclose(p, [1.0, 0.0], atol=1e-12)

    def test_matches_dense_bisection_reference(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            e = gen_ellipsoid(6, rng)
            x = rng.standard_normal(6) * 4
            if e.g(x) <= 0:
                x = x * 50
            got = project_kkt(e, x, tol=1e-12)
            ref = reference_projection(e, x)
            np.testing.assert_allclose(got, ref, rtol=1e-8, atol=1e-9)

    def test_boundary_residual_r10(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            e = gen_ellipsoid(10, rng)
            x = rng.standard_normal(10) * 5
            if e.g(x) <= 0:
                continue
            p = project_kkt(e, x, tol=1e-8)
            assert abs(e.g(p)) <= 1e-8

    def test_obtuse_angle_characterization(self):
        rng = np.random.default_rng(13)
        e = gen_ellipsoid(5, rng)
        x = rng.standard_normal(5) * 6
        assert e.g(x) > 0
        p = project_kkt(e, x, tol=1e-12)
        w, q = np.linalg.eigh(e.A)
        center = -np.linalg.solve(e.A, e.b)
        radius = np.sqrt((e.alpha + e.b @ np.linalg.solve(e.A, e.b)) / w)
        for _ in range(50):
            u = rng.standard_normal(5)
            u /= np.linalg.norm(u)
            member = center + q @ (radius * u * rng.uniform(0, 1))
            assert e.g(member) <= 1e-9
            assert float((x - p) @ (member - p)) <= 1e-8

    def test_monotone_multiplier_path(self):
        # The root-find's premise: g along the multiplier path is strictly
        # decreasing, so the exterior root is unique.
        rng = np.random.default_rng(17)
        e = gen_ellipsoid(4, rng)
        x = rng.standard_normal(4) * 8
        assert e.g(x) > 0
        eye = np.eye(4)
        lams = np.linspace(0.0, 20.0, 60)
        vals = [e.g(np.linalg.solve(eye + lam * e.A, x - lam * e.b)) for lam in lams]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatch):
            project_kkt(unit_ball(), np.zeros(3))

    def test_infinite_exterior_row_fails_fast(self, monkeypatch):
        # In one dimension the eigenbasis rotation maps inf to inf (in more
        # it mixes in inf * 0 = nan), so the row reaches the root-find as
        # exterior with g = inf.
        e = Ellipsoid(np.array([[2.0]]), np.array([0.5]), 1.0)
        stack = EllipsoidStack([e, e])
        evaluations = []
        g_rows = ellipsoid_module._g_rows

        def counting_g_rows(*args):
            evaluations.append(1)
            return g_rows(*args)

        monkeypatch.setattr(ellipsoid_module, "_g_rows", counting_g_rows)
        with pytest.raises(RootNotBracketed, match="non-finite"):
            kkt_project_stacked(stack, np.array([[3.0], [np.inf]]), 1e-10)
        assert len(evaluations) == 1
        with pytest.raises(RootNotBracketed):
            project_admm(e, np.array([np.inf]))

    @pytest.mark.parametrize("x", [[np.inf, 0.0], [np.nan, 1.0], [0.0, -np.inf]])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_rows_raise_in_both_projectors(self, x):
        # A NaN row (and an inf row in n >= 2, which the rotation turns
        # into NaN) is not classified interior: it reaches the root-find.
        with pytest.raises(RootNotBracketed, match="non-finite"):
            project_kkt(unit_ball(), np.array(x))
        with pytest.raises(RootNotBracketed, match="non-finite"):
            project_admm(unit_ball(), np.array(x))

    def test_stack_eigenbases_are_views(self):
        rng = np.random.default_rng(4)
        members = [gen_ellipsoid(5, rng) for _ in range(3)]
        stack = EllipsoidStack(members)
        for j, e in enumerate(members):
            w, q = e.eig()
            assert np.shares_memory(w, stack.eigs) and np.shares_memory(q, stack.rot)
            np.testing.assert_array_equal(q, stack.rot[j])
            np.testing.assert_array_equal(w, np.linalg.eigh(e.A)[0])

    def test_evaluated_projection_freed_without_cycle_collector(self):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            e = gen_ellipsoid(4, np.random.default_rng(3))
            op = EllipsoidProjection(e, method="kkt")
            op(np.full(4, 10.0))
            assert e._single is not None
            alive = weakref.ref(e)
            del e, op
            assert alive() is None
        finally:
            if was_enabled:
                gc.enable()


class TestAdmmProjection:
    def test_interior_one_iteration(self):
        res = project_admm(unit_ball(), np.array([0.1, 0.1]))
        assert res.iterations == 1
        assert res.converged
        np.testing.assert_array_equal(res.point, [0.1, 0.1])

    def test_unit_ball_target(self):
        res = project_admm(unit_ball(), np.array([2.0, 0.0]))
        assert res.converged
        assert np.linalg.norm(res.point - [1.0, 0.0]) <= 1e-6

    def test_cross_validates_against_kkt(self):
        rng = np.random.default_rng(8)
        worst = 0.0
        for _ in range(25):
            n = int(rng.integers(2, 21))
            e = gen_ellipsoid(n, rng)
            for _ in range(4):
                x = rng.standard_normal(n) * 5
                pa = project_admm(e, x).point
                pk = project_kkt(e, x, tol=1e-10)
                worst = max(worst, float(np.linalg.norm(pa - pk)))
        assert worst <= 1e-6

    def test_iteration_budget_flag(self):
        # An exterior point moves on the first set step, so a one-iteration
        # budget cannot see the displacement stop rule fire.
        e = Ellipsoid(np.diag([1.0, 9.0]), np.array([0.2, -0.1]), 1.0)
        cfg = AdmmConfig(tolerance=1e-14, max_iterations=1, penalty=0.5)
        res = project_admm(e, np.array([5.0, 1.0]), cfg)
        assert not res.converged
        assert res.iterations == 1

    def test_exact_set_step_converges_in_two(self):
        # The set step projects z + t (z - q1) exactly, whose projection is
        # q1 again for every penalty: the second iteration confirms the first.
        e = Ellipsoid(np.diag([1.0, 9.0]), np.array([0.2, -0.1]), 1.0)
        x = np.array([5.0, 1.0])
        res = project_admm(e, x, AdmmConfig(tolerance=1e-14, penalty=0.5))
        assert res.converged
        assert res.iterations == 2
        assert np.linalg.norm(res.point - project_kkt(e, x, tol=1e-13)) <= 1e-12

    def test_deterministic(self):
        e = gen_ellipsoid(7, np.random.default_rng(40))
        x = np.full(7, 3.0)
        a = project_admm(e, x).point
        b = project_admm(e, x).point
        np.testing.assert_array_equal(a, b)

    def test_firmly_nonexpansive_sampling(self):
        rng = np.random.default_rng(33)
        e = gen_ellipsoid(6, rng)
        for _ in range(50):
            x = rng.standard_normal(6) * 4
            y = rng.standard_normal(6) * 4
            px = project_admm(e, x).point
            py = project_admm(e, y).point
            d = px - py
            slack = float(d @ (x - y) - d @ d)
            assert slack >= -1e-8

    def test_idempotence_budget(self):
        rng = np.random.default_rng(44)
        e = gen_ellipsoid(8, rng)
        for _ in range(20):
            x = rng.standard_normal(8) * 5
            p1 = project_admm(e, x).point
            p2 = project_admm(e, p1).point
            assert np.linalg.norm(p2 - p1) <= 1e-7

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AdmmConfig(tolerance=0.0)
        with pytest.raises(ValueError):
            AdmmConfig(max_iterations=0)
        with pytest.raises(ValueError):
            AdmmConfig(penalty=-1.0)

    def test_penalty_does_not_change_limit(self):
        e = gen_ellipsoid(5, np.random.default_rng(50))
        x = np.full(5, 4.0)
        base = project_kkt(e, x, tol=1e-12)
        for penalty in (0.3, 1.0, 4.0):
            res = project_admm(e, x, AdmmConfig(tolerance=1e-10, penalty=penalty))
            assert np.linalg.norm(res.point - base) <= 1e-7


class TestGeneratedMembers:
    @pytest.mark.parametrize("n,p,seed", [(5, 4, 3), (20, 6, 9), (50, 3, 1)])
    def test_one_kkt_plan_agreeing_with_splitting_and_oracle(self, n, p, seed):
        inst = gen_instance(InstanceSpec(n=n, p=p, seed=seed))
        members = [m for op in inst.operators for m in op.operators]
        assert all(m.method == "kkt" for m in members)
        assert len({op.plan.key for op in inst.operators}) == 1
        plan = EvaluationPlan(inst.operators)
        assert plan.called == [] and len(plan.stack) == len(members)

        rng = np.random.default_rng(seed)
        starts = [initial_point(inst)] + [rng.standard_normal(n) * 4 for _ in range(5)]
        for m in members:
            e = m.ellipsoid
            for x in starts:
                while e.g(x) <= 0.0:
                    x = 2.0 * x
                got = m(x)
                scale = max(1.0, float(np.linalg.norm(x)))
                assert np.linalg.norm(got - project_admm(e, x).point) <= 1e-12 * scale
                assert np.linalg.norm(got - reference_projection(e, x)) <= 1e-11 * scale

    @pytest.mark.parametrize("seed", range(5))
    def test_project_kkt_is_the_member_projection(self, seed):
        # One default tolerance: the function and the operator agree bit
        # for bit, interior and exterior points alike.
        inst = gen_instance(InstanceSpec(n=20, p=6, seed=seed))
        rng = np.random.default_rng(seed)
        xs = rng.standard_normal((20, 20)) * rng.uniform(0.1, 8.0, (20, 1))
        exterior = 0
        for m in (m for op in inst.operators for m in op.operators):
            e = m.ellipsoid
            for x in xs:
                got = project_kkt(e, x)
                np.testing.assert_array_equal(got, EllipsoidProjection(e)(x))
                np.testing.assert_array_equal(got, m(x))
                exterior += e.g(x) > 0.0
        assert exterior > 0


class TestBatchedEvaluation:
    def test_batch_equals_solo_bitwise(self):
        rng = np.random.default_rng(60)
        es = [gen_ellipsoid(5, rng) for _ in range(6)]
        xs = rng.standard_normal((6, 5)) * 4
        xs[2] *= 0.0  # interior row mixed in
        stack = EllipsoidStack(es)
        cfg = AdmmConfig()
        batch_pts, batch_iters, batch_conv = admm_project_stacked(stack, xs, cfg)
        for j, e in enumerate(es):
            solo = project_admm(e, xs[j], cfg)
            np.testing.assert_array_equal(batch_pts[j], solo.point)
            assert batch_iters[j] == solo.iterations
            assert batch_conv[j] == solo.converged

        batch_kkt = kkt_project_stacked(stack, xs, 1e-10)
        for j, e in enumerate(es):
            np.testing.assert_array_equal(batch_kkt[j], project_kkt(e, xs[j], 1e-10))


def conditioned_case(seed, n, log_cond, b_scale, log_dist):
    """An ellipsoid with cond(A) = 10**log_cond, and an exterior point at
    distance 10**log_dist from its known projection y.

    y is a boundary point; x = y + d * (outward unit normal at y).
    """
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    u = rng.random(n)
    u[0], u[-1] = 0.0, 1.0
    w = 10.0 ** (log_cond * u)
    A = (q * w) @ q.T
    A = 0.5 * (A + A.T)
    b = rng.standard_normal(n) * b_scale
    e = Ellipsoid(A, b, float(rng.uniform(0.5, 2.0)))
    a_inv_b = np.linalg.solve(A, b)
    beta = e.alpha + float(b @ a_inv_b)
    v = rng.standard_normal(n)
    y = -a_inv_b + v * np.sqrt(beta / float(v @ A @ v))
    normal = A @ y + b
    x = y + 10.0**log_dist * normal / np.linalg.norm(normal)
    return e, x, y, beta, float(w.max() / w.min())


cases = st.tuples(
    st.integers(0, 2**32 - 1),
    st.integers(1, 12),
    st.floats(0.0, 8.0),
    st.sampled_from([0.0, 1.0, 1e3]),
    st.floats(-8.0, 6.0),
)


class TestRootFindProperties:
    @settings(max_examples=150, deadline=None)
    @given(cases)
    def test_matches_known_projection_and_oracle(self, case):
        e, x, y, beta, cond = conditioned_case(*case)
        if e.g(x) <= 0.0:  # a 1e-8 step can round back onto the boundary
            return
        p = project_kkt(e, x, tol=1e-12 * (1.0 + beta))
        scale = max(1.0, float(np.linalg.norm(x)))
        assert np.linalg.norm(p - y) <= 1e-11 * scale
        # The dense oracle's own error grows with the conditioning of its solves.
        ref = reference_projection(e, x)
        assert np.linalg.norm(p - ref) <= 1e-10 * np.sqrt(cond) * scale

    @settings(max_examples=40, deadline=None)
    @given(st.lists(cases, min_size=2, max_size=6), st.integers(1, 12))
    def test_batched_rows_equal_one_row_calls(self, row_cases, n):
        made = [conditioned_case(seed, n, lc, bs, ld) for seed, _, lc, bs, ld in row_cases]
        es = [m[0] for m in made]
        xs = np.stack([m[1] for m in made])
        xs[0] *= 0.0  # an interior row mixed in
        tol = 1e-12 * (1.0 + max(m[3] for m in made))
        batch = kkt_project_stacked(EllipsoidStack(es), xs, tol)
        for e, x, row in zip(es, xs, batch):
            np.testing.assert_array_equal(row, project_kkt(e, x, tol))


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def screened_call(stack, rows, tol):
    """Project rows through stack and through a copy of it with no anchors.

    The two must agree bit for bit (or both raise), and no row the stack
    certifies interior may be exterior by the exact test.
    """
    rows = np.ascontiguousarray(rows, dtype=float)
    cert = stack.certified(rows)
    if cert is not None:
        exact = stack.g_eigen(stack.to_eigen(rows)) <= 0.0
        assert not (cert & ~exact).any()
    try:
        want = kkt_project_stacked(EllipsoidStack.concatenate([stack]), rows, tol)
    except RootNotBracketed:
        with pytest.raises(RootNotBracketed):
            kkt_project_stacked(stack, rows, tol)
        return cert
    assert_same_bits(kkt_project_stacked(stack, rows, tol), want)
    return cert


def beta_of(e):
    """alpha + b'A^-1 b: g(x) + beta = (x - c)'A(x - c) about the centre c."""
    return e.alpha + float(e.b @ np.linalg.solve(e.A, e.b))


def centre_and_boundary(e, v):
    """The centre -A^-1 b of e and the boundary point along v from it."""
    centre = -np.linalg.solve(e.A, e.b)
    return centre, centre + v * np.sqrt(beta_of(e) / float(v @ e.A @ v))


moves = st.lists(
    st.tuples(st.sampled_from(["step", "step", "boundary", "centre"]), st.floats(-12.0, 1.0)),
    min_size=1,
    max_size=25,
)


class TestInteriorScreen:
    """The anchor cache of EllipsoidStack only decides which rows are rotated."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(["generated", "conditioned"]),
        st.integers(1, 12),
        st.integers(1, 8),
        st.floats(0.0, 8.0),
        st.booleans(),
        moves,
    )
    def test_random_walks_match_a_stack_without_anchors(
        self, seed, kind, n, members, log_cond, shared, walk
    ):
        rng = np.random.default_rng(seed)
        if kind == "generated":
            es = [gen_ellipsoid(n, rng) for _ in range(members)]
        else:
            es = [
                conditioned_case(int(rng.integers(2**32)), n, log_cond,
                                 float(rng.choice([0.0, 1.0, 1e3])), 0.0)[0]
                for _ in range(members)
            ]
        stack = EllipsoidStack(es)
        tol = 1e-12 * (1.0 + max(beta_of(e) for e in es))
        centres = np.stack([centre_and_boundary(e, np.ones(n))[0] for e in es])
        scale = max(
            float(np.linalg.norm(c)) + np.sqrt(beta_of(e) / e.eig()[0].min())
            for e, c in zip(es, centres)
        )

        def as_rows(x):
            return np.broadcast_to(x, (members, n)) if shared else x

        # The first anchors lie deep inside: at the centres (the origin,
        # interior to every set, for a shared point).
        x = np.zeros(n) if shared else centres.copy()
        screened_call(stack, as_rows(x), tol)
        assert stack.screen
        for move, log_h in walk:
            if move == "step":
                d = rng.standard_normal(x.shape)
                d /= np.linalg.norm(d, axis=-1, keepdims=True)
                x = x + 10.0**log_h * scale * d
            elif move == "centre":
                x = np.zeros(n) if shared else centres.copy()
            else:
                # A few ulps inside or outside the boundary of one set (shared
                # point) or of each row's own set.
                points = []
                for j in ([int(rng.integers(members))] if shared else range(members)):
                    _, y = centre_and_boundary(es[j], rng.standard_normal(n))
                    outward = es[j].A @ y + es[j].b
                    sign = rng.choice([-1.0, 1.0])
                    for _ in range(int(rng.integers(0, 5))):
                        y = np.nextafter(y, y + sign * outward)
                    points.append(y)
                x = points[0] if shared else np.stack(points)
            screened_call(stack, as_rows(x), tol)

    def test_rows_inside_the_anchor_balls_skip_the_rotation(self, monkeypatch):
        rng = np.random.default_rng(21)
        es = [gen_ellipsoid(6, rng) for _ in range(5)]
        stack = EllipsoidStack(es)
        rotations = []
        to_eigen = stack.to_eigen
        monkeypatch.setattr(stack, "to_eigen", lambda rows: rotations.append(1) or to_eigen(rows))
        x = 0.1 * rng.standard_normal((5, 6))
        screened_call(stack, x, KKT_TOL)
        assert len(rotations) == 1 and (stack.balls[1] > 0.0).all()
        for _ in range(10):
            x = x + 1e-3 * rng.standard_normal(x.shape)
            assert stack.certified(x).all()
            assert_same_bits(kkt_project_stacked(stack, x, KKT_TOL), x)
        assert len(rotations) == 1
        # One row far outside: only that row is rotated, and projected.
        x[2] = 100.0
        assert stack.certified(x).sum() == 4
        assert_same_bits(
            kkt_project_stacked(stack, x, KKT_TOL),
            kkt_project_stacked(EllipsoidStack(es), x, KKT_TOL),
        )
        assert len(rotations) == 1
        # Most rows in doubt: one batched rotation, which re-anchors the
        # interior ones.
        z = np.stack([
            c + 0.9 * (y - c)
            for c, y in (centre_and_boundary(e, rng.standard_normal(6)) for e in es)
        ])
        assert stack.certified(z).sum() <= 2
        assert_same_bits(kkt_project_stacked(stack, z, KKT_TOL), z)
        assert len(rotations) == 2
        assert_same_bits(stack.balls[0], z)

    def test_edges_of_tight_balls_are_interior(self):
        # For a round set the certified ball touches the sphere of radius
        # sqrt(beta - margin) about the centre, so without the margin points
        # at its edge could be exterior by the rounded exact test.
        rng = np.random.default_rng(24)
        certified = 0
        for _ in range(400):
            n = int(rng.integers(1, 10))
            c = 10.0 ** rng.uniform(-3, 3)
            b = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
            e = Ellipsoid(c * np.eye(n), b, 10.0 ** rng.uniform(-3, 3))
            u = rng.standard_normal(n)
            u /= np.linalg.norm(u)
            y = -b / c + u * np.sqrt(beta_of(e) / c) * rng.uniform(0.0, 0.99)
            for k in range(6):
                stack = EllipsoidStack([e])
                screened_call(stack, y[None], KKT_TOL)
                if stack.balls[1][0] <= 0.0:
                    break
                x = y + np.sqrt(stack.balls[1][0]) * (1.0 - k * 1e-16) * u
                certified += bool(screened_call(stack, x[None], KKT_TOL)[0])
        assert certified > 1000

    def test_all_exterior_call_stops_the_screen(self):
        rng = np.random.default_rng(22)
        stack = EllipsoidStack([gen_ellipsoid(4, rng) for _ in range(3)])
        screened_call(stack, np.zeros((3, 4)), KKT_TOL)
        assert stack.screen
        screened_call(stack, np.full((3, 4), 50.0), KKT_TOL)
        assert not stack.screen and stack.certified(np.zeros((3, 4))) is None
        # The anchors survive; the next full rotation screens again.
        assert (stack.balls[1] > 0.0).all()
        screened_call(stack, np.zeros((3, 4)), KKT_TOL)
        assert stack.certified(np.zeros((3, 4))).all()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_rows_raise_after_anchors(self, bad):
        rng = np.random.default_rng(23)
        es = [gen_ellipsoid(3, rng) for _ in range(4)]
        stack = EllipsoidStack(es)
        kkt_project_stacked(stack, np.zeros((4, 3)), KKT_TOL)
        rows = np.full((4, 3), 1e-6)
        rows[1, 0] = bad
        assert stack.certified(rows).tolist() == [True, False, True, True]
        with pytest.raises(RootNotBracketed, match="non-finite"):
            kkt_project_stacked(stack, rows, KKT_TOL)
        with pytest.raises(RootNotBracketed, match="non-finite"):
            kkt_project_stacked(stack, np.full((4, 3), bad), KKT_TOL)
        e = es[0]
        project_kkt(e, np.zeros(3))
        assert e.stack().screen
        with pytest.raises(RootNotBracketed, match="non-finite"):
            project_kkt(e, np.array([0.0, bad, 0.0]))

    @pytest.mark.parametrize("n", [1, 2, 10, 50, 200])
    def test_row_products_equal_the_stacked_matmul(self, n):
        # The screen rotates rows one np.dot at a time on views; its outputs
        # are bit-identical only because each equals its row of the batch.
        rng = np.random.default_rng(n)
        stack = EllipsoidStack([gen_ellipsoid(n, rng) for _ in range(5)])
        rows = rng.standard_normal((5, n)) * 10.0 ** rng.uniform(-5, 5, (5, 1))
        zt = np.empty((5, n))
        for j in range(5):
            np.dot(stack.rot[j].T, rows[j], out=zt[j])
        assert_same_bits(zt, stack.to_eigen(rows))
        idx = np.array([0, 2, 3])
        back = np.empty((3, n))
        for k, j in enumerate(idx):
            np.dot(stack.rot[j], zt[k], out=back[k])
        assert_same_bits(back, np.matmul(stack.rot[idx], zt[:3, :, None])[..., 0])


class TestTile:
    """EllipsoidStack.tile: k copies of a stack's rows over one set of eigenbases."""

    def test_single_member_tiles_are_stride_zero_views(self):
        rng = np.random.default_rng(31)
        base = gen_ellipsoid(5, rng).stack()
        tiled = base.tile(7)
        assert len(tiled) == 7
        for name in ("eigs", "rot", "b_rot", "alphas"):
            view, own = getattr(tiled, name), getattr(base, name)
            assert view.shape == (7,) + own.shape[1:]
            assert view.strides[0] == 0 and np.shares_memory(view, own)

    def test_member_of_row_r_is_r_mod_j(self):
        rng = np.random.default_rng(32)
        base = EllipsoidStack([gen_ellipsoid(4, rng) for _ in range(3)])
        tiled = base.tile(5)
        assert len(tiled) == 15
        assert tiled.rot is base.rot
        members = np.arange(15) % 3
        assert_same_bits(tiled.eigs, base.eigs[members])
        assert_same_bits(tiled.b_rot, base.b_rot[members])
        assert_same_bits(tiled.alphas, base.alphas[members])
        with pytest.raises(ValueError):
            EllipsoidStack.concatenate([tiled])

    def test_base_screen_untouched(self):
        rng = np.random.default_rng(33)
        base = EllipsoidStack([gen_ellipsoid(4, rng) for _ in range(3)])
        kkt_project_stacked(base, np.zeros((3, 4)), KKT_TOL)
        balls, screen = base.balls, base.screen
        tiled = base.tile(4)
        assert tiled.balls is None and not tiled.screen
        kkt_project_stacked(tiled, np.zeros((12, 4)), KKT_TOL)
        assert tiled.screen
        assert base.balls is balls and base.screen is screen
        for got, want in zip(base.balls, balls):
            assert_same_bits(got, want)

    @pytest.mark.parametrize("members", [1, 3])
    @pytest.mark.parametrize("method", ["kkt", "admm"])
    def test_rows_equal_one_row_calls(self, members, method):
        # Repeated calls on one tile walk the screen's full and partial paths.
        rng = np.random.default_rng(34 + members)
        es = [gen_ellipsoid(6, rng) for _ in range(members)]
        tiled = EllipsoidStack(es).tile(4)
        x = 0.05 * rng.standard_normal((4 * members, 6))
        for scale in (1.0, 1.0, 1.0, 40.0, 1.0):
            x = x + 1e-3 * rng.standard_normal(x.shape)
            x[1] *= scale
            if method == "kkt":
                got = kkt_project_stacked(tiled, x, KKT_TOL)
                want = [project_kkt(es[r % members], row) for r, row in enumerate(x)]
            else:
                got = admm_project_stacked(tiled, x, AdmmConfig())[0]
                want = [project_admm(es[r % members], row).point for r, row in enumerate(x)]
            assert_same_bits(got, np.stack(want))

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 50, 200])
    def test_tiled_rotation_equals_row_products(self, n):
        rng = np.random.default_rng(n + 100)
        base = EllipsoidStack([gen_ellipsoid(n, rng) for _ in range(3)])
        rows = rng.standard_normal((12, n)) * 10.0 ** rng.uniform(-5, 5, (12, 1))
        zt = np.empty((12, n))
        for r in range(12):
            np.dot(base.rot[r % 3].T, rows[r], out=zt[r])
        assert_same_bits(base.tile(4).to_eigen(rows), zt)
        for start in range(0, 12, 3):
            assert_same_bits(base.to_eigen(rows[start:start + 3]), zt[start:start + 3])
        single = EllipsoidStack([gen_ellipsoid(n, rng)])
        assert_same_bits(
            single.tile(12).to_eigen(rows),
            np.concatenate([single.to_eigen(row[None]) for row in rows]),
        )
