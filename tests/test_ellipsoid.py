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
from crmfp.ellipsoid import EllipsoidStack, admm_project_stacked, kkt_project_stacked
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
