"""Ellipsoid sets and the two projection routes.

The direct root-find projector is validated against an in-test reference
that brackets the multiplier with plain dense solves (no eigenbasis), so
the two computations share no code path.  The splitting projector's set
step is that same root-find, so comparing the two checks the splitting
around it, not the root-find; dense bisection is the independent oracle
for both.
"""
import gc
import os
import sys
import weakref
from unittest.mock import patch

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
from crmfp.ellipsoid import (
    _BLAS_ENV,
    KKT_TOL,
    EllipsoidStack,
    _pool_size,
    _g_rows,
    _rotate,
    _rotate_rows,
    admm_project_stacked,
    decompose,
    kkt_project_stacked,
)
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
        # Each draw also in units scaled by s, as (A, s b, s^2 alpha) and
        # s x, and draws with b = 1e3 N(0, 1).  Both make beta large, so
        # g's rounding exceeds the tolerance and the root-find finishes by
        # its stall rule; both projectors must match all the same.
        rng = np.random.default_rng(21)
        draws = []
        for _ in range(10):
            e = gen_ellipsoid(6, rng)
            x = rng.standard_normal(6) * 4
            if e.g(x) <= 0:
                x = x * 50
            draws += [(Ellipsoid(e.A, s * e.b, s * s * e.alpha), s * x) for s in (1.0, 1e2, 1e4)]
        for _ in range(20):
            e = Ellipsoid(gen_ellipsoid(6, rng).A, 1e3 * rng.standard_normal(6), 1.0)
            x = rng.standard_normal(6) * 4
            while e.g(x) <= 0:
                x = x * 50
            draws.append((e, x))
        for e, x in draws:
            ref = reference_projection(e, x)
            for got in (project_kkt(e, x, tol=1e-12), project_admm(e, x).point):
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
        # exterior with g = inf.  The root-find starts from the interior
        # test's g, so it raises before it evaluates g at all.
        e = Ellipsoid(np.array([[2.0]]), np.array([0.5]), 1.0)
        stack = EllipsoidStack([e, e])
        evaluations = []
        g_rows = ellipsoid_module._g_rows
        root_project = ellipsoid_module._root_project

        def counting_g_rows(*args):
            evaluations.append(1)
            return g_rows(*args)

        def counting_root_project(*args):
            # Count the root-find's g-evaluations, not the interior test's.
            monkeypatch.setattr(ellipsoid_module, "_g_rows", counting_g_rows)
            return root_project(*args)

        monkeypatch.setattr(ellipsoid_module, "_root_project", counting_root_project)
        with pytest.raises(RootNotBracketed, match="non-finite"):
            kkt_project_stacked(stack, np.array([[3.0], [np.inf]]), 1e-10)
        assert len(evaluations) == 0
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
            op = EllipsoidProjection(e)
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
        assert all(op.plan.called == [] for op in inst.operators)
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


def threads(count):
    """decompose on a pool of min(members, count) threads, whatever the CPUs."""
    return patch.object(ellipsoid_module, "_pool_size", lambda members, n: min(members, count))


class TestDecompose:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 9), st.sampled_from([1, 2, 10, 50]),
           st.integers(0, 2**32 - 1), st.integers(1, 4))
    def test_rows_have_the_bits_of_serial_eigh(self, members, n, seed, pool):
        rng = np.random.default_rng(seed)
        es = [gen_ellipsoid(n, rng) for _ in range(members)]
        with threads(pool):
            decompose(es)
        w0, q0 = es[0]._eig
        eigs, rot, b_rot = w0.base, q0.base, es[0]._b_rot.base
        assert (eigs.shape, rot.shape, b_rot.shape) == ((members, n), (members, n, n), (members, n))
        assert all(a.flags.c_contiguous for a in (eigs, rot, b_rot))
        for j, e in enumerate(es):
            w, q = np.linalg.eigh(e.A)
            assert_same_bits(e._eig[0], w)
            assert_same_bits(e._eig[1], q)
            assert_same_bits(e._b_rot, np.dot(q.T, e.b))
            assert e._row == j and e._eig[1].ctypes.data == rot[j].ctypes.data
            assert e._eig[0].base is eigs and e._b_rot.ctypes.data == b_rot[j].ctypes.data

    def test_more_threads_than_cores_with_frequent_switches(self):
        # Workers write disjoint rows of shared arrays; a lost or misplaced
        # write would leave some row without its serial bits.
        rng = np.random.default_rng(8)
        es = [gen_ellipsoid(6, rng) for _ in range(64)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with threads(8):
                decompose(es)
        finally:
            sys.setswitchinterval(interval)
        for j, e in enumerate(es):
            w, q = np.linalg.eigh(e.A)
            assert_same_bits(e._eig[1].base[j], q)
            assert_same_bits(e._eig[0].base[j], w)
            assert_same_bits(e._b_rot.base[j], np.dot(q.T, e.b))

    @pytest.mark.parametrize("pool", [1, 3])
    def test_indefinite_member_raises_and_sets_no_cache(self, pool):
        rng = np.random.default_rng(9)
        es = [gen_ellipsoid(3, rng) for _ in range(4)]
        es.insert(2, Ellipsoid(np.diag([1.0, -1.0, 2.0]), np.zeros(3), 1.0))
        with threads(pool):
            with pytest.raises(ValueError, match="A is not positive definite"):
                decompose(es)
            with pytest.raises(ValueError, match="A is not positive definite"):
                EllipsoidStack(es)
        assert all(e._eig is None and e._b_rot is None for e in es)

    def test_a_repeated_member_gets_one_row(self):
        rng = np.random.default_rng(2)
        e, f = gen_ellipsoid(3, rng), gen_ellipsoid(3, rng)
        decompose([e, f, e])
        assert len(e._eig[1].base) == 2
        assert e._eig[1].ctypes.data + e._eig[1].nbytes == f._eig[1].ctypes.data

    def test_pool_leaves_blas_threads_their_cpus(self, monkeypatch):
        for var in _BLAS_ENV:
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
        assert _pool_size(10, 200) == 1      # BLAS takes every CPU
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        assert _pool_size(10, 200) == 2
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert _pool_size(10, 200) == 4 and _pool_size(3, 300) == 3 and _pool_size(1, 500) == 1
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "8")
        assert _pool_size(10, 200) == 1
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "many")   # not a count: OMP's 2 holds
        assert _pool_size(10, 200) == 2
        monkeypatch.delenv("OMP_NUM_THREADS")
        assert _pool_size(10, 200) == 1

    def test_small_decompositions_take_no_pool(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(2)), raising=False)
        assert _pool_size(536, 50) == 1 and _pool_size(537, 50) == 2   # 2^26 / 50^3 = 536.9
        assert _pool_size(67, 100) == 1 and _pool_size(68, 100) == 2
        assert _pool_size(200, 50) == 1 and _pool_size(40, 200) == 2


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
    certifies interior may be exterior by the exact test.  Rows with
    stride 0 (one shared point) reach the stack as they are; the copy gets
    them C-contiguous (for more than one row), so the shared path is
    checked against the per-row one too.  Rows without stride 0 are
    neither screened nor anchored: the stack keeps its Tangents object.
    """
    rows = np.asarray(rows, dtype=float)
    dense = np.ascontiguousarray(rows)
    before = stack.tangents
    cert = stack.certified(rows)
    if rows.strides[0]:
        assert cert is None
    if cert is not None:
        exact = _g_rows(stack.eigs, stack.b_rot, stack.alphas, stack.to_eigen(dense)) <= 0.0
        assert not (cert & ~exact).any()
    try:
        want = kkt_project_stacked(EllipsoidStack.concatenate([stack]), dense, tol)
    except RootNotBracketed:
        with pytest.raises(RootNotBracketed):
            kkt_project_stacked(stack, rows, tol)
        return cert
    assert_same_bits(kkt_project_stacked(stack, rows, tol), want)
    if rows.strides[0]:
        assert stack.tangents is before
    return cert


def anchored(stack):
    """Mask of the stack's rows that have an anchor."""
    return np.isfinite(stack.tangents.const)


def assert_same_tangents(got, want):
    assert_same_bits(got.const, want.const)
    assert_same_bits(got.lin, want.lin)


def shared_rows(x, count):
    """x shared by count rows: a stride-0 view, as the solvers' calls pass it."""
    return np.broadcast_to(x, (count, len(x)))


def tangents_at(es, points):
    """The Tangents of a new stack over es anchored at interior points, one
    per row: what shared calls at each row's point leave, with the
    rotation and the g of the exact test."""
    stack = EllipsoidStack(es)
    zt = stack.to_eigen(points)
    g = _g_rows(stack.eigs, stack.b_rot, stack.alphas, zt)
    assert (g <= 0.0).all()
    stack.anchor(np.arange(len(es)), points, zt, g)
    return stack.tangents


def reanchored(before, after):
    """Mask of the rows whose anchor a call replaced (before: the Tangents
    before the call, or None)."""
    if before is None:
        return np.isfinite(after.const)
    return (before.const != after.const) | (before.lin != after.lin).any(-1)


def certificate(tan, j, x):
    """Row j's certificate value at x, as EllipsoidStack.certified forms it."""
    sq = float(x @ x)
    return float(tan.const[j] + tan.lin[j] @ np.concatenate((x, (np.sqrt(sq), sq))))


def certificate_edge(tan, j, y, v):
    """The s > 0 where row j's certificate at y + s v reaches 0, for a unit
    vector v; None when it is not negative at y.

    The value is convex in s.  Newton's method starts from the root of its
    quadratic part (without the rho |a| |x| term, which is positive), which
    lies beyond the edge, and then falls monotonically to it.
    """
    n = len(y)
    if not certificate(tan, j, y) < 0.0:
        return None
    a, ra, cc = tan.lin[j, :n], tan.lin[j, n], tan.lin[j, n + 1]
    lead = float(tan.const[j] + a @ y + cc * (y @ y))
    slope = float(a @ v + 2.0 * cc * (y @ v))
    s = (np.sqrt(max(slope * slope - 4.0 * cc * lead, 0.0)) - slope) / (2.0 * cc)
    for _ in range(60):
        x = y + s * v
        norm = np.sqrt(x @ x)
        deriv = float(a @ v + (ra / norm if norm > 0.0 else 0.0) * (x @ v) + 2.0 * cc * (x @ v))
        step = certificate(tan, j, x) / deriv
        if not step > 0.0:
            break
        s -= step
    return s


def beta_of(e):
    """alpha + b'A^-1 b: g(x) + beta = (x - c)'A(x - c) about the centre c."""
    return e.alpha + float(e.b @ np.linalg.solve(e.A, e.b))


def centre_and_boundary(e, v):
    """The centre -A^-1 b of e and the boundary point along v from it."""
    centre = -np.linalg.solve(e.A, e.b)
    return centre, centre + v * np.sqrt(beta_of(e) / float(v @ e.A @ v))


def gradients(es, points):
    """grad g = 2 (A y + b) of each ellipsoid at its point, from dense data."""
    return np.stack([2.0 * (e.A @ y + e.b) for e, y in zip(es, points)])


def assert_slopes(stack, es, anchors):
    """The stack's linear coefficients are G - 2 c y at the given anchors,
    G from dense data."""
    tan, n = stack.tangents, stack.dim
    want = gradients(es, anchors) - 2.0 * tan.curv[:, None] * anchors
    np.testing.assert_allclose(tan.lin[:, :n], want, rtol=1e-12, atol=1e-12)


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

        # The first anchors lie deep inside, at the origin, which is
        # interior to every set.  Calls with one point per row (shared
        # False) are then neither screened nor anchored, and must keep the
        # bits and the anchors of an anchored stack.
        screened_call(stack, shared_rows(np.zeros(n), members), tol)
        assert stack.tangents is not None
        x = np.zeros(n) if shared else centres.copy()
        screened_call(stack, as_rows(x), tol)
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
        x = 0.1 * rng.standard_normal(6)
        first = x.copy()
        screened_call(stack, shared_rows(x, 5), KKT_TOL)
        # Every row has an anchor, and certifies a neighbourhood of it.
        assert len(rotations) == 1 and anchored(stack).all()
        for _ in range(10):
            x = x + 1e-3 * rng.standard_normal(6)
            assert stack.certified(shared_rows(x, 5)).all()
            assert_same_bits(kkt_project_stacked(stack, shared_rows(x, 5), KKT_TOL),
                             shared_rows(x, 5))
        assert len(rotations) == 1

        def edges(v):
            return np.array([certificate_edge(stack.tangents, j, x, v) for j in range(5)])

        # Along set 0's stiffest axis its certificate is exact: just past
        # row 0's edge, and short of every other row's, the point is outside
        # set 0 alone.  Only row 0 is rotated, and projected.
        axis = es[0].eig()[1][:, -1]
        v = min((axis, -axis), key=lambda u: edges(u)[0])
        near = np.sort(edges(v))
        out = x + 0.5 * (near[0] + near[1]) * v
        assert stack.certified(shared_rows(out, 5)).tolist() == [False, True, True, True, True]
        assert es[0].g(out) > 0.0
        assert_same_bits(
            kkt_project_stacked(stack, shared_rows(out, 5), KKT_TOL),
            kkt_project_stacked(EllipsoidStack(es), shared_rows(out, 5), KKT_TOL),
        )
        assert len(rotations) == 1
        # Most rows in doubt: one batched rotation, which re-anchors the
        # interior ones in doubt; certified rows keep their anchors.  The
        # point lies between two rows' edges along a random direction,
        # inside every set.
        v = rng.standard_normal(6)
        v /= np.linalg.norm(v)
        near = np.sort(edges(v))
        z = x + 0.5 * (near[2] + near[3]) * v
        assert all(e.g(z) < 0.0 for e in es)
        cert = stack.certified(shared_rows(z, 5))
        assert cert.sum() <= 2
        assert_same_bits(kkt_project_stacked(stack, shared_rows(z, 5), KKT_TOL), shared_rows(z, 5))
        assert len(rotations) == 2
        assert_same_tangents(stack.tangents, tangents_at(es, np.where(cert[:, None], first, z)))

    def test_edges_of_tight_balls_are_interior(self):
        # For a round set the tangent-plane bound is exact: g(x) equals
        # g(y) + G'd + w_max |d|^2.  Points where the certificate's value
        # is within a few ulps of 0 have a bound within a few ulps of minus
        # the margin, so without the margin they could be exterior by the
        # rounded exact test.  Each point goes, on two stacks, through both
        # forms of a one-row shared point (one GEMV): a broadcast view, and
        # the x[None, :] that project_kkt passes.
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
            v = rng.standard_normal(n)
            v /= np.linalg.norm(v)
            for k in range(6):
                for as_rows in (lambda p: shared_rows(p, 1), lambda p: p[None, :]):
                    stack = EllipsoidStack([e])
                    screened_call(stack, as_rows(y), KKT_TOL)
                    edge = certificate_edge(stack.tangents, 0, y, v)
                    if edge is None:
                        break
                    x = y + edge * (1.0 - k * 1e-16) * v
                    certified += bool(screened_call(stack, as_rows(x), KKT_TOL)[0])
        assert certified > 2000

    def test_all_exterior_call_keeps_the_anchors(self):
        rng = np.random.default_rng(22)
        stack = EllipsoidStack([gen_ellipsoid(4, rng) for _ in range(3)])
        screened_call(stack, shared_rows(np.zeros(4), 3), KKT_TOL)
        tangents = stack.tangents
        assert anchored(stack).all()
        screened_call(stack, shared_rows(np.full(4, 50.0), 3), KKT_TOL)
        assert stack.tangents is tangents
        # Later calls still screen against those anchors, and keep their bits.
        assert stack.certified(shared_rows(np.zeros(4), 3)).all()
        x = np.zeros(4)
        for _ in range(5):
            x = x + 0.05 * rng.standard_normal(4)
            screened_call(stack, shared_rows(x, 3), KKT_TOL)
            screened_call(stack, shared_rows(np.full(4, 50.0), 3), KKT_TOL)

    def test_rows_without_stride_0_keep_the_anchors(self):
        # Only a shared point is screened and anchors: a call of other rows
        # rotates every row and leaves the stack's Tangents object as it is,
        # also where its rows are interior and in doubt.
        rng = np.random.default_rng(26)
        es = [gen_ellipsoid(4, rng) for _ in range(3)]
        stack = EllipsoidStack(es)
        rows = 0.05 * rng.standard_normal((3, 4))
        assert_same_bits(kkt_project_stacked(stack, rows, KKT_TOL), rows)
        assert stack.tangents is None
        kkt_project_stacked(stack, shared_rows(np.zeros(4), 3), KKT_TOL)
        tangents = stack.tangents
        for x in (rows, rows + 1e-3, np.full((3, 4), 50.0), np.stack([np.zeros(4)] * 3)):
            assert stack.certified(x) is None
            screened_call(stack, x, KKT_TOL)
            assert stack.tangents is tangents

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_rows_raise_after_anchors(self, bad):
        rng = np.random.default_rng(23)
        es = [gen_ellipsoid(3, rng) for _ in range(4)]
        stack = EllipsoidStack(es)
        kkt_project_stacked(stack, shared_rows(np.zeros(3), 4), KKT_TOL)
        x = np.full(3, 1e-6)
        assert stack.certified(shared_rows(x, 4)).all()
        # A non-finite coordinate of the shared point: no row is certified.
        x[0] = bad
        assert not stack.certified(shared_rows(x, 4)).any()
        with pytest.raises(RootNotBracketed, match="non-finite"):
            kkt_project_stacked(stack, shared_rows(x, 4), KKT_TOL)
        with pytest.raises(RootNotBracketed, match="non-finite"):
            kkt_project_stacked(stack, np.full((4, 3), bad), KKT_TOL)
        e = es[0]
        project_kkt(e, np.zeros(3))
        assert e.stack().tangents is not None
        with pytest.raises(RootNotBracketed, match="non-finite"):
            project_kkt(e, np.array([0.0, bad, 0.0]))

    def test_rows_moved_down_the_gradient_skip_the_rotation(self, monkeypatch):
        # Member 0 is round, so its tangent-plane bound is exact; members 1
        # and 2 are not, and are scaled up ten times, so that they certify
        # every point of member 0 that the test visits.
        rng = np.random.default_rng(25)
        n = 6
        round_set = Ellipsoid(2.0 * np.eye(n), rng.standard_normal(n), 1.5)
        es = [round_set] + [Ellipsoid(e.A / 100.0, e.b / 10.0, e.alpha)
                            for e in (gen_ellipsoid(n, rng), gen_ellipsoid(n, rng))]
        stack = EllipsoidStack(es)
        rotations = []
        to_eigen = stack.to_eigen
        monkeypatch.setattr(stack, "to_eigen", lambda rows: rotations.append(1) or to_eigen(rows))
        centre, edge = centre_and_boundary(round_set, rng.standard_normal(n))
        y = centre + 0.9 * (edge - centre)
        screened_call(stack, shared_rows(y, 3), KKT_TOL)
        assert len(rotations) == 1
        # All three rows were anchored at once: one batched back-rotation of
        # the gradients.
        assert_slopes(stack, es, shared_rows(y, 3))
        # A ball around y in the set, with |G| r + w_max r^2 <= -g(y), has
        # r < -g(y) / |G|.  Go ten times as far down the gradient.
        grad = 2.0 * (round_set.A @ y + round_set.b)
        unit = grad / np.linalg.norm(grad)
        x = y - 10.0 * (-round_set.g(y) / np.linalg.norm(grad)) * unit
        assert stack.certified(shared_rows(x, 3)).all()
        assert_same_bits(kkt_project_stacked(stack, shared_rows(x, 3), KKT_TOL), shared_rows(x, 3))
        # No batch and no row was rotated: a rotated interior row in doubt
        # would have become its row's anchor.
        assert len(rotations) == 1
        assert_same_tangents(stack.tangents, tangents_at(es, shared_rows(y, 3)))
        # A point 1e-12 of the way inside member 0's boundary is in doubt,
        # for the margin, yet interior: the partial path rotates row 0 alone
        # and makes the point the anchor of its row.
        c0, far = centre_and_boundary(round_set, rng.standard_normal(n))
        x = c0 + (1.0 - 1e-12) * (far - c0)
        assert stack.certified(shared_rows(x, 3)).tolist() == [False, True, True]
        assert_same_bits(kkt_project_stacked(stack, shared_rows(x, 3), KKT_TOL), shared_rows(x, 3))
        assert len(rotations) == 1
        now = np.stack([x, y, y])
        assert_same_tangents(stack.tangents, tangents_at(es, now))
        # One row of three was anchored: one np.dot.
        assert_slopes(stack, es, now)
        # At its own anchor a row's bound is g plus the margin, so x stays
        # in doubt for row 0.
        assert stack.certified(shared_rows(x, 3)).tolist() == [False, True, True]

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.one_of(st.integers(1, 12), st.sampled_from([50, 200])),
        st.integers(1, 3),
        st.floats(0.0, 8.0),
        st.floats(-3.0, 8.0),
        st.lists(
            st.tuples(
                st.sampled_from(["+G", "-G", "tangent", "random"]),
                st.sampled_from(["boundary", "edge", "edge", "anchor"]),
                st.integers(-4, 4),
            ),
            min_size=1,
            max_size=4,
        ),
    )
    def test_tangent_bound_is_sound_near_the_boundary(
        self, seed, n, members, log_cond, log_scale, steps
    ):
        # Anchors anywhere inside, some a few ulps inside the boundary; then
        # steps along +-grad g, a tangent or a random direction, to a few
        # ulps either side of the boundary, of the certificate's own edge
        # (where its value crosses 0), or of the anchor itself (where the
        # expanded form's terms cancel).  Sets are scaled by up to 1e8, so
        # |x| reaches 1e8 and beyond.  Each member's first point, and each
        # step's point of one member, goes to every row as a stride-0 view
        # (the GEMV screen), and anchors the rows where it is in doubt and
        # interior.  screened_call checks that no certified row is exterior
        # and that the outputs keep their bits.
        rng = np.random.default_rng(seed)
        scale = 10.0**log_scale
        es = []
        for _ in range(members):
            e = conditioned_case(int(rng.integers(2**32)), n, log_cond,
                                 float(rng.choice([0.0, 1.0, 1e3])), 0.0)[0]
            es.append(Ellipsoid(e.A / scale**2, e.b / scale, e.alpha))
        tol = 1e-12 * (1.0 + max(beta_of(e) for e in es))
        stack = EllipsoidStack(es)
        x = []
        for e in es:
            centre, y = centre_and_boundary(e, rng.standard_normal(n))
            if rng.random() < 0.3:
                for _ in range(int(rng.integers(1, 5))):
                    y = np.nextafter(y, centre)
            else:
                y = centre + rng.uniform(0.0, 1.0) * (y - centre)
            x.append(y)
        anchors = np.full((members, n), np.nan)   # NaN: no anchor

        def call(rows):
            before = stack.tangents
            screened_call(stack, rows, tol)
            if stack.tangents is not None:
                moved = reanchored(before, stack.tangents)
                anchors[moved] = rows[moved]

        for y in x:
            call(shared_rows(y, members))

        def first_root(c, slope, curv):
            # The positive root of c + slope s + curv s^2 for c <= 0.
            root = np.sqrt(slope * slope - 4.0 * curv * c)
            return -2.0 * c / (slope + root) if slope >= 0.0 else (root - slope) / (2.0 * curv)

        for direction, target, ulps in steps:
            tan = stack.tangents
            j = int(rng.integers(members))
            e = es[j]
            y = anchors[j] if np.isfinite(anchors[j]).all() else x[j]
            grad = 2.0 * (e.A @ y + e.b)
            u = rng.standard_normal(n)
            if direction != "random" and np.linalg.norm(grad) > 0.0:
                unit = grad / np.linalg.norm(grad)
                u = {"+G": unit, "-G": -unit, "tangent": u - (u @ unit) * unit}[direction]
            if not np.linalg.norm(u) > 0.0:   # no tangent direction in n = 1
                u = np.ones(n)
            u /= np.linalg.norm(u)
            edge = None if tan is None else certificate_edge(tan, j, y, u)
            if target == "anchor":
                p = y.copy()
                for _ in range(abs(ulps)):
                    p = np.nextafter(p, p + np.sign(ulps) * u)
            elif target == "edge" and edge is not None:
                p = y + edge * (1.0 + ulps * 2.0**-52) * u
            else:
                s = first_root(min(e.g(y), 0.0), float(grad @ u), float(u @ e.A @ u))
                p = y + s * u
                for _ in range(abs(ulps)):
                    p = np.nextafter(p, p + np.sign(ulps) * (e.A @ p + e.b))
            call(shared_rows(p, members))

    @pytest.mark.parametrize("n", [1, 2, 10, 50, 200])
    def test_row_products_equal_the_stacked_matmul(self, n):
        # _rotate_rows rotates a few rows one np.dot at a time on views and
        # many in one scattered batch; outputs are bit-identical only
        # because both equal their rows of the full batch.
        rng = np.random.default_rng(n)
        base = EllipsoidStack([gen_ellipsoid(n, rng) for _ in range(5)])
        single = gen_ellipsoid(n, rng).stack()
        for stack in (base, single.tile(6), base.tile(3)):
            count = len(stack)
            rows = rng.standard_normal((count, n)) * 10.0 ** rng.uniform(-5, 5, (count, 1))
            for rot in (stack.rot.transpose(0, 2, 1), stack.rot):   # forward, back
                full = _rotate(rot, rows)
                per_row = [np.dot(rot[j % len(rot)], rows[j]) for j in range(count)]
                assert_same_bits(full, np.stack(per_row))
                few = np.array([1, count - 1])
                many = np.flatnonzero(np.arange(count) % 3 != 1)
                for idx in (few, many, np.arange(count)):
                    assert_same_bits(_rotate_rows(rot, count, idx, rows[idx]), full[idx])


class TestTile:
    """EllipsoidStack.tile: k copies of a stack's rows over one set of eigenbases."""

    @pytest.mark.parametrize("count", [1, 3])
    def test_member_of_row_r_is_r_mod_j(self, count):
        # One layout for every member count: rot is shared, the per-row
        # arrays are gathered into owned C-contiguous arrays.
        rng = np.random.default_rng(32)
        base = EllipsoidStack([gen_ellipsoid(4, rng) for _ in range(count)])
        tiled = base.tile(5)
        assert len(tiled) == 5 * count
        assert tiled.rot is base.rot
        members = np.arange(5 * count) % count
        for name in ("eigs", "b_rot", "alphas", "betas"):
            got, own = getattr(tiled, name), getattr(base, name)
            assert_same_bits(got, own[members])
            assert got.flags.c_contiguous and not np.shares_memory(got, own)
        with pytest.raises(ValueError):
            EllipsoidStack.concatenate([tiled])

    def test_base_screen_untouched(self):
        rng = np.random.default_rng(33)
        base = EllipsoidStack([gen_ellipsoid(4, rng) for _ in range(3)])
        kkt_project_stacked(base, shared_rows(np.zeros(4), 3), KKT_TOL)
        tangents = base.tangents
        saved = [tangents.const.copy(), tangents.lin.copy()]
        tiled = base.tile(4)
        assert tiled.tangents is None
        kkt_project_stacked(tiled, shared_rows(np.zeros(4), 12), KKT_TOL)
        assert tiled.tangents is not None
        assert base.tangents is tangents
        for got, want in zip([tangents.const, tangents.lin], saved):
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


def textbook_root_project(w, bt, alph, zt, gtol):
    """The exterior root-find as first written, kept as the reference: each
    Newton step evaluates p, g and the secular derivative afresh from lam,
    starting with g at lam = 0, and allocates its temporaries.  A row
    finishes at |g| <= gtol or, from step 6 on, when its last step moved
    lam back or only by rounding (step <= 2^-50 lam)."""
    num = w * zt + bt
    beta = alph + (bt * bt / w).sum(-1)
    lam = np.zeros(zt.shape[0])
    done = np.zeros(zt.shape[0], dtype=bool)
    for k in range(100):
        denom = 1.0 + lam[:, None] * w
        pt = (zt - lam[:, None] * bt) / denom
        val = (w * pt * pt).sum(-1) + 2.0 * (bt * pt).sum(-1) - alph
        if k == 0 and not np.isfinite(val).all():
            raise RootNotBracketed("non-finite exterior row")
        done |= np.abs(val) <= gtol
        if k >= 6:
            done |= step <= 2.0**-50 * lam
        if done.all():
            return pt
        s = num / denom
        phi = val + beta
        step = phi * val / (beta * (np.sqrt(phi / beta) + 1.0) * (s * s / denom).sum(-1))
        lam = np.where(done, lam, lam + step)
    raise RootNotBracketed("projection multiplier iteration did not converge")


def rotate_then_root_find(stack, rows, tol):
    """Every row rotated by its own np.dot, the textbook root-find on the
    exterior rows, and each of those rotated back by its own np.dot."""
    members = np.arange(len(rows)) % len(stack.rot)
    zt = np.stack([np.dot(stack.rot[m].T, row) for m, row in zip(members, rows)])
    w, bt, alph = stack.eigs, stack.b_rot, stack.alphas
    g = (w * zt * zt).sum(-1) + 2.0 * (bt * zt).sum(-1) - alph
    out = np.array(rows, dtype=float)
    idx = np.flatnonzero(~(g <= 0.0))
    if len(idx):
        pt = textbook_root_project(w[idx], bt[idx], alph[idx], zt[idx], 0.5 * tol)
        for k, j in enumerate(idx):
            out[j] = np.dot(stack.rot[members[j]], pt[k])
    return out


def spread_ellipsoid(rng, n, log_cond, b_scale, axes):
    """Eigenvalues from 1 to 10**log_cond, in a random basis or along the
    axes (where b gets zero entries, so signed zeros reach the root-find)."""
    u = rng.random(n)
    u[0], u[-1] = 0.0, 1.0
    w = 10.0 ** (log_cond * u)
    b = rng.standard_normal(n) * b_scale
    if axes:
        A = np.diag(w)
        b[rng.random(n) < 0.5] = 0.0
    else:
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        A = (q * w) @ q.T
        A = 0.5 * (A + A.T)
    return Ellipsoid(A, b, float(rng.uniform(0.5, 2.0)))


def ray_point(rng, e, kind, axes):
    """A point on a ray from the origin (interior to every set): inside,
    a few ulps past the boundary (it finishes at lam = 0 or one step
    later) or farther out.  Along the axes some coordinates are +-0."""
    v = rng.standard_normal(e.dim)
    if axes:
        v[rng.random(e.dim) < 0.5] = rng.choice([0.0, -0.0])
    if not np.any(v):
        v[0] = 1.0
    a, h = float(v @ e.A @ v), float(e.b @ v)
    y = v * ((np.sqrt(h * h + a * e.alpha) - h) / a)   # g(y) = 0, up to rounding
    if kind == "inside":
        return y * rng.uniform(0.0, 0.99)
    if kind == "near":
        return y * (1.0 + float(rng.integers(0, 9)) * np.finfo(float).eps)
    return y * (1.0 + 10.0 ** rng.uniform(-8.0, 3.0))


def same_outcome(call, reference):
    """call() returns reference()'s arrays bit for bit, or both raise."""
    try:
        want = reference()
    except RootNotBracketed:
        with pytest.raises(RootNotBracketed):
            call()
        return
    got = call()
    if isinstance(want, np.ndarray):
        got, want = (got,), (want,)
    for a, b in zip(got, want, strict=True):
        assert_same_bits(a, b)


class TestRootFindReference:
    """kkt_project_stacked and the splitting projector's set step against
    the textbook root-find, bit for bit (signs of zero included)."""

    @settings(max_examples=120, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([1, 2, 10, 50]),
        st.sampled_from(["plain", "tile-one", "tile-many"]),
        st.integers(1, 20),
        st.floats(0.0, 6.0),
        st.sampled_from([0.0, 1.0, 1e3]),
        st.booleans(),
        st.booleans(),
    )
    def test_equals_rotating_every_row_then_the_textbook_loop(
        self, seed, n, layout, count, log_cond, b_scale, axes, all_exterior
    ):
        rng = np.random.default_rng(seed)
        members = {"plain": count, "tile-one": 1, "tile-many": min(3, count)}[layout]
        count -= count % members
        es = [spread_ellipsoid(rng, n, log_cond, b_scale, axes) for _ in range(members)]
        base = EllipsoidStack(es)
        stack = base if layout == "plain" else base.tile(count // members)
        kinds = ["near", "far"] if all_exterior else ["inside", "near", "far"]
        rows = np.stack([ray_point(rng, es[r % members], rng.choice(kinds), axes)
                         for r in range(count)])
        tol = 1e-12 * (1.0 + max(beta_of(e) for e in es))
        # The second call screens against the anchors the first one set.
        for _ in range(2):
            same_outcome(lambda: kkt_project_stacked(stack, rows, tol),
                         lambda: rotate_then_root_find(stack, rows, tol))

        def textbook_admm():
            with patch.object(ellipsoid_module, "_root_project",
                              lambda w, bt, alph, beta, zt, g, gtol:
                              textbook_root_project(w, bt, alph, zt, gtol)):
                return admm_project_stacked(stack, rows, cfg)

        cfg = AdmmConfig(max_iterations=200)
        same_outcome(lambda: admm_project_stacked(stack, rows, cfg), textbook_admm)

    def test_betas_are_the_secular_constants(self):
        rng = np.random.default_rng(41)
        es = [spread_ellipsoid(rng, 6, 4.0, 10.0, False) for _ in range(3)]
        stack = EllipsoidStack(es)
        np.testing.assert_allclose(stack.betas, [beta_of(e) for e in es], rtol=1e-9)

    def test_rows_that_finish_at_lam_zero_keep_the_loops_signs_of_zero(self):
        # p(0) = z - 0 b~ is +0 where z is -0 and b~ < 0.  The rotations of
        # this numpy's BLAS never give -0, but the kernel must not rely on it.
        w = np.array([[1.0, 1.0], [1.0, 4.0]])
        bt = np.array([[0.0, -1.0], [0.5, -0.5]])
        alph = np.array([1.0, 2.0])
        zt = np.array([[np.nextafter(-1.0, -2.0), -0.0], [30.0, -0.0]])
        g = (w * zt * zt).sum(-1) + 2.0 * (bt * zt).sum(-1) - alph
        beta = alph + (bt * bt / w).sum(-1)
        gtol = 0.5 * KKT_TOL
        assert 0.0 < g[0] <= gtol < g[1]
        for rows in ([0], [0, 1]):   # done at lam = 0; done at 0 and later
            want = textbook_root_project(w[rows], bt[rows], alph[rows], zt[rows], gtol)
            assert np.signbit(want[:, 1]).tolist() == [False] * len(rows)
            got = ellipsoid_module._root_project(
                w[rows], bt[rows], alph[rows], beta[rows], zt[rows], g[rows], gtol)
            assert_same_bits(got, want)
