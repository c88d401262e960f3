"""Iteration engines: step functions, the run loop, and rate estimation."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crmfp.ellipsoid as ellipsoid_module
import crmfp.operators as operators_module
import crmfp.solvers as solvers_module
from crmfp import (
    AffineSubspace,
    AffineSubspaceProjection,
    BallProjection,
    BlockOperator,
    ConvexCombination,
    DiagnosticFailure,
    DiagonalSubspace,
    EllipsoidProjection,
    EmptyOperatorList,
    HalfspaceProjection,
    Identity,
    InsufficientHistory,
    InstanceSpec,
    NotInSubspace,
    RootNotBracketed,
    SolverConfig,
    crm_step,
    diag_project,
    embed,
    estimate_rate,
    gen_ellipsoid,
    gen_instance,
    initial_point,
    map_step,
    ppm_step,
    run,
    spm_step,
)
from crmfp.ellipsoid import EllipsoidStack
from crmfp.geometry import circumcenter3
from crmfp.solvers import (
    EPS_DEG,
    FEJER_SLACK_TOL,
    MEMBERSHIP_RTOL,
    ORTHOGONALITY_RTOL,
    _circumcenter,
    _crm_parts,
    _lifted_sq,
)


def x_axis_subspace():
    return AffineSubspace(np.zeros(2), np.array([[1.0, 0.0]]))


def line_operator(theta):
    """Projection onto the line through the origin at angle theta."""
    d = np.array([np.cos(theta), np.sin(theta)])
    return AffineSubspaceProjection(AffineSubspace(np.zeros(2), d[None, :]))


def two_line_problem(theta=np.pi / 4):
    return line_operator(theta), x_axis_subspace()


def lifted_instance(n=4, p=3, seed=11):
    inst = gen_instance(InstanceSpec(n=n, p=p, seed=seed))
    return BlockOperator(inst.operators), DiagonalSubspace(n, p), inst


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.tolerance == 1e-6
        assert cfg.max_iterations == 50000
        assert cfg.diagnostics == ()

    @pytest.mark.parametrize("tol", [0.0, -1.0, np.inf, np.nan])
    def test_bad_tolerance(self, tol):
        with pytest.raises(ValueError):
            SolverConfig(tolerance=tol)

    def test_bad_max_iterations(self):
        with pytest.raises(ValueError):
            SolverConfig(max_iterations=0)

    @pytest.mark.parametrize("count", [2.5, 3.0])
    def test_non_integral_max_iterations_rejected(self, count):
        # Not only at run's range(): the configuration itself rejects it.
        with pytest.raises(TypeError):
            SolverConfig(max_iterations=count)

    @pytest.mark.parametrize("count", [True, False])
    def test_bool_max_iterations_rejected(self, count):
        with pytest.raises(TypeError, match="bool"):
            SolverConfig(max_iterations=count)

    def test_numpy_integer_max_iterations_accepted(self):
        cfg = SolverConfig(max_iterations=np.int64(3))
        assert cfg.max_iterations == 3 and type(cfg.max_iterations) is int

    def test_unknown_diagnostic(self):
        with pytest.raises(ValueError):
            SolverConfig(diagnostics=("fejer", "bogus"))


class TestMapStep:
    def test_fixed_point_stays(self):
        op, sub = two_line_problem()
        z = np.zeros(2)
        np.testing.assert_array_equal(map_step(op, sub, z), z)

    def test_identity_reduces_to_projection(self):
        sub = x_axis_subspace()
        z = np.array([2.0, 3.0])
        np.testing.assert_array_equal(map_step(Identity(2), sub, z), [2.0, 0.0])

    def test_45_degree_halving(self):
        op, sub = two_line_problem(np.pi / 4)
        out = map_step(op, sub, np.array([1.0, 0.0]))
        np.testing.assert_allclose(out, [0.5, 0.0], atol=1e-15)


class TestCrmStep:
    def test_fixed_point_stays(self):
        op, sub = two_line_problem()
        x = np.zeros(2)
        np.testing.assert_allclose(crm_step(op, sub, x), x, atol=1e-15)

    def test_one_step_exactness_two_lines(self):
        op, sub = two_line_problem(np.pi / 4)
        out = crm_step(op, sub, np.array([1.0, 0.0]))
        np.testing.assert_allclose(out, [0.0, 0.0], atol=1e-12)

    def test_reflection_inside_subspace_gives_operator_image(self):
        # T maps the x-axis into itself here, so the reflection never
        # leaves the subspace and the step is T(x) itself.
        op = HalfspaceProjection(np.array([1.0, 0.0]), 0.0)
        sub = x_axis_subspace()
        x = np.array([3.0, 0.0])
        np.testing.assert_allclose(crm_step(op, sub, x), op(x), atol=1e-15)

    def test_requires_start_in_subspace(self):
        op, sub = two_line_problem()
        with pytest.raises(NotInSubspace):
            crm_step(op, sub, np.array([1.0, 1.0]))

    def test_result_exactly_in_subspace(self):
        op, sub = two_line_problem(np.pi / 3)
        out = crm_step(op, sub, np.array([2.0, 0.0]))
        assert out[1] == 0.0

    def test_orthogonality_identity(self):
        # The displacement x - T(x) is orthogonal to C(x) - T(x).
        block, diag, _ = lifted_instance()
        x = embed(np.full(4, -3.0), 3)
        c = crm_step(block, diag, x)
        tx = block(x)
        inner = float(np.vdot(x - tx, c - tx))
        scale = 1.0 + np.linalg.norm(x - tx) * np.linalg.norm(c - tx)
        assert abs(inner) <= 1e-8 * scale


class TestParallelAndSequentialSteps:
    def test_ppm_average(self):
        ops = [
            HalfspaceProjection(np.array([1.0, 0.0]), 0.0),
            HalfspaceProjection(np.array([0.0, 1.0]), 0.0),
        ]
        np.testing.assert_allclose(ppm_step(ops, np.array([2.0, 2.0])), [1.0, 1.0])

    def test_ppm_single(self):
        op = HalfspaceProjection(np.array([0.0, 1.0]), 0.0)
        x = np.array([1.0, 5.0])
        np.testing.assert_array_equal(ppm_step([op], x), op(x))

    def test_spm_chains_in_listed_order(self):
        a = AffineSubspaceProjection(x_axis_subspace())
        b = line_operator(np.pi / 4)
        out = spm_step([a, b], np.array([2.0, -1.0]))
        np.testing.assert_allclose(out, [1.0, 1.0], atol=1e-15)

    def test_common_fixed_point_stays(self):
        ops = [
            HalfspaceProjection(np.array([1.0, 0.0]), 1.0),
            HalfspaceProjection(np.array([0.0, 1.0]), 1.0),
        ]
        x = np.zeros(2)
        np.testing.assert_array_equal(ppm_step(ops, x), x)
        np.testing.assert_array_equal(spm_step(ops, x), x)

    @pytest.mark.parametrize("kind", ["ppm", "map", "crm", "spm"])
    def test_run_matches_its_step_bitwise(self, kind):
        steps = 3
        if kind in ("ppm", "spm"):
            inst = gen_instance(InstanceSpec(n=5, p=4, seed=12))
            problem, x0 = inst.operators, np.full(5, 4.0)
            step, args = (ppm_step if kind == "ppm" else spm_step), (problem,)
        else:
            block, diag, inst = lifted_instance(n=5, p=4, seed=12)
            problem, x0 = (block, diag), embed(initial_point(inst), 4)
            step, args = (map_step if kind == "map" else crm_step), problem
        trace = run(kind, problem, x0, SolverConfig(max_iterations=steps))
        assert trace.iterations == steps
        # The lifted steps are on blocks, so their norms follow the R^n rule.
        norm = np.linalg.norm if kind in ("ppm", "spm") else block_norm
        x = x0
        for k in range(steps):
            xn = step(*args, x)
            assert trace.residual_history[k] == norm(xn - x)
            x = xn
        np.testing.assert_array_equal(trace.final_point, x)

    def test_ppm_from_nan_start_raises_at_once(self, monkeypatch):
        inst = gen_instance(InstanceSpec(n=4, p=3, seed=13))
        calls = []
        project = operators_module.kkt_exterior_stacked

        def counting(*args):
            calls.append(1)
            return project(*args)

        # The plans' shared-point calls go through the exterior-row projector.
        monkeypatch.setattr(operators_module, "kkt_exterior_stacked", counting)
        x0 = np.array([np.nan, 0.0, 1.0, 0.0])
        with pytest.raises(RootNotBracketed, match="non-finite"):
            run("ppm", inst.operators, x0, SolverConfig(max_iterations=500))
        assert len(calls) == 1

    def test_empty_lists_rejected(self):
        with pytest.raises(EmptyOperatorList):
            ppm_step([], np.zeros(2))
        with pytest.raises(EmptyOperatorList):
            spm_step([], np.zeros(2))


class TestRunLoop:
    def test_start_at_fixed_point(self):
        op, sub = two_line_problem()
        trace = run("map", (op, sub), np.zeros(2))
        assert trace.stop_reason == "converged"
        assert trace.iterations == 1
        assert trace.residual_history == [0.0]

    def test_map_two_lines_iteration_count(self):
        op, sub = two_line_problem(np.pi / 4)
        trace = run("map", (op, sub), np.array([1.0, 0.0]))
        assert trace.stop_reason == "converged"
        assert 19 <= trace.iterations <= 23
        ratios = [
            b / a for a, b in zip(trace.residual_history, trace.residual_history[1:])
        ]
        np.testing.assert_allclose(ratios, 0.5, atol=1e-9)

    def test_crm_two_lines_immediate(self):
        op, sub = two_line_problem(np.pi / 4)
        trace = run("crm", (op, sub), np.array([1.0, 0.0]))
        assert trace.stop_reason == "converged"
        assert trace.iterations <= 2
        np.testing.assert_allclose(trace.final_point, [0.0, 0.0], atol=1e-10)

    def test_crm_guard_on_disjoint_balls_stops_inconsistent(self):
        # At the midpoint of two disjoint unit balls the two projections
        # disagree while their mean is the point: the guard returns the
        # point, but it is no common fixed point.
        balls = [BallProjection(np.zeros(3), 1.0), BallProjection(np.array([5.0, 0, 0]), 1.0)]
        x0 = embed(np.array([2.5, 0.0, 0.0]), 2)
        trace = run("crm", (BlockOperator(balls), DiagonalSubspace(3, 2)), x0)
        assert trace.stop_reason == "inconsistent"
        assert trace.iterations == 1 and trace.residual_history == [0.0]
        assert trace.fixed_point_residuals[-1] == pytest.approx(1.5 * np.sqrt(2.0))

    def test_max_iterations_stop(self):
        op, sub = two_line_problem(np.pi / 4)
        cfg = SolverConfig(tolerance=1e-12, max_iterations=5)
        trace = run("map", (op, sub), np.array([1.0, 0.0]), cfg)
        assert trace.stop_reason == "max-iterations"
        assert trace.iterations == 5
        assert trace.residual_history[-1] >= cfg.tolerance

    def test_trace_invariants(self):
        op, sub = two_line_problem(np.pi / 6)
        for cfg in (SolverConfig(), SolverConfig(tolerance=1e-9, max_iterations=7)):
            trace = run("map", (op, sub), np.array([2.0, 0.0]), cfg)
            assert len(trace.residual_history) == trace.iterations
            assert len(trace.fixed_point_residuals) == trace.iterations
            converged = trace.stop_reason == "converged"
            assert (trace.residual_history[-1] < cfg.tolerance) == converged

    def test_dist_history_tracks_solution(self):
        op, sub = two_line_problem(np.pi / 4)
        trace = run("map", (op, sub), np.array([1.0, 0.0]), solution=np.zeros(2))
        assert trace.dist_history is not None
        assert len(trace.dist_history) == trace.iterations + 1
        assert trace.dist_history[0] == 1.0

    @staticmethod
    def two_set_problem(kind, sets, x0):
        """Two balls or two halfspaces in R^3 with a common point; map and
        crm run on their product-space lifting from the embedded start."""
        if sets == "balls":
            ops = [BallProjection(np.zeros(3), 1.0), BallProjection(np.ones(3), 1.0)]
        else:
            ops = [HalfspaceProjection(np.eye(3)[0], 1.0), HalfspaceProjection(np.eye(3)[1], 1.0)]
        if kind in ("map", "crm"):
            return (BlockOperator(ops), DiagonalSubspace(3, 2)), embed(x0, 2)
        return ops, np.asarray(x0, dtype=float)

    @pytest.mark.parametrize("sets", ["balls", "halfspaces"])
    @pytest.mark.parametrize("kind", ["ppm", "spm", "map", "crm"])
    def test_nan_start_stops_non_finite(self, kind, sets):
        problem, x0 = self.two_set_problem(kind, sets, [np.nan, 0.0, 0.0])
        trace = run(kind, problem, x0, SolverConfig(max_iterations=500))
        assert trace.stop_reason == "non-finite"
        assert trace.iterations == 1

    @pytest.mark.parametrize("sets", ["balls", "halfspaces"])
    @pytest.mark.parametrize("kind", ["ppm", "spm", "map", "crm"])
    def test_finite_start_never_stops_non_finite(self, kind, sets):
        problem, x0 = self.two_set_problem(kind, sets, [5.0, -3.0, 2.0])
        trace = run(kind, problem, x0, SolverConfig(max_iterations=5000))
        assert trace.stop_reason == "converged"

    def test_ppm_and_spm_run(self):
        rng = np.random.default_rng(3)
        ops = [EllipsoidProjection(gen_ellipsoid(3, rng)) for _ in range(3)]
        x0 = np.full(3, -4.0)
        for kind in ("ppm", "spm"):
            trace = run(kind, ops, x0)
            assert trace.stop_reason == "converged"
            assert trace.iterations >= 1

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            run("gradient", ([], None), np.zeros(2))

    def test_crm_checks_start(self):
        op, sub = two_line_problem()
        with pytest.raises(NotInSubspace):
            run("crm", (op, sub), np.array([1.0, 1.0]))

    def test_diagnostics_validation(self):
        op, sub = two_line_problem()
        with pytest.raises(ValueError, match="crm"):
            run("map", (op, sub), np.zeros(2), SolverConfig(diagnostics=("membership",)))
        with pytest.raises(ValueError, match="solution"):
            run("crm", (op, sub), np.zeros(2), SolverConfig(diagnostics=("fejer",)))

    def test_fejer_rejects_wrong_solution(self):
        op, sub = two_line_problem(np.pi / 4)
        cfg = SolverConfig(diagnostics=("fejer",))
        with pytest.raises(DiagnosticFailure) as exc_info:
            run("crm", (op, sub), np.array([1.0, 0.0]), cfg, solution=np.array([5.0, 5.0]))
        assert exc_info.value.check == "fejer"

    def test_fejer_holds_on_lifted_instance(self):
        block, diag, inst = lifted_instance()
        x0 = embed(np.full(4, -2.0), 3)
        cfg = SolverConfig(diagnostics=("fejer", "orthogonality", "membership"))
        trace = run("crm", (block, diag), x0, cfg, solution=embed(inst.fixed_point, 3))
        assert trace.stop_reason == "converged"

    def test_fejer_holds_for_map_and_ppm(self):
        block, diag, inst = lifted_instance(seed=12)
        x0 = embed(np.full(4, -2.0), 3)
        cfg = SolverConfig(diagnostics=("fejer",))
        lifted_sol = embed(inst.fixed_point, 3)
        assert run("map", (block, diag), x0, cfg, solution=lifted_sol).stop_reason == "converged"
        t = run("ppm", inst.operators, np.full(4, -2.0), cfg, solution=inst.fixed_point)
        assert t.stop_reason == "converged"


class TestSegmentAndImprovement:
    def collect_crm_states(self, steps=6):
        block, diag, inst = lifted_instance(n=5, p=4, seed=21)
        x = embed(np.full(5, -3.0), 4)
        states = []
        for _ in range(steps):
            c = crm_step(block, diag, x)
            states.append((x, c))
            x = c
        return block, diag, inst, states

    def test_alternating_point_on_segment(self):
        # S(x) = P_U(T(x)) lies between x and the circumcenter, and the
        # step never falls short of it.
        block, diag, _, states = self.collect_crm_states()
        for x, c in states:
            s = diag_project(block(x))
            d = (s - x).ravel()
            denom = float(d @ d)
            if denom <= 1e-20:
                continue
            eta = float((c - x).ravel() @ d) / denom
            residual = np.linalg.norm((c - x).ravel() - eta * d)
            assert eta >= 1.0 - 1e-8
            assert residual <= 1e-8

    def test_step_at_least_as_close_as_alternating(self):
        block, diag, inst, states = self.collect_crm_states()
        y = embed(inst.fixed_point, 4)
        for x, c in states:
            s = diag_project(block(x))
            assert np.linalg.norm(c - y) <= np.linalg.norm(s - y) + 1e-10


def circumcenter_reference(operator, subspace, x):
    """The crm step through circumcenter3 on the three points themselves.

    Only the guard of the closed form is shared: where P_U T(x) is x, the
    three points are x, R_T x and its mirror image through x, which are
    collinear and have no circumcenter; the step is x.
    """
    tx = operator(x)
    if 2.0 * np.linalg.norm(subspace.project(tx) - x) <= EPS_DEG * (1.0 + np.linalg.norm(x)):
        return x
    r = 2.0 * tx - x
    return circumcenter3(x, r, 2.0 * subspace.project(r) - r).center


def unit(v):
    return v / np.linalg.norm(v)


def random_problem(draw):
    """A random affine U in R^n (1 <= dim U < n), an orthonormal split of
    R^n into directions along and across U, and a point x of U."""
    n = draw(st.integers(2, 6))
    k = draw(st.integers(1, n - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([0.1, 1.0, 10.0]))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    along, across = q[:k], q[k:]
    sub = AffineSubspace(rng.standard_normal(n) * scale, along)
    x = sub.project(rng.standard_normal(n) * scale)
    return rng, scale, along, across, sub, x


def tilted_halfspace(rng, scale, along, across, x, slope):
    """A halfspace cutting off x whose normal leaves U at the given slope,
    so that ||P_U T(x) - x|| = slope ||T(x) - x|| / sqrt(1 + slope^2)."""
    normal = unit(across.T @ rng.standard_normal(len(across)))
    normal = normal + slope * unit(along.T @ rng.standard_normal(len(along)))
    return HalfspaceProjection(normal, float(normal @ x) - scale * rng.uniform(0.1, 2.0))


@st.composite
def closed_form_cases(draw):
    """(operator, U, x in U): a ball, a halfspace or an ellipsoid-plus-ball
    combination, or one of the near-degenerate configurations of the step.

    Nearly collinear triples stop at slope 1e-2 (extrapolation factor
    a = 1e4): the circumcenter's own condition number grows like a, so
    flatter triangles fix it in float64 to less than the test's bound,
    whichever way it is computed (test_flat_triangles covers them)."""
    rng, scale, along, across, sub, x = random_problem(draw)
    n = x.shape[0]
    case = draw(st.sampled_from(["ball", "halfspace", "ellipsoid+ball",
                                 "image in U", "P_U T(x) = x", "nearly collinear"]))
    if case == "ball":
        op = BallProjection(rng.standard_normal(n) * scale, scale * rng.uniform(0.1, 1.0))
    elif case == "halfspace":
        normal = rng.standard_normal(n)
        op = HalfspaceProjection(normal, float(normal @ x) - scale * rng.uniform(0.1, 2.0))
    elif case == "ellipsoid+ball":
        w = rng.uniform(0.1, 0.9)
        op = ConvexCombination(
            [EllipsoidProjection(gen_ellipsoid(n, rng)),
             BallProjection(rng.standard_normal(n) * scale, scale * rng.uniform(0.1, 1.0))],
            [w, 1.0 - w],
        )
        x = sub.project(4.0 * x)   # mostly outside the ellipsoid
    elif case == "image in U":
        # A ball centered in U maps x along a line of U: T(x) is in U.
        center = sub.project(rng.standard_normal(n) * scale)
        op = BallProjection(center, 0.5 * float(np.linalg.norm(x - center)))
    elif case == "P_U T(x) = x":
        slope = 10.0 ** draw(st.floats(-18.0, -14.0))
        op = tilted_halfspace(rng, scale, along, across, x, slope)
    else:
        slope = 10.0 ** draw(st.floats(-2.0, 0.0))
        op = tilted_halfspace(rng, scale, along, across, x, slope)
    return op, sub, x


class TestClosedFormCircumcenter:
    @settings(max_examples=400, deadline=None)
    @given(closed_form_cases())
    def test_matches_circumcenter3(self, case):
        op, sub, x = case
        a, tx, ptx, fix, step_norm = _crm_parts(op, sub, x)
        z = _circumcenter(x, ptx, a)
        np.testing.assert_array_equal(tx, op(x))
        # The norms have the bits of np.linalg.norm's.
        assert fix == np.linalg.norm(tx - x)
        assert step_norm == np.linalg.norm(ptx - x)
        np.testing.assert_array_equal(ptx, sub.project(tx))
        expected = circumcenter_reference(op, sub, x)
        # Relative to the larger of x and z: a nearly collinear step lands
        # up to a = 1e4 times farther out than T(x).
        size = 1.0 + max(np.linalg.norm(x), np.linalg.norm(z))
        assert np.linalg.norm(z - expected) <= 1e-10 * size

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_flat_triangles(self, data):
        # Slopes from 1e-8 to 1e-2: the step extrapolates by up to 1e16.
        # The result is still equidistant from x and the two reflections:
        # to first order the gaps are a few eps (||x|| + ||T(x)|| + ||anchor||)
        # / slope, i.e. a few eps times its own size, whatever the slope.
        # (Its distance from U grows like eps / slope relative to its size;
        # crm_step and run() re-project it.)
        rng, scale, along, across, sub, x = random_problem(data.draw)
        slope = 10.0 ** data.draw(st.floats(-8.0, -2.0))
        op = tilted_halfspace(rng, scale, along, across, x, slope)
        a, tx, ptx, *_ = _crm_parts(op, sub, x)
        z = _circumcenter(x, ptx, a)
        r = 2.0 * tx - x
        w = 2.0 * sub.project(r) - r
        size = 1.0 + np.linalg.norm(z)
        for far in (r, w):
            assert abs(np.linalg.norm(z - x) - np.linalg.norm(z - far)) <= 1e-12 * size

    def test_guard_returns_the_point(self):
        # T(x) - x normal to U: P_U T(x) = x, and the step stays at x.
        op = HalfspaceProjection(np.array([0.0, 1.0]), -1.0)
        x = np.array([3.0, 0.0])
        x[1] = -0.0
        a, tx, ptx, fix, step_norm = _crm_parts(op, x_axis_subspace(), x)
        assert a == 0.0
        z = _circumcenter(x, ptx, a)
        # x's bits, its -0.0 included, in a new array.
        assert z.tobytes() == x.tobytes() and z is not x
        np.testing.assert_array_equal(ptx, x)
        assert (fix, step_norm) == (1.0, 0.0)

    def test_lifted_iterates_are_bitwise_diagonal(self, monkeypatch):
        block, diag, inst = lifted_instance(n=5, p=4, seed=21)
        plan_call = type(block.plan).__call__
        seen = []

        def spy(plan, points):
            seen.append(np.ndim(points))
            return plan_call(plan, points)

        monkeypatch.setattr(type(block.plan), "__call__", spy)
        monkeypatch.setattr(solvers_module, "circumcenter3", None)   # off the hot path
        cfg = SolverConfig(diagnostics=("fejer", "orthogonality", "membership"))
        trace = run("crm", (block, diag), embed(np.full(5, -3.0), 4), cfg,
                    solution=embed(inst.fixed_point, 4))
        assert trace.stop_reason == "converged"
        # Every step evaluated the block operator at one shared point.
        assert seen == [1] * trace.iterations
        assert (trace.final_point == trace.final_point[0]).all()


class TestEstimateRate:
    def test_map_two_lines_measures_cos_squared(self):
        op, sub = two_line_problem(np.pi / 4)
        trace = run("map", (op, sub), np.array([1.0, 0.0]), solution=np.zeros(2))
        est = estimate_rate(trace.dist_history)
        np.testing.assert_allclose(est.per_step_ratios, 0.5, atol=1e-9)
        assert est.sup_ratio == pytest.approx(0.5, abs=1e-9)
        assert est.geometric_mean_ratio == pytest.approx(0.5, abs=1e-9)

    def test_constant_zero_history(self):
        with pytest.raises(InsufficientHistory):
            estimate_rate([0.0, 0.0, 0.0])

    def test_exact_hit_gives_zero_sup(self):
        est = estimate_rate([1.0, 0.0])
        assert est.sup_ratio == 0.0
        assert est.geometric_mean_ratio == 0.0

    def test_crm_two_lines_exact_hit(self):
        op, sub = two_line_problem(np.pi / 4)
        trace = run("crm", (op, sub), np.array([1.0, 0.0]), solution=np.zeros(2))
        est = estimate_rate(trace.dist_history)
        assert est.sup_ratio <= 1e-10

    def test_too_short(self):
        with pytest.raises(InsufficientHistory):
            estimate_rate([1.0])

    @pytest.mark.parametrize("history,index", [([1.0, 0.5, np.nan, 0.1], 2),
                                               ([1.0, np.inf, 0.5], 1),
                                               ([np.nan, 1.0], 0)])
    def test_non_finite_distance_rejected(self, history, index):
        with pytest.raises(ValueError, match=f"distance {index} is"):
            estimate_rate(history)

    def test_plain_geometric_history(self):
        est = estimate_rate([8.0, 4.0, 2.0, 1.0])
        assert est.per_step_ratios == [0.5, 0.5, 0.5]
        assert est.sup_ratio == 0.5
        assert est.geometric_mean_ratio == pytest.approx(0.5)


def ppm_and_lifted_crm(n, p, seed):
    inst = gen_instance(InstanceSpec(n=n, p=p, seed=seed))
    x0 = initial_point(inst)
    ppm = run("ppm", inst.operators, x0,
              SolverConfig(max_iterations=150, diagnostics=("fejer",)),
              solution=inst.fixed_point)
    crm = run("crm", (BlockOperator(inst.operators), DiagonalSubspace(n, p)), embed(x0, p),
              SolverConfig(max_iterations=400, diagnostics=("fejer", "membership")),
              solution=embed(inst.fixed_point, p))
    return ppm, crm


class TestProjectorAnchorCache:
    @pytest.mark.usefixtures("screen_every_stack")
    @pytest.mark.parametrize("n,p,seed", [(10, 10, 1), (50, 10, 2), (100, 5, 3)])
    def test_runs_equal_runs_without_anchors(self, monkeypatch, n, p, seed):
        # The ellipsoid stacks' anchor cache skips rotations but never
        # changes a bit: runs whose anchors are cleared before every
        # projector call give the same traces.
        rotated = []
        to_eigen = EllipsoidStack.to_eigen

        def counting(stack, rows):
            rotated.append(len(rows))
            return to_eigen(stack, rows)

        monkeypatch.setattr(EllipsoidStack, "to_eigen", counting)
        cached = ppm_and_lifted_crm(n, p, seed)
        cached_rotated = sum(rotated)
        rotated.clear()
        project = operators_module.kkt_exterior_stacked

        def without_anchors(stack, rows, tol):
            stack.tangents = None
            return project(stack, rows, tol)

        monkeypatch.setattr(operators_module, "kkt_exterior_stacked", without_anchors)
        cleared = ppm_and_lifted_crm(n, p, seed)
        assert cached_rotated < sum(rotated)
        assert_same_traces(cached, cleared)

    def test_screen_rule_keeps_the_bits(self, monkeypatch):
        # At 10x10 the plans are below SCREEN_MIN_ENTRIES and never screen;
        # with the rule at 0 they screen, and the runs keep every byte.
        anchors = []
        anchor = EllipsoidStack.anchor
        monkeypatch.setattr(EllipsoidStack, "anchor",
                            lambda stack, *args: anchors.append(1) or anchor(stack, *args))
        default = ppm_and_lifted_crm(10, 10, 1)
        assert not anchors
        monkeypatch.setattr(ellipsoid_module, "SCREEN_MIN_ENTRIES", 0)
        screened = ppm_and_lifted_crm(10, 10, 1)
        assert anchors
        assert_same_traces(default, screened)


def assert_same_traces(first, second):
    for a, b in zip(first, second, strict=True):
        assert a.stop_reason == b.stop_reason and a.iterations == b.iterations
        assert a.final_point.tobytes() == b.final_point.tobytes()
        for history in ("residual_history", "fixed_point_residuals", "dist_history"):
            assert np.array(getattr(a, history)).tobytes() == np.array(getattr(b, history)).tobytes()


def is_bitwise_diagonal(a) -> bool:
    return all(row.tobytes() == a[0].tobytes() for row in a)


def block_sq(a) -> float:
    """The R^n rule for a diagonal (p, n) array: p ||a[0]||^2."""
    assert is_bitwise_diagonal(a)
    return len(a) * float(np.vdot(a[0], a[0]))


def block_norm(a) -> float:
    return math.sqrt(block_sq(a))


def lifted_loop(kind, block, diag, x0, cfg, solution=None):
    """The lifted map or crm run written out on (p, n) arrays: BlockOperator,
    diag_project and a norm at every step.  run carries a bitwise-diagonal
    start or solution, and every iterate after the first step, as its R^n
    block, so a difference of such points has the norm of the R^n rule
    (block_norm); every other array has np.linalg.norm's.  Returns what
    run's trace holds, or the exception the loop raised."""
    def sq(a, on_blocks) -> float:
        return block_sq(a) if on_blocks else float(np.vdot(a, a))

    def norm(a, on_blocks) -> float:
        return block_norm(a) if on_blocks else float(np.linalg.norm(a))

    try:
        x = np.asarray(x0, dtype=float).copy()
        on_blocks = x.shape == block.dim and is_bitwise_diagonal(x)
        if kind == "crm":
            gap = norm(diag.project(x) - x, on_blocks)
            if gap > MEMBERSHIP_RTOL * (1.0 + norm(x, on_blocks)):
                raise NotInSubspace(gap)
        sol = None if solution is None else np.asarray(solution, dtype=float)
        sol_block = sol is not None and sol.shape == block.dim and is_bitwise_diagonal(sol)
        dists = None if sol is None else [norm(x - sol, on_blocks and sol_block)]
        residuals, fixes, stop = [], [], "max-iterations"
        for k in range(cfg.max_iterations):
            tx = block(x)
            ptx = diag.project(tx)
            den = sq(ptx - x, on_blocks)
            num = sq(tx - x, False)
            fix, step_norm = math.sqrt(num), math.sqrt(den)
            a = 0.0 if 2.0 * step_norm <= EPS_DEG * (1.0 + norm(x, on_blocks)) else num / den
            raw = xn = ptx
            if kind == "crm":
                raw = x + a * (ptx - x) if a else x.copy()
                xn = diag.project(raw)
                gap = norm(xn - raw, on_blocks)
                if ("membership" in cfg.diagnostics
                        and gap > MEMBERSHIP_RTOL * (1.0 + norm(raw, on_blocks))):
                    raise DiagnosticFailure("membership", k, gap)
            if "orthogonality" in cfg.diagnostics:
                inner = float(np.vdot(x - tx, raw - tx))
                bound = ORTHOGONALITY_RTOL * (1.0 + norm(x - tx, False) * norm(raw - tx, False))
                if abs(inner) > bound:
                    raise DiagnosticFailure("orthogonality", k, inner)
            res = norm(xn - x, on_blocks)
            residuals.append(res)
            fixes.append(fix)
            if sol is not None:
                new_dist = norm(xn - sol, sol_block)
                slack = dists[-1] ** 2 - new_dist**2 - step_norm**2
                if "fejer" in cfg.diagnostics and slack < -FEJER_SLACK_TOL:
                    raise DiagnosticFailure("fejer", k, slack)
                dists.append(new_dist)
            x, on_blocks = xn, True
            if res < cfg.tolerance:
                stop = "inconsistent" if kind == "crm" and fix >= cfg.tolerance else "converged"
                break
            if not math.isfinite(res):
                stop = "non-finite"
                break
    except Exception as exc:   # compared with what run raises
        return exc
    return len(residuals), stop, residuals, fixes, dists, x


def assert_run_is_lifted_loop(kind, block, diag, x0, cfg, solution=None):
    expected = lifted_loop(kind, block, diag, x0, cfg, solution)
    if isinstance(expected, Exception):
        with pytest.raises(type(expected)) as exc_info:
            run(kind, (block, diag), x0, cfg, solution=solution)
        if isinstance(expected, DiagnosticFailure):
            got = exc_info.value
            assert (got.check, got.iteration) == (expected.check, expected.iteration)
            assert np.float64(got.value).tobytes() == np.float64(expected.value).tobytes()
        return None
    trace = run(kind, (block, diag), x0, cfg, solution=solution)
    iterations, stop, residuals, fixes, dists, x = expected
    assert (trace.iterations, trace.stop_reason) == (iterations, stop)
    for got, want in ((trace.residual_history, residuals), (trace.fixed_point_residuals, fixes),
                      (trace.dist_history or [], dists or [])):
        assert np.array(got).tobytes() == np.array(want).tobytes()
    assert trace.final_point.shape == x.shape
    assert trace.final_point.tobytes() == x.tobytes()
    return trace


@st.composite
def lifted_runs(draw):
    """(kind, BlockOperator, DiagonalSubspace, start, cfg, lifted solution):
    a generated instance of n in {1, 2, 10} and 1 to 6 operators, started
    on the diagonal or a little off it.  The solution is sometimes the
    fixed point's mirror image through the start, which the fejer check
    rejects."""
    kind = draw(st.sampled_from(["crm", "map"]))
    n = draw(st.sampled_from([1, 2, 10]))
    p = draw(st.integers(1, 6))
    r_range = draw(st.sampled_from([(3, 4, 5), (1, 9, 12), (1,)]))
    inst = gen_instance(InstanceSpec(n=n, p=p, seed=draw(st.integers(0, 2**16)), r_range=r_range))
    diagnostics = draw(st.sampled_from(
        [(), ("fejer", "membership"), ("fejer", "orthogonality", "membership")]))
    if kind == "map":
        diagnostics = tuple(d for d in diagnostics if d == "fejer")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x0 = draw(st.sampled_from([initial_point(inst), 4.0 * rng.standard_normal(n)]))
    start = embed(x0, p)
    start[-1] += draw(st.sampled_from([0.0, 0.0, 1e-12, 1e-3]))
    cfg = SolverConfig(max_iterations=draw(st.integers(1, 40)), diagnostics=diagnostics)
    solution = None
    if diagnostics or draw(st.booleans()):
        mirror = 2.0 * x0 - inst.fixed_point
        solution = embed(draw(st.sampled_from([inst.fixed_point, mirror])), p)
    return kind, BlockOperator(inst.operators), DiagonalSubspace(n, p), start, cfg, solution


EPS = np.finfo(float).eps
# Entries whose squares are normal floats, so each rounding is relative,
# and whose lifted squared norm (at most 300 * 60 * 1e300) is finite.
norm_entries = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(1e-150, 1e150),
                         st.floats(-1e150, -1e-150))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 300), st.lists(norm_entries, min_size=1, max_size=60))
def test_block_rule_is_within_rounding_of_the_lifted_norm(p, entries):
    """The R^n rule, sqrt(p ||v||^2), against np.linalg.norm of the (p, n)
    array (v, ..., v).

    The bound is fixed from float64 before measuring.  Both sum squares,
    all nonnegative, so with N = p n and exact value S each rounds by at
    most gamma_k S, gamma_k = k u / (1 - k u) and u = eps / 2 (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., section 3.1):
    the lifted sum by gamma_N, the rule's n-term dot and its product with p
    by gamma_(n+1).  A square root halves a relative error and adds u, so
    the norms differ by at most about ((N + n + 1) / 4 + 1) eps sqrt(S);
    the bound, (N + n + 5) eps / 2 times the larger norm, has a factor 2 to
    spare.  A lifted (p, n) array keeps np.linalg.norm's own bits."""
    v = np.array(entries)
    lifted = embed(v, p)
    got = math.sqrt(_lifted_sq(v, p))
    want = float(np.linalg.norm(lifted))
    assert abs(got - want) <= (p * v.size + v.size + 5) * EPS / 2 * max(got, want)
    assert math.sqrt(_lifted_sq(lifted, p)) == want


def two_balls(centers):
    return BlockOperator([BallProjection(np.asarray(c, dtype=float), 1.0) for c in centers])


class TestLiftedBlockPath:
    """run steps a diagonal lifted crm or map iterate as its R^n block; it
    must give the lifted loop's bits: iterations, stop reason, every
    history and the final point."""

    @settings(max_examples=60, deadline=None)
    @given(lifted_runs())
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_matches_the_lifted_loop(self, case):
        assert_run_is_lifted_loop(*case)

    @pytest.mark.parametrize("kind,stop", [("crm", "inconsistent"), ("map", "converged")])
    def test_disjoint_balls_from_their_midpoint(self, kind, stop):
        # crm's guard holds at once: P_U T(x) is x while T(x) is not.
        trace = assert_run_is_lifted_loop(
            kind, two_balls([[0, 0, 0], [5, 0, 0]]), DiagonalSubspace(3, 2),
            embed(np.array([2.5, 0.0, 0.0]), 2), SolverConfig())
        assert (trace.stop_reason, trace.iterations) == (stop, 1)

    def test_degeneracy_guard_at_a_common_fixed_point(self):
        block, diag, inst = lifted_instance(n=5, p=4, seed=3)
        start = embed(np.zeros(5), 4)
        start[0, 1] = -0.0
        cfg = SolverConfig(diagnostics=("fejer", "orthogonality", "membership"))
        for x0 in (start, embed(np.zeros(5), 4)):
            trace = assert_run_is_lifted_loop("crm", block, diag, x0, cfg,
                                              solution=embed(inst.fixed_point, 4))
            assert trace.stop_reason == "converged" and trace.residual_history == [0.0]

    @pytest.mark.parametrize("kind", ["crm", "map"])
    def test_start_off_the_diagonal(self, kind):
        block, diag, inst = lifted_instance(n=6, p=5, seed=4)
        start = embed(initial_point(inst), 5)
        start[2, 3] += 1e-12
        cfg = SolverConfig(max_iterations=200,
                           diagnostics=("fejer", "membership") if kind == "crm" else ("fejer",))
        trace = assert_run_is_lifted_loop(kind, block, diag, start, cfg,
                                          solution=embed(inst.fixed_point, 5))
        assert trace.iterations > 1

    @pytest.mark.parametrize("kind", ["crm", "map"])
    def test_start_with_mixed_signs_of_zero(self, kind):
        block = two_balls([[0, 3, 0], [0, 0, 3]])
        start = embed(np.array([0.0, -2.0, 5.0]), 2)
        start[1, 0] = -0.0
        cfg = SolverConfig(max_iterations=50)
        assert_run_is_lifted_loop(kind, block, DiagonalSubspace(3, 2), start, cfg,
                                  solution=embed(np.array([0.0, 2.5, 2.5]), 2))

    @pytest.mark.parametrize("kind", ["crm", "map"])
    @pytest.mark.parametrize("dims,shape", [((3, 2), (3, 3)), ((2, 4), (2, 3)),
                                            ((2, 3), (3, 3)), ((2, 3), (3,))])
    def test_mismatches_raise_as_the_lifted_loop(self, kind, dims, shape):
        block = two_balls([[0, 0, 0], [5, 0, 0]])
        assert isinstance(lifted_loop(kind, block, DiagonalSubspace(*dims), np.zeros(shape),
                                      SolverConfig()), Exception)
        assert_run_is_lifted_loop(kind, block, DiagonalSubspace(*dims), np.zeros(shape),
                                  SolverConfig())

    def test_solution_given_as_a_block(self):
        block, diag, inst = lifted_instance(n=4, p=3, seed=5)
        start = embed(initial_point(inst), 3)
        cfg = SolverConfig(diagnostics=("fejer",))
        lifted = run("crm", (block, diag), start, cfg, solution=embed(inst.fixed_point, 3))
        as_block = run("crm", (block, diag), start, cfg, solution=inst.fixed_point)
        assert lifted.dist_history == as_block.dist_history


def loop_certificate(operators, x) -> float:
    """max_j ||T_j x - x||, each operator called on its own."""
    return max(float(np.linalg.norm(op(x) - x)) for op in operators)


class TestCertificate:
    """IterationTrace.certificate against the per-operator loop at the last
    point a step evaluated: the final point of the same run one step
    shorter.  The bound, 1e-12 (1 + ||x||), was fixed before the first run:
    the correction form and the loop differ by rounding only."""

    @pytest.mark.parametrize("n,p,seed,steps", [(4, 3, 11, 1), (10, 10, 1, 7), (30, 10, 2, 40)])
    def test_ppm_and_lifted_crm_and_map(self, n, p, seed, steps):
        inst = gen_instance(InstanceSpec(n=n, p=p, seed=seed))
        x0 = initial_point(inst)
        block, diag = BlockOperator(inst.operators), DiagonalSubspace(n, p)
        for kind, problem, start in [("ppm", inst.operators, x0),
                                     ("crm", (block, diag), embed(x0, p)),
                                     ("map", (block, diag), embed(x0, p))]:
            trace = run(kind, problem, start, SolverConfig(max_iterations=steps))
            at = start if steps == 1 else run(
                kind, problem, start, SolverConfig(max_iterations=steps - 1)).final_point
            at = at if kind == "ppm" else at[0]
            want = loop_certificate(inst.operators, at)
            assert abs(trace.certificate - want) <= 1e-12 * (1.0 + np.linalg.norm(at))

    def test_converged_ppm_is_certified_at_its_last_step(self):
        inst = gen_instance(InstanceSpec(n=4, p=3, seed=11))
        trace = run("ppm", inst.operators, initial_point(inst))
        assert trace.stop_reason == "converged"
        before = run("ppm", inst.operators, initial_point(inst),
                     SolverConfig(max_iterations=trace.iterations - 1)).final_point
        want = loop_certificate(inst.operators, before)
        assert abs(trace.certificate - want) <= 1e-12 * (1.0 + np.linalg.norm(before))

    def test_map_in_r_n_and_none_for_spm(self):
        op, sub = two_line_problem()
        x0 = np.array([1.0, 0.0])
        trace = run("map", (op, sub), x0, SolverConfig(max_iterations=1))
        assert trace.certificate == np.linalg.norm(op(x0) - x0)
        assert run("spm", [op], x0, SolverConfig(max_iterations=3)).certificate is None

    def test_ppm_that_moves_nothing_is_certified_zero(self):
        inst = gen_instance(InstanceSpec(n=4, p=3, seed=11))
        trace = run("ppm", inst.operators, np.zeros(4))
        assert (trace.iterations, trace.stop_reason, trace.certificate) == (1, "converged", 0.0)
