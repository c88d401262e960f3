"""Iteration engines: step functions, the run loop, and rate estimation."""
import numpy as np
import pytest

import crmfp.operators as operators_module
from crmfp import (
    AffineSubspace,
    AffineSubspaceProjection,
    BlockOperator,
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
    map_step,
    ppm_step,
    run,
    spm_step,
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

    def test_ppm_run_matches_ppm_step_bitwise(self):
        inst = gen_instance(InstanceSpec(n=5, p=4, seed=12))
        x0 = np.full(5, 4.0)
        trace = run("ppm", inst.operators, x0, SolverConfig(max_iterations=3))
        x = x0
        for _ in range(3):
            x = ppm_step(inst.operators, x)
        np.testing.assert_array_equal(trace.final_point, x)

    def test_ppm_from_nan_start_raises_at_once(self, monkeypatch):
        inst = gen_instance(InstanceSpec(n=4, p=3, seed=13))
        calls = []
        project = operators_module.admm_project_stacked

        def counting(*args):
            calls.append(1)
            return project(*args)

        monkeypatch.setattr(operators_module, "admm_project_stacked", counting)
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

    def test_plain_geometric_history(self):
        est = estimate_rate([8.0, 4.0, 2.0, 1.0])
        assert est.per_step_ratios == [0.5, 0.5, 0.5]
        assert est.sup_ratio == 0.5
        assert est.geometric_mean_ratio == pytest.approx(0.5)
