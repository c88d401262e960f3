"""Operator algebra: concrete projections and the structural checks."""
import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crmfp.operators as operators_module
from crmfp import (
    AdmmConfig,
    AffineSubspace,
    AffineSubspaceProjection,
    BallProjection,
    Composition,
    ConvexCombination,
    DimensionMismatch,
    EllipsoidProjection,
    EmptyOperatorList,
    HalfspaceProjection,
    Identity,
    InvalidWeight,
    InstanceSpec,
    RootNotBracketed,
    apply_each,
    extract,
    firm_nonexpansiveness_slack,
    fixed_point_residual,
    fixed_set_witness_check,
    gen_ellipsoid,
    gen_instance,
    gradient_check,
    idempotence_violation_search,
    images,
    initial_point,
    project_admm,
    translate,
    translated_projection_deviation,
)
from crmfp.ellipsoid import SCREEN_MIN_ENTRIES, Ellipsoid, EllipsoidStack
from crmfp.operators import EvaluationPlan, _correction_sums
from crmfp.product_space import BlockOperator

RT2 = np.sqrt(2.0)


def lower_halfplane():
    return HalfspaceProjection(np.array([0.0, 1.0]), 0.0)


def diagonal_line():
    sub = AffineSubspace(np.zeros(2), np.array([[1.0 / RT2, 1.0 / RT2]]))
    return AffineSubspaceProjection(sub)


def x_axis():
    return AffineSubspaceProjection(AffineSubspace(np.zeros(2), np.array([[1.0, 0.0]])))


def projection_zoo(rng, dim=20):
    """One operator of each projection kind on R^dim."""
    normal = rng.standard_normal(dim)
    span = rng.standard_normal((7, dim))
    return [
        HalfspaceProjection(normal, float(rng.normal())),
        AffineSubspaceProjection(AffineSubspace.from_span(rng.standard_normal(dim), span)),
        BallProjection(rng.standard_normal(dim), 1.5),
        EllipsoidProjection(gen_ellipsoid(dim, rng)),
    ]


class TestApply:
    def test_halfspace_drops_violation(self):
        np.testing.assert_allclose(lower_halfplane()(np.array([2.0, 2.0])), [2.0, 0.0])

    def test_halfspace_keeps_member(self):
        np.testing.assert_array_equal(lower_halfplane()(np.array([1.0, -3.0])), [1.0, -3.0])

    def test_diagonal_line(self):
        np.testing.assert_allclose(
            diagonal_line()(np.array([2.0, -1.0])), [0.5, 0.5], atol=1e-15
        )

    def test_combination_averages(self):
        left = HalfspaceProjection(np.array([1.0, 0.0]), 0.0)
        down = lower_halfplane()
        combo = ConvexCombination([left, down], [0.5, 0.5])
        np.testing.assert_allclose(combo(np.array([2.0, 2.0])), [1.0, 1.0])

    def test_identity(self):
        x = np.array([3.0, -1.0, 2.0])
        np.testing.assert_array_equal(Identity(3)(x), x)

    def test_ball(self):
        p = BallProjection(np.zeros(2), 1.0)(np.array([2.0, 0.0]))
        np.testing.assert_allclose(p, [1.0, 0.0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            lower_halfplane()(np.zeros(3))

    def test_kind_labels(self):
        assert Identity(2).kind == "identity"
        assert lower_halfplane().kind == "halfspace-projection"
        assert diagonal_line().kind == "affine-subspace-projection"
        assert BallProjection(np.zeros(2), 1.0).kind == "ball-projection"
        e = gen_ellipsoid(2, np.random.default_rng(0))
        assert EllipsoidProjection(e).kind == "ellipsoid-projection"
        assert ConvexCombination([Identity(2)], [1.0]).kind == "convex-combination"
        assert Composition([Identity(2)]).kind == "composition"


class TestFirmNonexpansivenessSlack:
    def test_identity_zero(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            x, y = rng.standard_normal(4), rng.standard_normal(4)
            assert firm_nonexpansiveness_slack(Identity(4), x, y) == pytest.approx(0.0, abs=1e-12)

    def test_composition_violates_in_pinned_order(self):
        # Applying the horizontal axis projection first, the diagonal
        # second, fails the inequality at this specific pair.
        comp = Composition([x_axis(), diagonal_line()])
        slack = firm_nonexpansiveness_slack(comp, np.zeros(2), np.array([2.0, -1.0]))
        assert slack == pytest.approx(-1.0, abs=1e-12)

    def test_composition_other_order_passes_here(self):
        comp = Composition([diagonal_line(), x_axis()])
        slack = firm_nonexpansiveness_slack(comp, np.zeros(2), np.array([2.0, -1.0]))
        assert slack == pytest.approx(0.75, abs=1e-12)

    def test_single_projections_sampled(self):
        rng = np.random.default_rng(7)
        ops = projection_zoo(rng)
        for op in ops:
            for _ in range(200):
                x = rng.standard_normal(20) * 3
                y = rng.standard_normal(20) * 3
                assert firm_nonexpansiveness_slack(op, x, y) >= -1e-10

    def test_combination_inherits_slack(self):
        rng = np.random.default_rng(11)
        ops = projection_zoo(rng)[:3]
        combo = ConvexCombination(ops, [0.2, 0.5, 0.3])
        for _ in range(100):
            x = rng.standard_normal(20) * 3
            y = rng.standard_normal(20) * 3
            assert firm_nonexpansiveness_slack(combo, x, y) >= -1e-10


def ill_conditioned_ellipsoid(rng, n):
    """{x : (x - c)' A (x - c) <= 1}: A's eigenvalues spread over [1, 10^s]
    with s uniform on [0, 6], on random axes, and a center with c'Ac < 0.9,
    so the origin is interior.  Its half-widths run from 10^(-s/2) to 1."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    w = 10.0 ** (rng.uniform(0.0, 6.0) * rng.permutation(np.linspace(0.0, 1.0, n)))
    A = (q * w) @ q.T
    A = 0.5 * (A + A.T)
    c = rng.standard_normal(n)
    c *= np.sqrt(rng.uniform(0.0, 0.9) / (c @ A @ c))
    return Ellipsoid(A, -(A @ c), 1.0 - c @ A @ c)


def random_tree(rng, n, depth):
    """(operator, alpha, nodes): a random operator tree whose leaves lie at
    most depth levels below its root: above that, half of the nodes are
    combinations or compositions, and the other kinds are drawn alike.
    alpha is an averagedness constant of the tree, nodes its number of
    operators.

    Every leaf (the identity and the four projections) is firmly
    nonexpansive, that is 1/2-averaged.  A convex combination of
    alpha_i-averaged operators is max alpha_i-averaged, and the composition
    of an a- and a b-averaged operator is (a + b - 2ab) / (1 - ab)-averaged
    (Combettes & Yamada, 2015, Prop. 2.4), so a tree without compositions
    is firmly nonexpansive and one with them in general is not.
    """
    inner = depth and rng.random() < 0.5
    kind = rng.choice(["combination", "composition"] if inner else
                      ["identity", "halfspace", "affine", "ball", "ellipsoid"])
    centre = 0.5 * rng.standard_normal(n) / np.sqrt(n)
    if kind == "identity":
        return Identity(n), 0.5, 1
    if kind == "halfspace":
        normal = rng.standard_normal(n)
        return HalfspaceProjection(normal, rng.uniform(-1, 1) * np.linalg.norm(normal)), 0.5, 1
    if kind == "affine":
        span = rng.standard_normal((int(rng.integers(1, n + 1)), n))
        return AffineSubspaceProjection(AffineSubspace.from_span(centre, span)), 0.5, 1
    if kind == "ball":
        return BallProjection(centre, rng.uniform(0.1, 1.0)), 0.5, 1
    if kind == "ellipsoid":
        return EllipsoidProjection(ill_conditioned_ellipsoid(rng, n)), 0.5, 1
    ops, alphas, sizes = zip(*(random_tree(rng, n, depth - 1)
                               for _ in range(int(rng.integers(2, 4)))))
    if kind == "combination":
        weights = rng.uniform(0.1, 1.0, len(ops))
        return ConvexCombination(ops, weights / weights.sum()), max(alphas), 1 + sum(sizes)
    alpha = alphas[0]
    for a in alphas[1:]:
        alpha = (alpha + a - 2.0 * alpha * a) / (1.0 - alpha * a)
    return Composition(ops), alpha, 1 + sum(sizes)


def tree_case(seed, n):
    """A random tree of depth at most 3 on R^n and two points at scales
    10^-1 to 10^8 times its sets' (about 1): independent, or the second
    within a relative 10^-8 to 1 of the first."""
    rng = np.random.default_rng(seed)
    op, alpha, nodes = random_tree(rng, n, 3)
    x, y = (10.0 ** rng.uniform(-1.0, 8.0, (2, 1))) * rng.standard_normal((2, n))
    if rng.random() < 0.5:
        y = x + 10.0 ** rng.uniform(-8.0, 0.0) * np.linalg.norm(x) * rng.standard_normal(n)
    return op, alpha, nodes, x, y


class TestRandomOperatorTrees:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6))
    def test_averaged_inequality_within_rounding(self, seed, n):
        """The slack of an alpha-averaged T is at least
        -(2 alpha - 1) / (2 (1 - alpha)) (|x - y|^2 - |Tx - Ty|^2), which is
        0 for a firmly nonexpansive T (alpha = 1/2), less the rounding bound
        64 N n eps (|x| + |y|)^2, N the tree's number of operators.

        The factor is fixed from float64 rounding at the points' scale
        S = |x| + |y|, before any run.  Each operator's own rounding moves
        its image by at most 8 n eps S (a rotation into an eigenbasis and
        back, or a dot product and a scaled add, a few eps each per
        coordinate), and nonexpansive operators pass their inputs' errors
        on without growth, so each image is within 8 N n eps S of exact.
        The slack's dot products then err by at most 3 S times the images'
        two errors, 48 N n eps S^2, and their own rounding, and the averaged
        term's, add at most 16 n eps S^2 <= 16 N n eps S^2.
        """
        op, alpha, nodes, x, y = tree_case(seed, n)
        slack = firm_nonexpansiveness_slack(op, x, y)
        tx, ty = images(op, np.stack([x, y]))
        assert_same_bits(np.stack([tx, ty]), np.stack([op(x), op(y)]))
        d, u = tx - ty, x - y
        floor = -(2.0 * alpha - 1.0) / (2.0 * (1.0 - alpha)) * (u @ u - d @ d)
        bound = 64 * nodes * n * EPS * (np.linalg.norm(x) + np.linalg.norm(y)) ** 2
        assert slack >= floor - bound, (seed, n, slack, floor, bound)


class TestFixedPointResidual:
    def test_ball_exterior(self):
        op = BallProjection(np.zeros(2), 1.0)
        assert fixed_point_residual(op, np.array([2.0, 0.0])) == pytest.approx(1.0)

    def test_fixed_point_zero(self):
        op = lower_halfplane()
        assert fixed_point_residual(op, np.array([4.0, -1.0])) == 0.0

    def test_interior_common_point(self):
        rng = np.random.default_rng(3)
        ops = [EllipsoidProjection(gen_ellipsoid(4, rng)) for _ in range(2)]
        combo = ConvexCombination(ops, [0.5, 0.5])
        assert fixed_point_residual(combo, np.zeros(4)) == 0.0


class TestRayProperty:
    # Projecting any point of the ray z + alpha (x - z), alpha > 0, must
    # return the same z = P(x).
    def test_exact_kinds(self):
        rng = np.random.default_rng(19)
        for op in projection_zoo(rng):
            for _ in range(10):
                x = rng.standard_normal(20) * 4
                z = op(x)
                for alpha in (0.5, 1.0, 2.0, 10.0):
                    probe = z + alpha * (x - z)
                    assert np.linalg.norm(op(probe) - z) <= 1e-10 * (1 + np.linalg.norm(z))

    def test_admm_within_budget(self):
        rng = np.random.default_rng(23)
        e = gen_ellipsoid(8, rng)
        for _ in range(10):
            x = rng.standard_normal(8) * 4
            z = project_admm(e, x).point
            for alpha in (0.5, 1.0, 2.0, 10.0):
                assert np.linalg.norm(project_admm(e, z + alpha * (x - z)).point - z) <= 1e-6


class TestAcuteAngle:
    def test_combination_with_fixed_point(self):
        # T firmly nonexpansive with fixed point y: the angle at T(x)
        # between y and x is never acute.
        rng = np.random.default_rng(29)
        a = HalfspaceProjection(np.array([1.0, 0.0]), 1.0)
        b = HalfspaceProjection(np.array([0.0, 1.0]), 1.0)
        combo = ConvexCombination([a, b], [0.4, 0.6])
        y = np.array([0.0, 0.0])
        assert fixed_point_residual(combo, y) == 0.0
        for _ in range(100):
            x = rng.standard_normal(2) * 5
            tx = combo(x)
            assert float((tx - y) @ (tx - x)) <= 1e-10


class TestCommonFixedPoints:
    def test_combination_fixes_certified_point(self):
        rng = np.random.default_rng(31)
        ops = [EllipsoidProjection(gen_ellipsoid(6, rng)) for _ in range(4)]
        combo = ConvexCombination(ops, np.full(4, 0.25))
        star = np.zeros(6)
        assert np.linalg.norm(combo(star) - star) <= 1e-12

    def test_residual_decreases_under_iteration(self):
        rng = np.random.default_rng(37)
        ops = [EllipsoidProjection(gen_ellipsoid(5, rng)) for _ in range(3)]
        combo = ConvexCombination(ops, np.full(3, 1.0 / 3.0))
        x = rng.standard_normal(5) * 10
        res = fixed_point_residual(combo, x)
        for _ in range(400):
            x = combo(x)
            new = fixed_point_residual(combo, x)
            assert new <= res + 1e-12
            res = new
        assert res <= 1e-6


class TestTranslate:
    def shift_cases(self, rng):
        dim = 6
        c = rng.standard_normal(dim) * 0.1
        return c, [
            HalfspaceProjection(rng.standard_normal(dim), 0.5),
            AffineSubspaceProjection(
                AffineSubspace.from_span(rng.standard_normal(dim), rng.standard_normal((2, dim)))
            ),
            BallProjection(rng.standard_normal(dim), 2.0),
            EllipsoidProjection(gen_ellipsoid(dim, rng)),
        ]

    def test_equivariance(self):
        # P_{C+c}(x + c) = P_C(x) + c characterizes the moved set.
        rng = np.random.default_rng(41)
        c, ops = self.shift_cases(rng)
        for op in ops:
            moved = translate(op, c)
            for _ in range(20):
                x = rng.standard_normal(6) * 3
                np.testing.assert_allclose(moved(x + c), op(x) + c, atol=1e-9)

    def test_recurses_into_containers(self):
        rng = np.random.default_rng(43)
        c, ops = self.shift_cases(rng)
        combo = ConvexCombination(ops[:2], [0.3, 0.7])
        comp = Composition(ops[:2])
        x = rng.standard_normal(6)
        np.testing.assert_allclose(translate(combo, c)(x + c), combo(x) + c, atol=1e-9)
        np.testing.assert_allclose(translate(comp, c)(x + c), comp(x) + c, atol=1e-9)

    def test_ellipsoid_shift_outside_rejected(self):
        e = gen_ellipsoid(3, np.random.default_rng(47))
        op = EllipsoidProjection(e)
        with pytest.raises(ValueError, match="origin"):
            translate(op, np.full(3, 1e4))

    def test_shift_shape_checked(self):
        with pytest.raises(DimensionMismatch):
            translate(lower_halfplane(), np.zeros(3))

    def test_identity_untouched(self):
        op = translate(Identity(2), np.ones(2))
        np.testing.assert_array_equal(op(np.array([5.0, 6.0])), [5.0, 6.0])


class TestTranslatedProjectionDeviation:
    def test_orthogonal_translation_is_projection(self):
        rng = np.random.default_rng(53)
        samples = rng.standard_normal((100, 2)) * 5
        dev = translated_projection_deviation(x_axis(), np.array([0.0, 1.0]), 0.5, samples)
        assert dev <= 1e-10

    def test_zero_shift_exact(self):
        rng = np.random.default_rng(59)
        samples = rng.standard_normal((20, 2))
        dev = translated_projection_deviation(x_axis(), np.zeros(2), 0.25, samples)
        assert dev == 0.0

    def test_affine_absorbs_tangential_component(self):
        # For affine sets the mixture equals the half-shifted projection
        # for ANY shift: the in-plane part of c moves nothing.
        rng = np.random.default_rng(61)
        samples = rng.standard_normal((50, 2)) * 4
        dev = translated_projection_deviation(x_axis(), np.array([1.0, 1.0]), 0.5, samples)
        assert dev <= 1e-10

    def test_full_dimensional_set_breaks_it(self):
        # A ball translate mixes to something that is not a projection.
        rng = np.random.default_rng(67)
        ball = BallProjection(np.zeros(2), 1.0)
        samples = rng.standard_normal((100, 2)) * 4
        dev = translated_projection_deviation(ball, np.array([2.0, 0.0]), 0.5, samples)
        assert dev > 1e-3

    def test_weight_validated(self):
        with pytest.raises(InvalidWeight):
            translated_projection_deviation(x_axis(), np.ones(2), 1.0, [np.zeros(2)])
        with pytest.raises(InvalidWeight):
            translated_projection_deviation(x_axis(), np.ones(2), 0.0, [np.zeros(2)])


class TestFixedSetWitness:
    def test_separated_halfspaces(self):
        below = HalfspaceProjection(np.array([0.0, 1.0]), 0.0)
        above = HalfspaceProjection(np.array([0.0, -1.0]), -1.0)  # x2 >= 1
        residual, mismatch = fixed_set_witness_check(
            below, above, np.array([0.0, 0.0]), np.array([0.0, 1.0]), 0.3
        )
        assert residual <= 1e-12
        assert mismatch <= 1e-12

    def test_identical_sets(self):
        op = lower_halfplane()
        u = np.array([2.0, -1.0])
        residual, mismatch = fixed_set_witness_check(op, op, u, u, 0.5)
        assert residual == 0.0
        assert mismatch == 0.0

    def test_parallel_lines_midline(self):
        line0 = AffineSubspaceProjection(
            AffineSubspace(np.array([0.0, 0.0]), np.array([[1.0, 0.0]]))
        )
        line2 = AffineSubspaceProjection(
            AffineSubspace(np.array([0.0, 2.0]), np.array([[1.0, 0.0]]))
        )
        residual, mismatch = fixed_set_witness_check(
            line0, line2, np.array([3.0, 0.0]), np.array([3.0, 2.0]), 0.5
        )
        assert residual <= 1e-12
        assert mismatch <= 1e-12

    def test_weight_validated(self):
        op = lower_halfplane()
        with pytest.raises(InvalidWeight):
            fixed_set_witness_check(op, op, np.zeros(2), np.zeros(2), -0.1)


class TestIdempotence:
    def test_single_projection_clean(self):
        rng = np.random.default_rng(71)
        samples = rng.standard_normal((30, 2)) * 5
        assert idempotence_violation_search(lower_halfplane(), samples) == 0.0

    def test_combination_of_distinct_halfspaces(self):
        left = HalfspaceProjection(np.array([1.0, 0.0]), 0.0)
        down = lower_halfplane()
        combo = ConvexCombination([left, down], [0.5, 0.5])
        violation = idempotence_violation_search(combo, [np.array([2.0, 2.0])])
        assert violation >= np.sqrt(0.5) - 1e-12

    def test_orthogonal_translation_construction_is_projection(self):
        alpha = 0.4
        c = np.array([0.0, 3.0])
        base = x_axis()
        combo = ConvexCombination([base, translate(base, c)], [1.0 - alpha, alpha])
        rng = np.random.default_rng(73)
        samples = rng.standard_normal((50, 2)) * 5
        assert idempotence_violation_search(combo, samples) <= 1e-10

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            idempotence_violation_search(lower_halfplane(), [])


class TestGradientCheck:
    def test_unit_ball(self):
        ball = BallProjection(np.zeros(2), 1.0)
        assert gradient_check(ball, np.array([2.0, 0.0])) <= 1e-5

    def test_halfspace(self):
        assert gradient_check(lower_halfplane(), np.array([1.0, 3.0])) <= 1e-5

    def test_interior_point(self):
        ball = BallProjection(np.zeros(2), 1.0)
        assert gradient_check(ball, np.array([0.1, 0.2])) <= 1e-10

    def test_step_validated(self):
        with pytest.raises(ValueError):
            gradient_check(lower_halfplane(), np.zeros(2), h=0.0)


class TestContainers:
    def test_weight_validation(self):
        ops = [Identity(2), Identity(2)]
        with pytest.raises(InvalidWeight):
            ConvexCombination(ops, [0.5, 0.6])
        with pytest.raises(InvalidWeight):
            ConvexCombination(ops, [-0.1, 1.1])
        with pytest.raises(InvalidWeight):
            ConvexCombination(ops, [1.0])

    def test_empty_lists_rejected(self):
        with pytest.raises(EmptyOperatorList):
            ConvexCombination([], [])
        with pytest.raises(EmptyOperatorList):
            Composition([])
        with pytest.raises(EmptyOperatorList):
            apply_each([], np.zeros(2))

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DimensionMismatch):
            ConvexCombination([Identity(2), Identity(3)], [0.5, 0.5])
        with pytest.raises(DimensionMismatch):
            Composition([Identity(2), Identity(3)])

    def test_nonorthonormal_basis_rejected(self):
        with pytest.raises(ValueError):
            AffineSubspace(np.zeros(2), np.array([[1.0, 1.0]]))

    def test_from_span_drops_dependent_rows(self):
        sub = AffineSubspace.from_span(np.zeros(3), [[1.0, 0, 0], [2.0, 0, 0], [0, 1.0, 0]])
        assert sub.basis.shape == (2, 3)

    def test_zero_normal_rejected(self):
        with pytest.raises(ValueError):
            HalfspaceProjection(np.zeros(2), 1.0)

    def test_bad_radius_rejected(self):
        with pytest.raises(ValueError):
            BallProjection(np.zeros(2), 0.0)

    @pytest.mark.parametrize("build", [
        lambda: HalfspaceProjection([1.0, 0.0], np.nan),
        lambda: HalfspaceProjection([1.0, 0.0], np.inf),
        lambda: BallProjection([0.0, 0.0], np.nan),
        lambda: BallProjection([0.0, 0.0], np.inf),
        lambda: AffineSubspace([np.nan, 0.0], [[1.0, 0.0]]),
        lambda: AffineSubspace([0.0, 0.0], [[np.nan, 0.0]]),
        lambda: ConvexCombination([Identity(2), Identity(2)], [np.nan, 1.0]),
        lambda: InstanceSpec(n=3, p=2, seed=1, gamma=np.nan),
        lambda: InstanceSpec(n=3, p=2, seed=1, gamma=np.inf),
        lambda: InstanceSpec(n=3, p=2, seed=1, eta=np.nan),
        lambda: InstanceSpec(n=3, p=2, seed=1, eta=-np.inf),
        lambda: gradient_check(lower_halfplane(), np.array([1.0, 3.0]), h=np.nan),
        lambda: gradient_check(lower_halfplane(), np.array([1.0, 3.0]), h=np.inf),
        lambda: AdmmConfig(tolerance=np.nan),
        lambda: AdmmConfig(penalty=np.nan),
        lambda: extract(np.array([[0.0, 0.0], [1.0, 1.0]]), tol=np.nan),
    ], ids=["halfspace offset nan", "halfspace offset inf", "ball radius nan",
            "ball radius inf", "subspace anchor nan", "subspace basis nan",
            "combination weight nan", "gamma nan", "gamma inf", "eta nan", "eta -inf",
            "gradient_check h nan", "gradient_check h inf", "admm tolerance nan",
            "admm penalty nan", "extract tol nan"])
    def test_non_finite_parameters_rejected(self, build):
        # Each guard is a comparison that NaN fails, as an out-of-range value does.
        with pytest.raises(ValueError):
            build()

    def test_writes_into_constructor_inputs_change_nothing(self):
        # Each operator copies the arrays it is built from, so it stays what
        # it was built as; an aliased input would change its outputs, or mix
        # the new data with what it cached (an eigenbasis, a squared norm).
        A, b = np.eye(2), np.zeros(2)
        normal, center = np.array([1.0, 0.0]), np.zeros(2)
        anchor, basis = np.zeros(2), np.array([[1.0, 0.0]])
        weights = np.array([0.25, 0.75])
        e = Ellipsoid(A, b, 1.0)
        ops = [EllipsoidProjection(e), HalfspaceProjection(normal, 0.0),
               BallProjection(center, 1.0), AffineSubspaceProjection(AffineSubspace(anchor, basis)),
               ConvexCombination([EllipsoidProjection(e), lower_halfplane()], weights)]
        x = np.array([3.0, 1.0])

        def outputs():
            return [e.g(x), e.A.tobytes(), e.b.tobytes(), *(op(x).tobytes() for op in ops)]

        before = outputs()
        A[:] = 4.0 * np.eye(2)
        b[:] = (1.0, 0.0)
        normal[:] = (2.0, 0.0)
        center[:] = (5.0, 5.0)
        anchor[:] = (0.0, 7.0)
        basis[:] = (0.0, 1.0)
        weights[:] = (2.0, 2.0)
        assert outputs() == before


class TestApplyEach:
    def stack_ops(self, rng, count=5, dim=6):
        return [EllipsoidProjection(gen_ellipsoid(dim, rng)) for _ in range(count)]

    def test_shared_point(self):
        rng = np.random.default_rng(79)
        ops = self.stack_ops(rng)
        x = rng.standard_normal(6) * 3
        outs = apply_each(ops, x)
        for op, out in zip(ops, outs):
            np.testing.assert_array_equal(out, op(x))

    def test_per_row_points(self):
        rng = np.random.default_rng(83)
        ops = self.stack_ops(rng)
        xs = rng.standard_normal((5, 6)) * 3
        outs = apply_each(ops, xs)
        for op, row, out in zip(ops, xs, outs):
            np.testing.assert_array_equal(out, op(row))

    def test_row_count_checked(self):
        rng = np.random.default_rng(89)
        ops = self.stack_ops(rng, count=3)
        with pytest.raises(DimensionMismatch):
            apply_each(ops, rng.standard_normal((2, 6)))

    def test_fused_matches_loop_bitwise(self):
        rng = np.random.default_rng(97)
        ops = self.stack_ops(rng, count=8)
        combos = [
            ConvexCombination(ops[:4], np.full(4, 0.25)),
            ConvexCombination(ops[4:], np.full(4, 0.25)),
        ]
        xs = rng.standard_normal((2, 6)) * 4
        fused = apply_each(combos, xs)
        assert EvaluationPlan(combos).stack is not None
        for f, combo, row in zip(fused, combos, xs):
            np.testing.assert_array_equal(f, combo(row))
            assert_matches_member_loop(f, combo, row)

    def test_mixed_kinds_fall_back(self):
        rng = np.random.default_rng(101)
        ops = [BallProjection(np.zeros(6), 1.0)] + self.stack_ops(rng, count=2)
        x = rng.standard_normal(6) * 3
        outs = apply_each(ops, x)
        for op, out in zip(ops, outs):
            np.testing.assert_array_equal(out, op(x))


EPS = np.finfo(float).eps


def assert_matches_member_loop(got, op, x):
    """got equals the reference path, an operator's members applied one by
    one, up to summation order.

    The loop's weights @ images sums the members' images, and a
    combination forms x + sum_k w_k (y_k - x), y_k being member k's image.
    The two agree up to the weights' defect |1 - sum_k w_k| ||x||_inf and
    the rounding of both forms, which for the 1-4 members drawn here is at
    most 8 eps (||x||_inf + sum_k |w_k| ||y_k||_inf) per entry, a bound
    derived from float64 before measuring.  Every other kind must agree
    bit for bit.
    """
    if not isinstance(op, ConvexCombination):
        np.testing.assert_array_equal(got, op(x))
        return
    images = np.stack([m(x) for m in op.operators])
    scale = np.abs(x).max() + float(np.abs(op.weights) @ np.abs(images).max(axis=1))
    bound = abs(1.0 - op.weights.sum()) * np.abs(x).max() + 8 * EPS * scale
    assert np.abs(got - op.weights @ images).max() <= bound


def random_operator(draw, rng, n, depth=0):
    """An ellipsoid projection, a ball, a halfspace or a convex combination
    (nested at most twice)."""
    kinds = ["ellipsoid", "ball", "halfspace"] + (["combination"] if depth < 2 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "ellipsoid":
        return EllipsoidProjection(gen_ellipsoid(n, rng))
    if kind == "ball":
        return BallProjection(rng.standard_normal(n), float(rng.uniform(0.5, 2.0)))
    if kind == "halfspace":
        return HalfspaceProjection(rng.standard_normal(n), float(rng.standard_normal()))
    members = [random_operator(draw, rng, n, depth + 1) for _ in range(draw(st.integers(1, 4)))]
    weights = rng.uniform(0.1, 1.0, len(members))
    weights /= weights.sum()
    weights[-1] = 1.0 - weights[:-1].sum()
    return ConvexCombination(members, weights)


@st.composite
def operator_lists(draw):
    n = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ops = [random_operator(draw, rng, n) for _ in range(draw(st.integers(1, 5)))]
    scale = draw(st.sampled_from([0.1, 1.0, 5.0]))
    return ops, rng.standard_normal((len(ops), n)) * scale


def one_stack_rows(op) -> int:
    """Rows op owns in a plan's stack: one per ellipsoid projection, one per
    member of a combination of ellipsoid projections, else 0."""
    if isinstance(op, EllipsoidProjection):
        return 1
    if isinstance(op, ConvexCombination) and all(
            isinstance(m, EllipsoidProjection) for m in op.operators):
        return len(op.operators)
    return 0


class TestEvaluationPlan:
    @settings(max_examples=150, deadline=None)
    @given(operator_lists())
    def test_every_ellipsoid_row_is_in_the_one_stack(self, case):
        ops, _ = case
        lists = [ops]
        while lists:
            members = lists.pop()
            plan = EvaluationPlan(members)
            rows = [one_stack_rows(op) for op in members]
            assert sorted(plan.called) == [i for i, r in enumerate(rows) if r == 0]
            assert (0 if plan.stack is None else len(plan.stack)) == sum(rows)
            lists += [op.operators for op in members if isinstance(op, ConvexCombination)]

    @settings(max_examples=150, deadline=None)
    @given(operator_lists())
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_matches_member_loop_bitwise(self, case):
        ops, points = case
        plan = EvaluationPlan(ops)
        shared = plan(points[0])
        per_row = plan(points)
        for i, op in enumerate(ops):
            np.testing.assert_array_equal(shared[i], op(points[0]))
            np.testing.assert_array_equal(per_row[i], op(points[i]))
            assert_matches_member_loop(shared[i], op, points[0])
            assert_matches_member_loop(per_row[i], op, points[i])

    @pytest.mark.parametrize("which", ["combinations", "projections", "with a ball"])
    def test_writing_into_a_result_changes_no_later_call(self, which):
        # A call returns a fresh array: the segmented sum's own, the stacked
        # solve's or the per-operator fill, never one the plan keeps.
        inst = gen_instance(InstanceSpec(n=6, p=5, seed=9))
        ops = {"combinations": inst.operators,
               "projections": inst.operators[0].operators,
               "with a ball": [*inst.operators, BallProjection(np.zeros(6), 1.0)]}[which]
        plan, untouched = EvaluationPlan(ops), EvaluationPlan(ops)
        x, y = initial_point(inst), inst.fixed_point
        for point in (x, y, x):
            got = plan(point)
            want = untouched(point)
            assert got.tobytes() == want.tobytes()
            got[:] = np.nan

    def test_combination_stack_built_once(self, monkeypatch):
        rng = np.random.default_rng(6)
        combo = ConvexCombination(
            [EllipsoidProjection(gen_ellipsoid(3, rng)) for _ in range(3)], np.full(3, 1 / 3)
        )
        builds = []
        original = operators_module.EllipsoidStack

        def counting_stack(ellipsoids):
            builds.append(1)
            return original(ellipsoids)

        monkeypatch.setattr(operators_module, "EllipsoidStack", counting_stack)
        for _ in range(4):
            combo(rng.standard_normal(3) * 3)
        assert len(builds) == 1
        for e in (m.ellipsoid for m in combo.operators):
            assert np.shares_memory(e.eig()[1], combo.plan.stack.rot)

    @pytest.mark.usefixtures("screen_every_stack")
    def test_second_plan_leaves_the_eig_caches(self):
        inst = gen_instance(InstanceSpec(n=4, p=3, seed=11))
        members = [m.ellipsoid for op in inst.operators for m in op.operators]
        caches = [(e._eig[1].ctypes.data, e._b_rot.ctypes.data) for e in members]

        def views_rows_of_the_instance(stack, rows):
            # The stack's arrays are a slice of the array generation filled:
            # shared memory, and the data address of each member's row.
            assert np.shares_memory(stack.rot, members[0]._eig[1].base)
            assert np.shares_memory(stack.b_rot, members[0]._b_rot.base)
            assert [q.ctypes.data for q in stack.rot] == [e._eig[1].ctypes.data for e in rows]
            assert [b.ctypes.data for b in stack.b_rot] == [e._b_rot.ctypes.data for e in rows]

        was_enabled = gc.isenabled()
        gc.disable()
        try:
            first = EvaluationPlan(inst.operators)
            views_rows_of_the_instance(first.stack, members)
            rot, b_rot = first.stack.rot, first.stack.b_rot
            stacks = [weakref.ref(first.stack)]
            del first
            # The first stack is freed; the member caches keep the rows alive,
            # and a second plan over the same list views them too.
            assert stacks[0]() is None
            second = EvaluationPlan(inst.operators)
            views_rows_of_the_instance(second.stack, members)
            b = np.stack([e.b for e in members])
            batched = np.matmul(rot.transpose(0, 2, 1), b[..., None])[..., 0]
            assert_same_bits(b_rot, batched)
            # Each combination's stack views its consecutive rows, and so does
            # a plan over consecutive operators in order.
            for op in inst.operators:
                op(inst.fixed_point)
                views_rows_of_the_instance(op.plan.stack, [m.ellipsoid for m in op.operators])
            tail = EvaluationPlan(inst.operators[1:])
            views_rows_of_the_instance(tail.stack, members[len(inst.operators[0].operators):])
            # Another order, or a subset that skips rows, copies them with the
            # same bits and leaves the caches as they were.
            for ops in (inst.operators[::-1], inst.operators[::2]):
                plan = EvaluationPlan(ops)
                rows = [m.ellipsoid for op in ops for m in op.operators]
                assert not np.shares_memory(plan.stack.rot, rot)
                assert not np.shares_memory(plan.stack.b_rot, b_rot)
                assert_same_bits(plan.stack.rot, np.stack([e.eig()[1] for e in rows]))
                assert_same_bits(plan.stack.b_rot, np.stack([e._b_rot for e in rows]))
                stacks.append(weakref.ref(plan.stack))
                del plan
            assert [(e._eig[1].ctypes.data, e._b_rot.ctypes.data) for e in members] == caches
            # Each plan keeps its own screen.
            third = EvaluationPlan(inst.operators)
            views_rows_of_the_instance(third.stack, members)
            second(inst.fixed_point)
            assert second.stack.tangents is not None and third.stack.tangents is None
            # No cache keeps any plan's stack alive.
            stacks += [weakref.ref(s.stack) for s in (second, third, tail)]
            del second, third, tail
            assert all(alive() is None for alive in stacks)
        finally:
            if was_enabled:
                gc.enable()
        # Members decomposed one by one (eig() before any stack) hold one
        # array each, so a stack over them gathers a copy and rebinds no
        # cache; the rotated b has the bits of the batched rotation.
        # Members with no cache are decomposed by the stack, into rows it views.
        fresh = [Ellipsoid(e.A, e.b, e.alpha) for e in members]
        for e in fresh:
            e.eig()
        stack = EllipsoidStack(fresh)
        assert_same_bits(stack.b_rot, batched)
        assert all(len(e._eig[1].base) == 1 and not np.shares_memory(e._eig[1], stack.rot)
                   for e in fresh)
        fresh = [Ellipsoid(e.A, e.b, e.alpha) for e in members]
        stack = EllipsoidStack(fresh)
        assert_same_bits(stack.rot, rot)
        assert all(e._eig[1].base is stack.rot.base for e in fresh)

    def test_building_a_plan_holds_its_rows_once(self):
        # Generation decomposes the instance into one array, each
        # eigendecomposition written into its row as it is computed, and the
        # plan views that array: no eigh output is held next to its copy.
        EvaluationPlan(gen_instance(InstanceSpec(n=3, p=2, seed=1)).operators)   # imports
        tracemalloc.start()
        try:
            inst = gen_instance(InstanceSpec(n=40, p=10, seed=3))
            plan = EvaluationPlan(inst.operators)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        a_bytes = sum(m.ellipsoid.A.nbytes for op in inst.operators for m in op.operators)
        assert peak <= a_bytes + 1.5 * plan.stack.rot.nbytes

    def test_points_shape_checked(self):
        plan = EvaluationPlan([Identity(2), Identity(2)])
        with pytest.raises(DimensionMismatch):
            plan(np.zeros(3))
        with pytest.raises(DimensionMismatch):
            plan(np.zeros((3, 2)))

    def test_nonfinite_point_raises(self):
        inst = gen_instance(InstanceSpec(n=4, p=2, seed=3))
        with pytest.raises(RootNotBracketed, match="non-finite"):
            inst.operators[0](np.array([np.nan, 0.0, 1.0, 0.0]))

    @pytest.mark.usefixtures("screen_every_stack")
    @pytest.mark.parametrize("r_range", [(3, 4, 5), (1, 9, 12)])
    def test_shared_calls_along_a_ppm_trajectory_match_the_loop(self, r_range):
        # ppm's own plan at each iterate of its run, against every operator
        # called on its own (each a combination with its own plan).  Past
        # the first steps the anchors certify most rows, so most calls skip
        # most rotations; the bytes must not notice.  With r_range (3, 4, 5)
        # the plan sums slot by slot and each operator's own call by
        # reduceat; with (1, 9, 12) runs reach 12 rows and the plan keeps
        # reduceat too.
        inst = gen_instance(InstanceSpec(n=10, p=6, seed=3, r_range=r_range))
        plan = EvaluationPlan(inst.operators)
        x = initial_point(inst)
        certified = rows = 0
        for _ in range(150):
            shared = np.broadcast_to(x, (len(plan.stack), len(x)))
            cert = plan.stack.certified(shared)
            certified += 0 if cert is None else int(cert.sum())
            rows += len(plan.stack)
            got = plan(x)
            assert_same_bits(got, np.stack([op(x) for op in inst.operators]))
            x = np.mean(got, axis=0)
        assert certified > 0.8 * rows

    @pytest.mark.parametrize("p, screens", [(10, False), (200, True)])
    def test_only_plans_of_screen_min_entries_anchor(self, p, screens):
        # At n = 10, 10 operators make a stack of about 4e3 eigenbasis
        # entries and 200 operators one of about 8e4: a ppm trajectory
        # anchors on the second only, and the first takes every call whole.
        inst = gen_instance(InstanceSpec(n=10, p=p, seed=1))
        plan = EvaluationPlan(inst.operators)
        assert (plan.stack.rot.size >= SCREEN_MIN_ENTRIES) == screens
        x = initial_point(inst)
        for _ in range(20):
            x = np.add.reduce(plan(x), axis=0) / p
        assert (plan.stack.tangents is not None) == screens


signed_zeros = st.sampled_from([0.0, -0.0])
# Values from 1e-300 to 1e300 and signed zeros, or values of like
# magnitudes, whose sums round differently in another order.
spread_values = st.one_of(
    signed_zeros,
    st.builds(lambda m, e, sign: sign * m * 10.0**e,
              st.floats(1.0, 10.0), st.integers(-300, 299), st.sampled_from([1.0, -1.0])),
)
like_values = st.one_of(signed_zeros, st.floats(-10.0, 10.0))


@st.composite
def segment_cases(draw):
    """(counts, row_weights, rows): runs of 1-12 rows, mixed in one layout
    or all of one length, of spread or of like values."""
    if draw(st.booleans()):
        counts = draw(st.lists(st.integers(1, 12), min_size=1, max_size=8))
    else:
        counts = [draw(st.integers(1, 12))] * draw(st.integers(1, 6))
    n = draw(st.integers(1, 4))
    total = sum(counts)
    values = draw(st.sampled_from([spread_values, like_values]))
    rows = np.array(draw(st.lists(values, min_size=total * n, max_size=total * n)))
    weights = np.array(draw(st.lists(st.one_of(st.floats(0.0, 1.0), values),
                                     min_size=total, max_size=total)))
    return counts, weights, rows.reshape(total, n)


def shared_point_operator(draw, rng, n):
    """A lone ellipsoid projection, a combination of 1-12 of them, or an
    operator the plans call as it is (a ball or a halfspace)."""
    kind = draw(st.sampled_from(["ellipsoid", "combination", "ball", "halfspace"]))
    if kind == "ellipsoid":
        return EllipsoidProjection(gen_ellipsoid(n, rng))
    if kind == "ball":
        return BallProjection(rng.standard_normal(n), float(rng.uniform(0.5, 2.0)))
    if kind == "halfspace":
        return HalfspaceProjection(rng.standard_normal(n), float(rng.uniform(0.1, 2.0)))
    members = [EllipsoidProjection(gen_ellipsoid(n, rng)) for _ in range(draw(st.integers(1, 12)))]
    weights = rng.uniform(0.1, 1.0, len(members))
    return ConvexCombination(members, weights / weights.sum())


@st.composite
def shared_point_cases(draw):
    """(operators, x, points): 1-6 operators on R^n, a shared point x with
    some entries -0.0, at the origin (every member interior), near it, or
    far out, and x with three more points for images()."""
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ops = [shared_point_operator(draw, rng, n) for _ in range(draw(st.integers(1, 6)))]
    x = draw(st.sampled_from([0.0, 1e-3, 1.0, 5.0])) * rng.standard_normal(n)
    x[rng.random(n) < 0.3] = -0.0
    points = np.concatenate([x[None, :], 10.0 ** rng.uniform(-2, 1, (3, 1)) * rng.standard_normal((3, n))])
    return ops, x, points


class TestFusedEqualsMemberLoop:
    @settings(max_examples=200, deadline=None)
    @given(shared_point_cases())
    def test_plan_and_images_equal_the_loops_bitwise(self, case):
        ops, x, points = case
        plan = EvaluationPlan(ops)
        assert_same_bits(plan(x), np.stack([op(x) for op in ops]))
        for op in ops:
            assert_same_bits(images(op, points), np.stack([op(y) for y in points]))

    @settings(max_examples=100, deadline=None)
    @given(shared_point_cases())
    def test_combinations_no_member_moves_return_x(self, case):
        # Deep inside every member, x + nothing: x's own bytes, -0.0 included,
        # where sum_i w_i x could differ from x in the last ulp.
        ops, x, _ = case
        images_at_x = EvaluationPlan(ops)(x)
        for op, image in zip(ops, images_at_x):
            if isinstance(op, ConvexCombination) and all(
                    m.ellipsoid.g(x) < -1e-6 for m in op.operators):
                assert_same_bits(image, x)
                assert_same_bits(op(x), x)

    @pytest.mark.parametrize("x", [[-0.0, 0.0, -0.0], [-0.0, 1e-3, -3e-4]])
    def test_an_all_interior_combination_returns_x(self, x):
        # sum_i w_i x differs from the second x in its last entry, by 5e-20.
        rng = np.random.default_rng(7)
        members = [EllipsoidProjection(gen_ellipsoid(3, rng)) for _ in range(5)]
        op = ConvexCombination(members, [0.1, 0.2, 0.3, 0.15, 0.25])
        x = np.array(x)
        assert_same_bits(op(x), x)
        assert_same_bits(EvaluationPlan([op, op])(x), np.stack([x, x]))
        assert_same_bits(images(op, x[None, :]), x[None, :])


class TestCorrectionSums:
    @settings(max_examples=400, deadline=None)
    @given(segment_cases(), st.integers(0, 2**32 - 1))
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_each_run_sums_as_it_would_alone(self, case, seed):
        # A plan sums every operator's run in one call, a combination's own
        # call and images() one run at a time; the bits must not notice.
        counts, weights, rows = case
        corr = weights[:, None] * rows
        owner = np.repeat(np.arange(len(counts)), counts)
        keep = np.flatnonzero(np.random.default_rng(seed).random(len(rows)) < 0.7)
        ops, sums = _correction_sums(owner[keep].tolist(), corr[keep])
        assert ops == sorted(set(owner[keep].tolist()))
        for op, got in zip(ops, sums):
            mine = keep[owner[keep] == op]
            _, want = _correction_sums([op] * len(mine), corr[mine])
            assert_same_bits(got, want[0])

    def test_negative_zero_sums_keep_their_sign(self):
        # Runs of 1 and 3 corrections of -0.0 sum to -0.0.
        ops, got = _correction_sums([0, 1, 1, 1], np.full((4, 2), -0.0))
        assert ops == [0, 1]
        assert_same_bits(got, np.full((2, 2), -0.0))

    def test_a_mixed_combination_sums_its_ellipsoid_rows_first(self):
        # The stated order: the ellipsoid projections' exterior rows in
        # member order, then the members called as they are.  Here member
        # order would give other bits.
        ball = BallProjection([3.0, 0.0], 1.0)
        members = [EllipsoidProjection(Ellipsoid(np.eye(2), np.zeros(2), 1.0)),
                   EllipsoidProjection(Ellipsoid(np.diag([2.0, 1.0]), [0.1, 0.0], 1.0))]
        w = np.array([0.3536089218380959, 0.1949960893286504, 0.4513949888332537])
        c = ConvexCombination([ball, *members], w)
        x = np.array([1.292263954564938, -2.842747270738213])
        rows, _ = c.plan.corrections(x)
        assert c.plan.owner[rows].tolist() == [1, 2, 0]
        d_ball, d_1, d_2 = ((op(x) - x) * wi for op, wi in zip(c.operators, w))
        assert_same_bits(c(x), x + ((d_1 + d_2) + d_ball))
        assert (x + ((d_ball + d_1) + d_2)).tobytes() != c(x).tobytes()


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


IMAGE_KINDS = ["kkt", "fused", "unfused", "nested", "ball",
               "halfspace", "affine", "composition", "identity", "lifted"]


def operator_of_kind(kind, rng, n):
    """One operator of the named kind on R^n, and an operator whose image of
    a far point lies on the boundary of one of its sets."""
    if kind == "kkt":
        op = EllipsoidProjection(gen_ellipsoid(n, rng))
        return op, op
    if kind == "fused":
        members = [EllipsoidProjection(gen_ellipsoid(n, rng))
                   for _ in range(int(rng.integers(1, 5)))]
        weights = rng.uniform(0.1, 1.0, len(members))
        op = ConvexCombination(members, weights / weights.sum())
        assert not op.plan.called
        return op, members[0]
    if kind == "unfused":
        ellipsoid = EllipsoidProjection(gen_ellipsoid(n, rng))
        op = ConvexCombination([ellipsoid, BallProjection(rng.standard_normal(n), 1.0)],
                               [0.4, 0.6])
        return op, ellipsoid
    if kind == "nested":
        inner, surface = operator_of_kind("fused", rng, n)
        return ConvexCombination([inner, EllipsoidProjection(gen_ellipsoid(n, rng))],
                                 [0.5, 0.5]), surface
    if kind == "ball":
        op = BallProjection(rng.standard_normal(n), float(rng.uniform(0.5, 2.0)))
    elif kind == "halfspace":
        op = HalfspaceProjection(rng.standard_normal(n), float(rng.standard_normal()))
    elif kind == "affine":
        span = rng.standard_normal((max(1, n - 1), n))
        op = AffineSubspaceProjection(AffineSubspace.from_span(rng.standard_normal(n), span))
    elif kind == "composition":
        ellipsoid = EllipsoidProjection(gen_ellipsoid(n, rng))
        return Composition([BallProjection(np.zeros(n), 3.0), ellipsoid]), ellipsoid
    elif kind == "identity":
        op = Identity(n)
    else:
        blocks = [EllipsoidProjection(gen_ellipsoid(n, rng)), BallProjection(np.zeros(n), 1.0)]
        return BlockOperator(blocks), blocks[0]
    return op, op


@st.composite
def image_cases(draw):
    """An operator, and k points from 1 to 12: interior, exterior, or a few
    ulps either side of a boundary point of one of its sets."""
    kind = draw(st.sampled_from(IMAGE_KINDS))
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    op, surface = operator_of_kind(kind, rng, n)
    shape = (2, n) if kind == "lifted" else (n,)
    points = []
    for where in draw(st.lists(st.sampled_from(["inside", "outside", "boundary"]),
                               min_size=1, max_size=12)):
        if where == "inside":
            points.append(0.01 * rng.standard_normal(shape))
        elif where == "outside":
            points.append(10.0 ** rng.uniform(0, 3) * rng.standard_normal(shape))
        else:
            far = 100.0 * rng.standard_normal(n)
            y = surface(far)
            direction = far - y if rng.random() < 0.5 else y - far
            for _ in range(int(rng.integers(0, 5))):
                y = np.nextafter(y, y + direction)
            points.append(np.broadcast_to(y, shape).copy())
    return op, np.stack(points)


class TestImages:
    @settings(max_examples=200, deadline=None)
    @given(image_cases())
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_equals_the_per_point_loop_bitwise(self, case):
        op, points = case
        first = images(op, points)
        loop = np.stack([op(x) for x in points])
        assert_same_bits(first, loop)
        # The loop moved the operators' screens; the images do not depend on them.
        assert_same_bits(images(op, points), loop)

    @pytest.mark.parametrize("kind", ["kkt", "fused"])
    def test_one_stacked_solve_of_two_dimensional_rows(self, kind, monkeypatch):
        rng = np.random.default_rng(41)
        op, _ = operator_of_kind(kind, rng, 5)
        calls = []
        # A projection's images are the dense result, a combination's are
        # summed from the exterior rows: one call of either projector entry.
        for name in ("kkt_project_stacked", "kkt_exterior_stacked"):
            def counted(stack, rows, tol, original=getattr(operators_module, name)):
                calls.append(rows.shape)
                return original(stack, rows, tol)

            monkeypatch.setattr(operators_module, name, counted)
        points = 5.0 * rng.standard_normal((9, 5))
        images(op, points)
        size = 1 if isinstance(op, EllipsoidProjection) else len(op.operators)
        assert calls == [(9 * size, 5)]

    @pytest.mark.usefixtures("screen_every_stack")
    def test_base_stacks_untouched(self):
        rng = np.random.default_rng(42)
        op, _ = operator_of_kind("fused", rng, 4)
        op(np.zeros(4))
        stack = op.plan.stack
        tangents = stack.tangents
        assert tangents is not None
        images(op, 3.0 * rng.standard_normal((6, 4)))
        assert stack.tangents is tangents

    @pytest.mark.usefixtures("screen_every_stack")
    @pytest.mark.parametrize("kind", ["kkt", "fused"])
    def test_never_anchors(self, kind, monkeypatch):
        # Each call's tile is thrown away after it, and its rows are not one
        # shared point, so images builds no anchors, not even for interior
        # points (the small ones), nor do the checks that go through it.
        rng = np.random.default_rng(44)
        op, _ = operator_of_kind(kind, rng, 4)
        anchors = []
        anchor = EllipsoidStack.anchor
        monkeypatch.setattr(EllipsoidStack, "anchor",
                            lambda stack, *args: anchors.append(len(stack)) or anchor(stack, *args))
        for scale in (0.01, 1.0, 10.0):
            images(op, scale * rng.standard_normal((6, 4)))
        x, y = 0.01 * rng.standard_normal((2, 4))
        firm_nonexpansiveness_slack(op, x, y)
        gradient_check(op, x)
        idempotence_violation_search(op, [x, y])
        assert anchors == []
        op(np.zeros(4))   # a shared call at an interior point anchors
        assert anchors

    @pytest.mark.parametrize("kind", ["kkt", "fused", "ball"])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_row_raises(self, kind):
        rng = np.random.default_rng(43)
        op, _ = operator_of_kind(kind, rng, 3)
        points = rng.standard_normal((4, 3))
        points[2, 1] = np.nan
        if kind == "ball":
            # No root-find: the NaN row comes back as the loop gives it.
            assert_same_bits(images(op, points), np.stack([op(x) for x in points]))
            return
        with pytest.raises(RootNotBracketed, match="non-finite"):
            images(op, points)

    @pytest.mark.parametrize("kind", ["kkt", "fused", "unfused", "ball"])
    def test_shape_mismatch_raises(self, kind):
        rng = np.random.default_rng(44)
        op, _ = operator_of_kind(kind, rng, 3)
        with pytest.raises(DimensionMismatch):
            images(op, np.zeros((4, 2)))
        with pytest.raises(DimensionMismatch):
            images(op, np.zeros((2, 4, 3)))

    def test_no_points_rejected(self):
        with pytest.raises(ValueError):
            images(Identity(2), np.zeros((0, 2)))


# Per-point reference implementations of the checks: one operator call per
# point, as the checks were written before they evaluated through images().


def reference_slack(operator, x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d = np.asarray(operator(x), dtype=float) - np.asarray(operator(y), dtype=float)
    return float(np.vdot(d, x - y) - np.vdot(d, d))


def reference_deviation(projection, shift, weight, samples):
    shifted = translate(projection, shift)
    target = translate(projection, weight * np.asarray(shift, dtype=float))
    worst = 0.0
    for x in samples:
        x = np.asarray(x, dtype=float)
        mix = (1.0 - weight) * projection(x) + weight * shifted(x)
        worst = max(worst, float(np.linalg.norm(mix - target(x))))
    return worst


def reference_idempotence(operator, samples):
    worst = 0.0
    for x in samples:
        tx = np.asarray(operator(np.asarray(x, dtype=float)), dtype=float)
        worst = max(worst, float(np.linalg.norm(operator(tx) - tx)))
    return worst


def reference_gradient(projection, x, h=1e-5):
    x = np.asarray(x, dtype=float)
    analytic = 2.0 * (x - np.asarray(projection(x), dtype=float))

    def dist_sq(u):
        d = u - np.asarray(projection(u), dtype=float)
        return float(d @ d)

    fd = np.zeros_like(x)
    for i in range(x.shape[0]):
        e = np.zeros_like(x)
        e[i] = h
        fd[i] = (dist_sq(x + e) - dist_sq(x - e)) / (2.0 * h)
    return float(np.linalg.norm(fd - analytic) / (1.0 + np.linalg.norm(analytic)))


def assert_same_float(got, want):
    assert np.float64(got).tobytes() == np.float64(want).tobytes(), (got, want)


class TestChecksMatchPerPointReferences:
    """The checks evaluate through images() and return the per-point bits."""

    @pytest.mark.parametrize("n", [1, 2, 7, 50])
    @pytest.mark.parametrize("kind", ["kkt", "fused", "unfused", "ball",
                                      "halfspace", "affine", "composition"])
    def test_all_four_checks(self, kind, n):
        rng = np.random.default_rng([n, IMAGE_KINDS.index(kind)])
        op, _ = operator_of_kind(kind, rng, n)
        for scale in (0.01, 1.0, 30.0):
            x, y = scale * rng.standard_normal((2, n))
            samples = scale * rng.standard_normal((6, n))
            assert_same_float(gradient_check(op, x), reference_gradient(op, x))
            assert_same_float(gradient_check(op, x, h=1e-3), reference_gradient(op, x, h=1e-3))
            assert_same_float(firm_nonexpansiveness_slack(op, x, y), reference_slack(op, x, y))
            assert_same_float(idempotence_violation_search(op, samples),
                              reference_idempotence(op, samples))
            if kind != "composition":
                shift = 0.1 * rng.standard_normal(n)
                assert_same_float(translated_projection_deviation(op, shift, 0.3, samples),
                                  reference_deviation(op, shift, 0.3, samples))

    def test_generated_combinations_at_n50(self):
        # The benchmark's check workload: members and combinations of a
        # generated instance, at points outside every set.
        inst = gen_instance(InstanceSpec(n=50, p=4, seed=9))
        rng = np.random.default_rng(45)
        for op in list(inst.operators) + [m for c in inst.operators for m in c.operators]:
            x, y = 30.0 * rng.standard_normal((2, 50))
            assert_same_float(gradient_check(op, x), reference_gradient(op, x))
            assert_same_float(firm_nonexpansiveness_slack(op, x, y), reference_slack(op, x, y))

    def test_samples_may_be_a_generator(self):
        rng = np.random.default_rng(46)
        op, _ = operator_of_kind("fused", rng, 3)
        samples = 5.0 * rng.standard_normal((4, 3))
        assert_same_float(idempotence_violation_search(op, (x for x in samples)),
                          reference_idempotence(op, samples))
        ball = BallProjection(np.zeros(3), 1.0)
        shift = np.array([0.5, 0.0, 0.0])
        assert_same_float(
            translated_projection_deviation(ball, shift, 0.5, (list(x) for x in samples)),
            reference_deviation(ball, shift, 0.5, samples),
        )

    def test_empty_samples_rejected_by_both(self):
        with pytest.raises(ValueError, match="at least one sample"):
            idempotence_violation_search(lower_halfplane(), iter(()))
        with pytest.raises(ValueError, match="at least one sample"):
            translated_projection_deviation(x_axis(), np.ones(2), 0.5, [])
        with pytest.raises(ValueError, match="at least one sample"):
            translated_projection_deviation(x_axis(), np.ones(2), 0.5, iter(()))
