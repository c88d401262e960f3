"""Lifting many operators into one block operator over the diagonal."""
import numpy as np
import pytest
from hypothesis import given, settings
from test_operators import assert_matches_member_loop, operator_lists

from crmfp import (
    BlockCountMismatch,
    BlockOperator,
    DiagonalSubspace,
    DimensionMismatch,
    HalfspaceProjection,
    Identity,
    NotDiagonal,
    diag_project,
    embed,
    extract,
    firm_nonexpansiveness_slack,
    gen_ellipsoid,
    EllipsoidProjection,
    InstanceSpec,
    gen_instance,
    ppm_step,
)
from crmfp.ellipsoid import EllipsoidStack


def two_halfspaces():
    return [
        HalfspaceProjection(np.array([1.0, 0.0]), 0.0),
        HalfspaceProjection(np.array([0.0, 1.0]), 0.0),
    ]


class TestLiftApply:
    def test_blockwise_example(self):
        x = np.array([[2.0, 2.0], [2.0, 2.0]])
        out = BlockOperator(two_halfspaces())(x)
        np.testing.assert_allclose(out, [[0.0, 2.0], [2.0, 0.0]])

    def test_single_block_reduces_to_apply(self):
        op = two_halfspaces()[0]
        x = np.array([[3.0, 1.0]])
        np.testing.assert_array_equal(BlockOperator([op])(x)[0], op(np.array([3.0, 1.0])))

    def test_identities_leave_input(self):
        x = np.arange(6.0).reshape(3, 2)
        out = BlockOperator([Identity(2)] * 3)(x)
        np.testing.assert_array_equal(out, x)

    def test_block_count_checked(self):
        with pytest.raises(BlockCountMismatch):
            BlockOperator(two_halfspaces())(np.zeros((3, 2)))

    def test_block_dim_checked(self):
        with pytest.raises(DimensionMismatch):
            BlockOperator(two_halfspaces())(np.zeros((2, 3)))


class TestDiagProject:
    def test_mean_example(self):
        out = diag_project(np.array([[0.0, 2.0], [2.0, 0.0]]))
        np.testing.assert_allclose(out, [[1.0, 1.0], [1.0, 1.0]])

    def test_idempotent_on_diagonal(self):
        x = embed(np.array([3.0, -1.0]), 4)
        np.testing.assert_array_equal(diag_project(x), x)

    def test_single_block_unchanged(self):
        x = np.array([[5.0, 7.0]])
        np.testing.assert_array_equal(diag_project(x), x)

    def test_subspace_object_matches(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 3))
        sub = DiagonalSubspace(3, 4)
        np.testing.assert_array_equal(sub.project(x), diag_project(x))


class TestEmbedExtract:
    def test_round_trip(self):
        rng = np.random.default_rng(9)
        for m in (1, 2, 7):
            x = rng.standard_normal(5)
            np.testing.assert_array_equal(extract(embed(x, m)), x)

    def test_extract_diagonal(self):
        np.testing.assert_array_equal(
            extract(np.array([[1.0, 1.0], [1.0, 1.0]])), [1.0, 1.0]
        )

    def test_extract_rejects_off_diagonal(self):
        with pytest.raises(NotDiagonal):
            extract(np.array([[0.0, 2.0], [2.0, 0.0]]), tol=1e-9)

    def test_embed_count_validated(self):
        with pytest.raises(ValueError):
            embed(np.zeros(2), 0)

    @pytest.mark.parametrize("function", [extract, diag_project])
    def test_zero_blocks_rejected(self, function):
        # As embed rejects a count of 0, not with an IndexError from the
        # diagonal test.
        with pytest.raises(ValueError, match="need at least one block"):
            function(np.zeros((0, 3)))


class TestPierraEquivalence:
    def test_lift_project_extract_is_simultaneous_step(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            p = int(rng.integers(1, 6))
            ops = [EllipsoidProjection(gen_ellipsoid(4, rng)) for _ in range(p)]
            x = rng.standard_normal(4) * 3
            lifted = extract(
                diag_project(BlockOperator(ops)(embed(x, p))), tol=np.inf
            )
            direct = ppm_step(ops, x)
            assert np.linalg.norm(lifted - direct) <= 1e-12


class TestLiftedFirmNonexpansiveness:
    def test_diag_projection_slack(self):
        rng = np.random.default_rng(17)
        sub = DiagonalSubspace(3, 5)

        class AsOperator:
            dim = 15

            def __call__(self, flat):
                return sub.project(flat.reshape(5, 3)).ravel()

        op = AsOperator()
        for _ in range(100):
            x = rng.standard_normal(15)
            y = rng.standard_normal(15)
            assert firm_nonexpansiveness_slack(op, x, y) >= -1e-12

    def test_block_operator_slack(self):
        rng = np.random.default_rng(19)
        ops = [EllipsoidProjection(gen_ellipsoid(3, rng)) for _ in range(5)]
        block = BlockOperator(ops)

        class AsOperator:
            dim = 15

            def __call__(self, flat):
                return block(flat.reshape(5, 3)).ravel()

        op = AsOperator()
        for _ in range(100):
            x = rng.standard_normal(15) * 2
            y = rng.standard_normal(15) * 2
            assert firm_nonexpansiveness_slack(op, x, y) >= -1e-10


class TestBlockOperator:
    def test_matches_the_per_operator_loop(self):
        rng = np.random.default_rng(23)
        ops = [EllipsoidProjection(gen_ellipsoid(3, rng)) for _ in range(4)]
        block = BlockOperator(ops)
        x = rng.standard_normal((4, 3))
        np.testing.assert_array_equal(block(x), np.stack([op(r) for op, r in zip(ops, x)]))

    def test_empty_rejected(self):
        from crmfp import EmptyOperatorList

        with pytest.raises(EmptyOperatorList):
            BlockOperator([])

    def test_mixed_dims_rejected(self):
        with pytest.raises(DimensionMismatch):
            BlockOperator([Identity(2), Identity(3)])

    @settings(max_examples=100, deadline=None)
    @given(operator_lists())
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_matches_member_loop_bitwise(self, case):
        ops, points = case
        block = BlockOperator(ops)
        diagonal = embed(points[0], len(ops))
        per_row = block(points)
        on_diagonal = block(diagonal)
        # The repeated-row path of the plan, for the same diagonal input.
        np.testing.assert_array_equal(on_diagonal, block.plan(diagonal))
        for i, op in enumerate(ops):
            np.testing.assert_array_equal(per_row[i], op(points[i]))
            np.testing.assert_array_equal(on_diagonal[i], op(points[0]))
            assert_matches_member_loop(per_row[i], op, points[i])
            assert_matches_member_loop(on_diagonal[i], op, points[0])

    def test_one_stack_of_all_member_rows(self, monkeypatch):
        inst = gen_instance(InstanceSpec(n=4, p=3, seed=9))
        calls = []
        original = EllipsoidStack.concatenate.__func__

        def counting(cls, stacks):
            calls.append(len(stacks))
            return original(cls, stacks)

        monkeypatch.setattr(EllipsoidStack, "concatenate", classmethod(counting))
        block = BlockOperator(inst.operators)
        x = embed(np.full(4, 3.0), 3)
        for _ in range(5):
            x = diag_project(block(x))
        assert calls == []
        members = [m.ellipsoid for op in inst.operators for m in op.operators]
        assert len(block.plan.stack) == len(members)
        for j, e in enumerate(members):
            assert e.eig()[1].tobytes() == block.plan.stack.rot[j].tobytes()
        assert all("plan" not in vars(op) for op in inst.operators)

    def test_diagonal_iterates_take_the_shared_path(self, monkeypatch):
        inst = gen_instance(InstanceSpec(n=4, p=3, seed=10))
        block = BlockOperator(inst.operators)
        x = embed(np.full(4, 2.0), 3)
        expected = block.plan(x)
        seen = []
        plan_call = type(block.plan).__call__

        def spy(plan, points):
            seen.append(np.ndim(points))
            return plan_call(plan, points)

        monkeypatch.setattr(type(block.plan), "__call__", spy)
        np.testing.assert_array_equal(block(x), expected)
        assert seen == [1]


class TestSignOfZero:
    """A lifted point is diagonal when its rows have the same bytes, so
    -0.0 and +0.0 differ."""

    def test_block_operator_keeps_each_rows_bytes(self):
        rng = np.random.default_rng(3)
        ops = [EllipsoidProjection(gen_ellipsoid(2, rng)) for _ in range(2)]
        x = np.array([[0.0, 1.0], [-0.0, 1.0]])
        loop = np.stack([op(row) for op, row in zip(ops, x)])
        assert np.signbit(loop[1, 0])   # row 1 is interior and keeps its -0.0
        assert BlockOperator(ops)(x).tobytes() == loop.tobytes()

    def test_diag_project_is_diagonal(self):
        out = diag_project(np.array([[0.0, 1.0], [-0.0, 1.0]]))
        assert out.tobytes() == embed(np.array([0.0, 1.0]), 2).tobytes()

    def test_extract(self):
        # Not diagonal: the mean, where -0.0 + 0.0 is +0.0.
        out = extract(np.array([[-0.0, 1.0], [0.0, 1.0]]))
        assert out.tobytes() == np.array([0.0, 1.0]).tobytes()
        # Diagonal: row 0's bytes, -0.0 included.
        out = extract(embed(np.array([-0.0, 1.0]), 3))
        assert out.tobytes() == np.array([-0.0, 1.0]).tobytes()
