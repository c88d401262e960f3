"""Seeded random instances with a certified common fixed point at 0."""
import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crmfp import (
    CannotExitSets,
    ConvexCombination,
    Ellipsoid,
    EllipsoidProjection,
    FppInstance,
    InstanceSpec,
    firm_nonexpansiveness_slack,
    fixed_point_residual,
    gen_ellipsoid,
    gen_instance,
    gen_operator,
    initial_point,
    load_instance,
    save_instance,
)
from crmfp.instance_gen import instance_from_dict, instance_to_dict

DATA = pathlib.Path(__file__).parent / "data"


class TestInstanceSpec:
    def test_density_defaults_to_two_over_n(self):
        assert InstanceSpec(n=10, p=2, seed=0).density == pytest.approx(0.2)
        assert InstanceSpec(n=1, p=1, seed=0).density == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            InstanceSpec(n=0, p=1, seed=0)
        with pytest.raises(ValueError):
            InstanceSpec(n=2, p=0, seed=0)
        with pytest.raises(ValueError):
            InstanceSpec(n=2, p=1, seed=-1)
        with pytest.raises(ValueError):
            InstanceSpec(n=2, p=1, seed=0, gamma=0.0)
        with pytest.raises(ValueError):
            InstanceSpec(n=2, p=1, seed=0, density=1.5)
        with pytest.raises(ValueError):
            InstanceSpec(n=2, p=1, seed=0, r_range=())
        with pytest.raises(ValueError):
            InstanceSpec(n=2, p=1, seed=0, eta=1.0)

    def test_dict_round_trip(self):
        spec = InstanceSpec(n=6, p=3, seed=42, gamma=2.0, r_range=(2, 4), eta=-3.0)
        assert InstanceSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("field, value", [("n", 2.5), ("p", 2.0), ("seed", 1.5), ("n", "3")])
    def test_non_integral_counts_and_seed_rejected(self, field, value):
        # The spec itself rejects them, not numpy deep in generation.
        with pytest.raises(TypeError):
            InstanceSpec(**{"n": 2, "p": 2, "seed": 1, field: value})

    @pytest.mark.parametrize("r_range", [(2.5, 3.9), (3, 4.0), (True, 3), ("3",)])
    def test_non_integral_member_counts_rejected(self, r_range):
        # Neither truncated ((2.5, 3.9) used to become (2, 3)) nor kept.
        with pytest.raises(TypeError):
            InstanceSpec(n=3, p=2, seed=1, r_range=r_range)

    @pytest.mark.parametrize("field", ["n", "p", "seed"])
    def test_bools_rejected(self, field):
        # True is not a count of 1.
        with pytest.raises(TypeError, match="bool"):
            InstanceSpec(**{"n": 2, "p": 2, "seed": 1, field: True})

    @pytest.mark.parametrize("field, value", [
        ("n", 2.5), ("p", 2.0), ("seed", "7"), ("n", True), ("r_range", [2.7]),
        ("r_range", [3, 4.5]),
    ])
    def test_from_dict_runs_the_constructors_check(self, field, value):
        # A JSON instance file with "n": 2.5 used to load as n = 2.
        data = {**InstanceSpec(n=3, p=2, seed=1).to_dict(), field: value}
        with pytest.raises(ValueError, match=f"^{field} must be "):
            InstanceSpec.from_dict(data)

    def test_numpy_numbers_round_trip_as_python_numbers(self, tmp_path):
        # gamma used to stay np.float64, and gamma=True to be written as true.
        spec = InstanceSpec(n=np.int64(3), p=2, seed=1, gamma=np.float64(2.0))
        plain = InstanceSpec(n=3, p=2, seed=1, gamma=2.0)
        assert spec.to_dict() == plain.to_dict()
        assert [type(v) for v in spec.to_dict().values()] == [
            type(v) for v in plain.to_dict().values()]
        assert InstanceSpec.from_dict(spec.to_dict()) == spec
        for name, s in (("numpy.json", spec), ("plain.json", plain)):
            save_instance(gen_instance(s, decomposed=False), tmp_path / name)
        assert (tmp_path / "numpy.json").read_bytes() == (tmp_path / "plain.json").read_bytes()

    def test_numpy_integers_stored_as_int(self):
        spec = InstanceSpec(n=np.int64(3), p=np.uint8(2), seed=np.uint64(2**63 + 5))
        assert (spec.n, spec.p, spec.seed) == (3, 2, 2**63 + 5)
        assert all(type(v) is int for v in (spec.n, spec.p, spec.seed))
        assert spec == InstanceSpec(n=3, p=2, seed=2**63 + 5)


class TestGenEllipsoid:
    def test_origin_strictly_interior(self):
        rng = np.random.default_rng(1)
        for n in (1, 5, 40):
            e = gen_ellipsoid(n, rng)
            assert e.g(np.zeros(n)) == -e.alpha
            assert e.alpha > 0

    def test_regularization_floor(self):
        for gamma in (0.5, 1.0, 3.0):
            e = gen_ellipsoid(12, np.random.default_rng(4), gamma=gamma)
            assert np.linalg.eigvalsh(e.A).min() >= gamma - 1e-9

    def test_deterministic(self):
        a = gen_ellipsoid(8, np.random.default_rng(99))
        b = gen_ellipsoid(8, np.random.default_rng(99))
        np.testing.assert_array_equal(a.A, b.A)
        np.testing.assert_array_equal(a.b, b.b)
        assert a.alpha == b.alpha

    def test_density_controls_sparsity(self):
        dense = gen_ellipsoid(60, np.random.default_rng(7), density=1.0)
        sparse = gen_ellipsoid(60, np.random.default_rng(7), density=0.02)
        off_diag = ~np.eye(60, dtype=bool)
        assert np.count_nonzero(sparse.A[off_diag]) < np.count_nonzero(dense.A[off_diag])

    @pytest.mark.parametrize("field, value", [
        ("density", np.nan), ("density", np.inf), ("density", 0.0), ("density", 5.0),
        ("gamma", -1.0), ("gamma", 0.0), ("gamma", np.nan), ("gamma", np.inf),
    ])
    def test_rejects_what_instance_spec_rejects_before_drawing(self, field, value):
        with pytest.raises(ValueError) as spec_error:
            InstanceSpec(n=3, p=1, seed=0, **{field: value})
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        with pytest.raises(ValueError) as error:
            gen_ellipsoid(3, rng, **{field: value})
        assert str(error.value) == str(spec_error.value)
        assert rng.bit_generator.state == state   # nothing was drawn

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([1, 2, 10, 50]), st.integers(0, 2**32 - 1),
           st.sampled_from([0.5, 1.0, 3.0]), st.sampled_from([None, 0.02, 0.3, 1.0]))
    def test_bits_of_the_dense_textbook_form(self, n, seed, gamma, density):
        got = gen_ellipsoid(n, np.random.default_rng(seed), gamma, density)
        want = textbook_ellipsoid(n, np.random.default_rng(seed), gamma,
                                  min(1.0, 2.0 / n) if density is None else density)
        assert got.A.tobytes() == want.A.tobytes()
        assert got.b.tobytes() == want.b.tobytes() and got.alpha == want.alpha

    @pytest.mark.parametrize("n", [2, 5, 50])
    @pytest.mark.parametrize("rows", [slice(None), slice(0, 1)], ids=["column", "entry"])
    def test_signed_zeros_of_the_dense_textbook_form(self, n, rows):
        # B is zero but for negative entries in column 0 (all rows, or row 0
        # alone), so every off-diagonal entry of B'B in row and column 0 is
        # a sum of products 0 * negative = -0.0 (with +0.0 products from the
        # other rows), where adding gamma I would turn a -0.0 sum into +0.0.
        # tobytes tells the two zeros apart.
        mask = np.zeros((n, n), dtype=bool)
        mask[rows, 0] = True
        draws = (np.where(mask, 0.0, 0.9), -1.0 - np.arange(n * n), np.linspace(0.1, 0.9, n))
        got = gen_ellipsoid(n, Draws(*draws), 1.0, 0.5)
        want = textbook_ellipsoid(n, Draws(*draws), 1.0, 0.5)
        assert got.A.tobytes() == want.A.tobytes() and got.alpha == want.alpha


class Draws:
    """A stand-in for a Generator that returns given arrays in turn,
    reshaped to the size asked for."""

    def __init__(self, *arrays):
        self.arrays = list(arrays)

    def random(self, size):
        return np.asarray(self.arrays.pop(0), dtype=float).reshape(size)

    standard_normal = random


def textbook_ellipsoid(n, rng, gamma, density):
    """gen_ellipsoid's formula in dense form: B from np.where, gamma I from
    np.eye, then symmetrised."""
    mask = rng.random((n, n)) < density
    B = np.where(mask, rng.standard_normal((n, n)), 0.0)
    A = gamma * np.eye(n) + B.T @ B
    A = 0.5 * (A + A.T)
    b = rng.random(n)
    return Ellipsoid(A, b, float(b @ A @ b) + 1.0)


class TestGenOperator:
    def spec(self):
        return InstanceSpec(n=5, p=1, seed=3)

    def test_weights_normalized(self):
        rng = np.random.default_rng(3)
        op = gen_operator(5, rng, self.spec())
        assert op.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert (op.weights > 0).all()
        assert len(op.operators) in (3, 4, 5)

    def test_fixes_origin(self):
        rng = np.random.default_rng(5)
        op = gen_operator(5, rng, self.spec())
        assert fixed_point_residual(op, np.zeros(5)) <= 1e-8

    def test_firmly_nonexpansive_sampling(self):
        rng = np.random.default_rng(8)
        op = gen_operator(5, rng, self.spec())
        for _ in range(100):
            x = rng.standard_normal(5) * 3
            y = rng.standard_normal(5) * 3
            assert firm_nonexpansiveness_slack(op, x, y) >= -1e-8


class TestGenInstance:
    def test_shape_and_certificate(self):
        inst = gen_instance(InstanceSpec(n=6, p=4, seed=13))
        assert len(inst.operators) == 4
        np.testing.assert_array_equal(inst.fixed_point, np.zeros(6))
        worst = max(
            fixed_point_residual(op, np.zeros(6)) for op in inst.operators
        )
        assert worst <= 1e-8

    def test_deterministic_serialization(self):
        spec = InstanceSpec(n=4, p=3, seed=77)
        a = instance_to_dict(gen_instance(spec))
        b = instance_to_dict(gen_instance(spec))
        assert a == b

    def test_single_operator_instance(self):
        inst = gen_instance(InstanceSpec(n=3, p=1, seed=2))
        assert len(inst.operators) == 1

    def test_distinct_seeds_differ(self):
        a = instance_to_dict(gen_instance(InstanceSpec(n=3, p=1, seed=1)))
        b = instance_to_dict(gen_instance(InstanceSpec(n=3, p=1, seed=2)))
        assert a != b

    def test_generation_and_loading_decompose_in_operator_order(self):
        spec = InstanceSpec(n=5, p=4, seed=3)
        for inst in (gen_instance(spec), instance_from_dict(instance_to_dict(gen_instance(spec)))):
            members = [m.ellipsoid for op in inst.operators for m in op.operators]
            rot = members[0]._eig[1].base
            assert len(rot) == len(members)
            for j, e in enumerate(members):
                assert e._eig[1].ctypes.data == rot[j].ctypes.data
                assert e._eig[1].tobytes() == np.linalg.eigh(e.A)[1].tobytes()
        bare = gen_instance(spec, decomposed=False)
        assert all(m.ellipsoid._eig is None for op in bare.operators for m in op.operators)
        assert instance_to_dict(bare) == instance_to_dict(inst)

    def test_loading_an_indefinite_member_raises(self):
        data = instance_to_dict(gen_instance(InstanceSpec(n=2, p=2, seed=4)))
        data["operators"][1]["ellipsoids"][0]["A"] = [1.0, 0.0, 0.0, -1.0]
        with pytest.raises(ValueError, match="A is not positive definite"):
            instance_from_dict(data)


class TestInitialPoint:
    def test_constant_exterior_start(self):
        inst = gen_instance(InstanceSpec(n=4, p=3, seed=10))
        x0 = initial_point(inst)
        np.testing.assert_array_equal(x0, np.full(4, -5.0))
        for op in inst.operators:
            for proj in op.operators:
                assert proj.ellipsoid.g(x0) > 0

    def one_set_instance(self, alpha):
        spec = InstanceSpec(n=2, p=1, seed=0)
        e = Ellipsoid(np.eye(2), np.zeros(2), alpha)
        op = ConvexCombination([EllipsoidProjection(e)], [1.0])
        return FppInstance(spec=spec, operators=[op], fixed_point=np.zeros(2))

    def test_doubles_until_outside(self):
        # radius ~7.75 swallows (-5,-5) but not (-10,-10)
        inst = self.one_set_instance(alpha=60.0)
        np.testing.assert_array_equal(initial_point(inst), np.full(2, -10.0))

    def test_gives_up_after_doublings(self):
        inst = self.one_set_instance(alpha=1e9)
        with pytest.raises(CannotExitSets):
            initial_point(inst)


class TestSerialization:
    def test_save_load_round_trip(self, tmp_path):
        inst = gen_instance(InstanceSpec(n=4, p=2, seed=5))
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        back = load_instance(path)
        assert back.spec == inst.spec
        for a, b in zip(back.operators, inst.operators):
            np.testing.assert_array_equal(a.weights, b.weights)
            for pa, pb in zip(a.operators, b.operators):
                np.testing.assert_array_equal(pa.ellipsoid.A, pb.ellipsoid.A)
                np.testing.assert_array_equal(pa.ellipsoid.b, pb.ellipsoid.b)
                assert pa.ellipsoid.alpha == pb.ellipsoid.alpha

    def test_round_trip_through_dict(self):
        inst = gen_instance(InstanceSpec(n=3, p=2, seed=8))
        back = instance_from_dict(instance_to_dict(inst))
        assert instance_to_dict(back) == instance_to_dict(inst)

    def test_golden_instance_bytes(self, tmp_path):
        # Regenerating the frozen instance must reproduce the stored file
        # byte for byte (stable RNG stream and field order).
        golden = DATA / "instance_n3_p2_seed7.json"
        inst = gen_instance(InstanceSpec(n=3, p=2, seed=7))
        fresh = tmp_path / "fresh.json"
        save_instance(inst, fresh)
        assert fresh.read_bytes() == golden.read_bytes()

    def test_golden_loads_and_certifies(self):
        inst = load_instance(DATA / "instance_n3_p2_seed7.json")
        assert inst.spec.n == 3 and inst.spec.p == 2
        worst = max(
            fixed_point_residual(op, np.zeros(3)) for op in inst.operators
        )
        assert worst <= 1e-8
