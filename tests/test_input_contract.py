"""One input rule for every public entry (crmfp.errors).

Python and numpy integers are stored as int and Python and numpy reals as
float; a bool (Python's or numpy's), a numeric string or an array where a
number belongs raises TypeError; a value out of range, NaN or +-inf raises
ValueError, or the subclass the entry documents; nothing is truncated.  A
vector is read by numpy as one array: its dtype must be integer or real,
and it must be one-dimensional, non-empty and finite.  Loaders raise every
rejection as a ValueError, and the command line exits with status 2.

One table-driven property draws every field's value from one strategy and
checks it against that rule, restated here as an oracle.
"""
import contextlib
import copy
import io
import math
import numbers

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crmfp import (
    AdmmConfig,
    AffineSubspace,
    BallProjection,
    BlockOperator,
    Composition,
    ConvexCombination,
    DiagonalSubspace,
    DimensionMismatch,
    Ellipsoid,
    EmptyOperatorList,
    GridConfig,
    HalfspaceProjection,
    Identity,
    InstanceSpec,
    InvalidWeight,
    SolverConfig,
    embed,
    extract,
    fixed_set_witness_check,
    gen_ellipsoid,
    gen_instance,
    gradient_check,
    project_kkt,
    run,
    run_experiment,
    save_instance,
    translated_projection_deviation,
)
from crmfp.cli import main
from crmfp.instance_gen import instance_from_dict, instance_to_dict
from crmfp.operators import EvaluationPlan

HOSTILE = st.sampled_from([
    math.nan, math.inf, -math.inf, -0.0, 2.5, True, False, np.True_, "1", np.int64(3),
    np.float64(2.0), np.array(2.0), np.array(3), -3, 0, 1, 2, np.ones(1), np.ones(2),
    np.ones((1, 2)), np.ones((2, 2)),
])


def _is_number(value, kind) -> bool:
    return isinstance(value, kind) and not isinstance(value, (bool, np.bool_))


def a_count(floor):
    def expect(value):
        if not _is_number(value, numbers.Integral):
            return TypeError
        return int(value) if value >= floor else ValueError
    return expect


def counts_of(floor):
    """A sequence of at least one count, read entry by entry."""
    def expect(value):
        if not np.iterable(value):
            return TypeError
        entries = [a_count(floor)(v) for v in value]
        for entry in entries:
            if isinstance(entry, type):
                return entry
        return tuple(entries) if entries else ValueError
    return expect


def one_count(floor):
    """The value as the one entry of a sequence of counts."""
    def expect(value):
        entry = a_count(floor)(value)
        return entry if isinstance(entry, type) else (entry,)
    return expect


def a_real(inside, error=ValueError):
    def expect(value):
        if not _is_number(value, numbers.Real):
            return TypeError
        return float(value) if inside(float(value)) else error
    return expect


def a_vector(inside, error=ValueError):
    def expect(value):
        array = np.asarray(value)
        if array.dtype.kind not in "iuf":
            return TypeError
        if array.ndim != 1 or not len(array) or not np.isfinite(array).all():
            return ValueError
        return array.astype(float) if inside(array) else error
    return expect


def a_symmetric_matrix(value):
    """A 2 x 2 matrix, read by the dtype rule of a vector."""
    array = np.asarray(value)
    if array.dtype.kind not in "iuf":
        return TypeError
    if array.shape != (2, 2) or not np.isfinite(array).all() or (array != array.T).any():
        return ValueError
    return array.astype(float)


def operators_of_dims(value):
    """[Identity(2), Identity(value)]: Identity's own rule, then one dimension."""
    dim = a_count(1)(value)
    if isinstance(dim, type):
        return dim
    return (2, dim) if dim == 2 else DimensionMismatch


positive = a_real(lambda v: 0.0 < v < math.inf)
mix_weight = a_real(lambda v: 0.0 < v < 1.0, InvalidWeight)
any_vector = a_vector(lambda a: True)


def as_loaded(expect):
    """A loader's rule: the constructor's, every rejection a ValueError."""
    def loaded(value):
        want = expect(value)
        return ValueError if isinstance(want, type) else want
    return loaded


def spec_with(**fields):
    return InstanceSpec(**{"n": 2, "p": 2, "seed": 1, **fields})


def grid_with(**fields):
    return GridConfig(**{"n_values": (2,), "p_values": (2,), "replicates": 1,
                         "max_iterations": 2, **fields})


_SPEC = spec_with()
_INSTANCE = instance_to_dict(gen_instance(_SPEC, decomposed=False))


def load_with(where, value):
    """instance_from_dict of the stored instance with one field replaced."""
    data = copy.deepcopy(_INSTANCE)
    *path, key = where
    node = data
    for step in path:
        node = node[step]
    node[key] = value
    return instance_from_dict(data)


def _ball():
    return BallProjection([0.0, 0.0], 1.0)


# (entry, build from the drawn value, read the stored value back or None
# when nothing is stored, expected value or error class of a drawn value)
TABLE = [
    ("Identity.dim", Identity, lambda o: o.dim, a_count(1)),
    ("HalfspaceProjection.normal", lambda v: HalfspaceProjection(v, 0.5), lambda o: o.normal,
     a_vector(lambda a: a.any())),
    ("HalfspaceProjection.offset", lambda v: HalfspaceProjection([1.0, 0.0], v),
     lambda o: o.offset, a_real(math.isfinite)),
    ("AffineSubspace.anchor", lambda v: AffineSubspace(v, [[1.0, 0.0]]), lambda o: o.anchor,
     a_vector(lambda a: a.shape == (2,))),
    ("BallProjection.center", lambda v: BallProjection(v, 1.0), lambda o: o.center, any_vector),
    ("BallProjection.radius", lambda v: BallProjection([0.0], v), lambda o: o.radius, positive),
    ("ConvexCombination.weights", lambda v: ConvexCombination([Identity(1)], v),
     lambda o: o.weights, a_vector(lambda a: a.shape == (1,) and a[0] == 1.0, InvalidWeight)),
    ("ConvexCombination.operators",
     lambda v: ConvexCombination([Identity(2), Identity(v)], [0.5, 0.5]),
     lambda o: (o.operators[0].dim, o.operators[1].dim), operators_of_dims),
    ("Composition.operators", lambda v: Composition([Identity(2), Identity(v)]),
     lambda o: (o.operators[0].dim, o.operators[1].dim), operators_of_dims),
    ("EvaluationPlan.operators", lambda v: EvaluationPlan([Identity(2), Identity(v)]),
     lambda o: (o.operators[0].dim, o.operators[1].dim), operators_of_dims),
    ("BlockOperator.operators", lambda v: BlockOperator([Identity(2), Identity(v)]),
     lambda o: (o.operators[0].dim, o.operators[1].dim), operators_of_dims),
    ("run.operators", lambda v: run("ppm", [Identity(2), Identity(v)], np.zeros(2)),
     lambda trace: (2, len(trace.final_point)), operators_of_dims),
    ("Ellipsoid.A", lambda v: Ellipsoid(v, np.zeros(2), 1.0), lambda o: o.A, a_symmetric_matrix),
    ("Ellipsoid.b", lambda v: Ellipsoid(np.eye(2), v, 1.0), lambda o: o.b,
     a_vector(lambda a: a.shape == (2,))),
    ("Ellipsoid.alpha", lambda v: Ellipsoid(np.eye(2), np.zeros(2), v), lambda o: o.alpha,
     positive),
    ("AdmmConfig.tolerance", lambda v: AdmmConfig(tolerance=v), lambda o: o.tolerance, positive),
    ("AdmmConfig.max_iterations", lambda v: AdmmConfig(max_iterations=v),
     lambda o: o.max_iterations, a_count(1)),
    ("AdmmConfig.penalty", lambda v: AdmmConfig(penalty=v), lambda o: o.penalty, positive),
    ("SolverConfig.tolerance", lambda v: SolverConfig(tolerance=v), lambda o: o.tolerance,
     positive),
    ("SolverConfig.max_iterations", lambda v: SolverConfig(max_iterations=v),
     lambda o: o.max_iterations, a_count(1)),
    ("GridConfig.n_values", lambda v: grid_with(n_values=v), lambda o: o.n_values, counts_of(1)),
    ("GridConfig.n_values entry", lambda v: grid_with(n_values=(v,)), lambda o: o.n_values,
     one_count(1)),
    ("GridConfig.p_values entry", lambda v: grid_with(p_values=[v]), lambda o: o.p_values,
     one_count(1)),
    ("GridConfig.replicates", lambda v: grid_with(replicates=v), lambda o: o.replicates,
     a_count(1)),
    ("GridConfig.master_seed", lambda v: grid_with(master_seed=v), lambda o: o.master_seed,
     a_count(0)),
    ("GridConfig.tolerance", lambda v: grid_with(tolerance=v), lambda o: o.tolerance, positive),
    ("GridConfig.max_iterations", lambda v: grid_with(max_iterations=v),
     lambda o: o.max_iterations, a_count(1)),
    ("InstanceSpec.n", lambda v: spec_with(n=v), lambda o: o.n, a_count(1)),
    ("InstanceSpec.p", lambda v: spec_with(p=v), lambda o: o.p, a_count(1)),
    ("InstanceSpec.seed", lambda v: spec_with(seed=v), lambda o: o.seed, a_count(0)),
    ("InstanceSpec.gamma", lambda v: spec_with(gamma=v), lambda o: o.gamma, positive),
    ("InstanceSpec.density", lambda v: spec_with(density=v), lambda o: o.density,
     a_real(lambda v: 0.0 < v <= 1.0)),
    ("InstanceSpec.r_range", lambda v: spec_with(r_range=v), lambda o: o.r_range, counts_of(1)),
    ("InstanceSpec.r_range entry", lambda v: spec_with(r_range=(v,)), lambda o: o.r_range,
     one_count(1)),
    ("InstanceSpec.eta", lambda v: spec_with(eta=v), lambda o: o.eta,
     a_real(lambda v: -math.inf < v < 0.0)),
    ("project_kkt.tol",
     lambda v: project_kkt(Ellipsoid(np.eye(2), np.zeros(2), 1.0), np.full(2, 3.0), v), None,
     positive),
    ("gen_ellipsoid.n", lambda v: gen_ellipsoid(v, np.random.default_rng(0)), lambda o: o.dim,
     a_count(1)),
    ("gen_ellipsoid.gamma", lambda v: gen_ellipsoid(2, np.random.default_rng(0), gamma=v),
     None, positive),
    ("gen_ellipsoid.density", lambda v: gen_ellipsoid(2, np.random.default_rng(0), density=v),
     None, a_real(lambda v: 0.0 < v <= 1.0)),
    ("DiagonalSubspace.n", lambda v: DiagonalSubspace(v, 3), lambda o: o.n, a_count(1)),
    ("DiagonalSubspace.m", lambda v: DiagonalSubspace(3, v), lambda o: o.m, a_count(1)),
    ("embed.m", lambda v: embed(np.zeros(2), v), len, a_count(1)),
    ("extract.tol", lambda v: extract(np.zeros((2, 2)), tol=v), None, a_real(lambda v: v >= 0.0)),
    ("gradient_check.h", lambda v: gradient_check(_ball(), np.full(2, 3.0), h=v), None,
     positive),
    ("translated_projection_deviation.weight",
     lambda v: translated_projection_deviation(_ball(), np.ones(2), v, [np.zeros(2)]), None,
     mix_weight),
    ("fixed_set_witness_check.weight",
     lambda v: fixed_set_witness_check(_ball(), _ball(), np.zeros(2), np.zeros(2), v), None,
     mix_weight),
    ("run_experiment.workers", lambda v: run_experiment(grid_with(), workers=v), None,
     a_count(1)),
]
for field in ("n", "p", "seed", "gamma", "density", "r_range", "eta"):
    name = f"InstanceSpec.{field}"
    _, _, read, expect = next(row for row in TABLE if row[0] == name)
    TABLE.append((f"InstanceSpec.from_dict.{field}",
                  lambda v, f=field: InstanceSpec.from_dict({**_SPEC.to_dict(), f: v}),
                  read, as_loaded(expect)))
for field in ("seed", "gamma", "density", "eta"):
    _, _, read, expect = next(row for row in TABLE if row[0] == f"InstanceSpec.{field}")
    TABLE.append((f"instance_from_dict.spec.{field}",
                  lambda v, f=field: load_with(("spec", f), v),
                  lambda o, read=read: read(o.spec), as_loaded(expect)))
TABLE += [
    ("instance_from_dict.alpha", lambda v: load_with(("operators", 0, "ellipsoids", 0, "alpha"), v),
     lambda o: o.operators[0].operators[0].ellipsoid.alpha, as_loaded(positive)),
    ("instance_from_dict.b", lambda v: load_with(("operators", 0, "ellipsoids", 0, "b"), v),
     lambda o: o.operators[0].operators[0].ellipsoid.b,
     as_loaded(a_vector(lambda a: a.shape == (2,)))),
    ("instance_from_dict.weights", lambda v: load_with(("operators", 0, "weights"), v),
     lambda o: o.operators[0].weights, as_loaded(a_vector(lambda a: False, InvalidWeight))),
]


def assert_stored(got, want):
    """got is want, of want's type: an int, a float (its sign of zero
    included), a tuple of ints or a float array."""
    assert type(got) is type(want), (got, want)
    if isinstance(want, np.ndarray):
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    elif isinstance(want, tuple):
        assert got == want and [type(g) for g in got] == [type(w) for w in want]
    else:
        assert repr(got) == repr(want)


@pytest.mark.parametrize("entry, build, read, expect", TABLE, ids=[row[0] for row in TABLE])
@settings(max_examples=60, deadline=None)
@given(value=HOSTILE)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_every_value_is_stored_normalised_or_rejected(entry, build, read, expect, value):
    want = expect(value)
    if isinstance(want, type):
        with pytest.raises(want):
            build(value)
        return
    got = build(value)
    if read is not None:
        assert_stored(read(got), want)


@pytest.mark.parametrize("build", [
    lambda ops: ConvexCombination(ops, [1.0 / max(len(ops), 1)] * len(ops)),
    Composition,
    EvaluationPlan,
    BlockOperator,
    lambda ops: run("ppm", ops, np.zeros(2)),
    lambda ops: run("spm", ops, np.zeros(2)),
], ids=["ConvexCombination", "Composition", "EvaluationPlan", "BlockOperator", "run ppm",
        "run spm"])
def test_operator_lists_are_nonempty_and_of_one_dimension(build):
    with pytest.raises(EmptyOperatorList):
        build([])
    with pytest.raises(DimensionMismatch):
        build([Identity(2), Identity(3)])


# (flag, the command's other arguments, argparse's type of the flag, the
# library's rule on the parsed value); {out} is a fresh path.
CLI_FLAGS = [
    ("--n", "gen", int, a_count(1)),
    ("--p", "gen", int, a_count(1)),
    ("--seed", "gen", int, a_count(0)),
    ("--gamma", "gen", float, positive),
    ("--density", "gen", float, a_real(lambda v: 0.0 < v <= 1.0)),
    ("--tol", "run", float, positive),
    ("--max-iter", "run", int, a_count(1)),
    ("--n", "bench", int, a_count(1)),
    ("--p", "bench", int, a_count(1)),
    ("--replicates", "bench", int, a_count(1)),
    ("--master-seed", "bench", int, a_count(0)),
    ("--tol", "bench", float, positive),
    ("--max-iter", "bench", int, a_count(1)),
    ("--workers", "bench", int, a_count(1)),
]


@pytest.fixture(scope="module")
def stored_instance(tmp_path_factory):
    path = tmp_path_factory.mktemp("contract") / "inst.json"
    save_instance(gen_instance(spec_with()), path)
    return path


def command(name, instance, out):
    return {
        "gen": ["gen", "--n", "2", "--p", "2", "--seed", "1", "--out", str(out)],
        "run": ["run", "--instance", str(instance), "--solver", "ppm", "--max-iter", "5",
                "--out", str(out)],
        "bench": ["bench", "--n", "2", "--p", "2", "--replicates", "1", "--max-iter", "5",
                  "--out-dir", str(out)],
    }[name]


def exit_status(argv) -> int:
    """main's status, or argparse's when it exits first; output swallowed."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


@pytest.mark.parametrize("flag, name, parse, expect", CLI_FLAGS,
                         ids=[f"{name} {flag}" for flag, name, _, _ in CLI_FLAGS])
@settings(max_examples=60, deadline=None)
@given(value=HOSTILE)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_numeric_flags_exit_two_on_rejected_values(flag, name, parse, expect, value,
                                                   stored_instance, tmp_path_factory):
    text = str(value)
    try:
        accepted = not isinstance(expect(parse(text)), type)
    except ValueError:   # argparse's own type rejects it
        accepted = False
    out = tmp_path_factory.mktemp("out") / "result"
    status = exit_status(command(name, stored_instance, out) + [f"{flag}={text}"])
    if accepted:
        assert status in (0, 1), text
        assert out.exists()
    else:
        assert status == 2, text
        assert not out.exists()
