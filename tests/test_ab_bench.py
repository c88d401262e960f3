"""tools/ab_bench.py: the verdict arithmetic, on synthetic runs."""
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "ab_bench.py"
_spec = importlib.util.spec_from_file_location("ab_bench", _PATH)
ab_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_bench)
verdict = ab_bench.verdict

PARENT = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 101.0]


def test_quartiles_are_inclusive():
    assert ab_bench.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert ab_bench.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_gain_needs_nine_tenths_of_the_pairs_and_a_gap_beyond_the_iqr():
    change = [p - 10.0 for p in PARENT]
    v = verdict(PARENT, change, 0.25)
    assert (v["verdict"], v["wins"]) == ("gain", 10)
    # Eight wins of ten: a clear gap, but no gain.
    mixed = change[:8] + [PARENT[8] + 1.0, PARENT[9] + 1.0]
    v = verdict(PARENT, mixed, 0.25)
    assert (v["verdict"], v["wins"]) == ("within bound", 8)
    # Ten wins by less than the parent's IQR (1.75 here): no gain.
    v = verdict(PARENT, [p - 1.0 for p in PARENT], 0.25)
    assert v["parent_iqr"] == pytest.approx(1.75)
    assert (v["verdict"], v["wins"]) == ("within bound", 10)


def test_ties_count_for_neither_side():
    v = verdict(PARENT, list(PARENT), 0.25)
    assert (v["verdict"], v["wins"]) == ("within bound", 0)


def test_worse_is_relative_to_the_parents_median():
    assert verdict(PARENT, [p * 1.2 for p in PARENT], 0.25)["verdict"] == "within bound"
    v = verdict(PARENT, [p * 1.3 for p in PARENT], 0.25)
    assert v["verdict"] == "worse" and v["worse_by"] == pytest.approx(0.3)


def test_spread_beyond_the_bound_is_unresolved_unless_the_sides_separate():
    wide = [50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 90.0, 110.0, 100.0]
    v = verdict(wide, [w * 1.02 for w in wide], 0.25)
    assert v["spread"] > 0.25 and v["verdict"] == "unresolved"
    # Every change run below every parent run, by less than the parent's
    # IQR: no gain, but no longer unresolved.
    split = [100.0] * 5 + [110.0] * 5
    v = verdict(split, [99.0] * 10, 0.05)
    assert v["spread"] > 0.05 and v["verdict"] == "within bound"
    assert verdict(split, [99.0] * 9 + [100.0], 0.05)["verdict"] == "unresolved"
    v = verdict(wide, [w * 1.02 for w in wide], 0.5)
    assert v["verdict"] == "within bound"


def test_higher_is_better_flips_the_sign():
    change = [p + 10.0 for p in PARENT]
    assert verdict(PARENT, change, 0.25, lower_is_better=False)["verdict"] == "gain"
    v = verdict(PARENT, [p * 0.6 for p in PARENT], 0.25, lower_is_better=False)
    assert v["verdict"] == "worse" and v["worse_by"] == pytest.approx(0.4)


def test_pairs_must_match():
    with pytest.raises(ValueError):
        verdict([1.0, 2.0], [1.0], 0.1)


def test_fresh_copy_takes_what_a_run_reads_and_no_bytecode(tmp_path):
    checkout = tmp_path / "checkout"
    for rel in ("src/crmfp/__init__.py", "src/crmfp/__pycache__/x.cpython-311.pyc",
                "perfbench/run.py", "perfbench/stale.pyc", "BENCHMARK.json",
                "README.md", ".git/HEAD"):
        path = checkout / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(rel)
    dest = ab_bench.fresh_copy(checkout, tmp_path / "copy")
    copied = sorted(str(p.relative_to(dest)) for p in dest.rglob("*") if p.is_file())
    assert copied == ["BENCHMARK.json", "perfbench/run.py", "src/crmfp/__init__.py"]
    assert (dest / "perfbench" / "run.py").read_text() == "perfbench/run.py"
    with pytest.raises(FileExistsError):
        ab_bench.fresh_copy(checkout, dest)
