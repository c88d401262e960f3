"""tools/same_bits.py: digests and the comparison, on synthetic items."""
import importlib.util
from pathlib import Path
from types import SimpleNamespace

import numpy as np

_PATH = Path(__file__).resolve().parents[1] / "tools" / "same_bits.py"
_spec = importlib.util.spec_from_file_location("same_bits", _PATH)
same_bits = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_bits)
digest = same_bits.digest


def test_digest_sees_every_bit_and_the_shape():
    base = digest("converged", [3], np.array([1.0, 0.0]))
    assert base == digest("converged", [3], [1.0, 0.0])
    assert base != digest("converged", [3], np.array([1.0, -0.0]))
    assert base != digest("converged", [3], np.array([1.0, np.nextafter(0.0, 1.0)]))
    assert base != digest("converged", [3], np.array([[1.0], [0.0]]))
    assert base != digest("max-iterations", [3], np.array([1.0, 0.0]))


def test_compare_flags_differing_and_missing_items():
    parent = {"a": "1", "b": "2", "c": "3"}
    change = {"a": "1", "b": "9", "d": "4"}
    assert same_bits.compare(parent, change) == [
        ("a", "1", "1", True),
        ("b", "2", "9", False),
        ("c", "3", None, False),
        ("d", None, "4", False),
    ]
    assert all(same for *_, same in same_bits.compare(parent, dict(parent)))


def test_exit_status_is_one_on_any_mismatch(monkeypatch, capsys):
    sides = {"p": {"a": "1", "b": "2"}, "same": {"a": "1", "b": "2"}, "other": {"a": "1", "b": "3"}}
    monkeypatch.setattr(same_bits, "emitted", lambda checkout: sides[checkout.name])
    assert same_bits.main(["p", "same"]) == 0
    assert "2 of 2 items identical" in capsys.readouterr().out
    assert same_bits.main(["p", "other"]) == 1
    out = capsys.readouterr().out
    assert "DIFFERENT b" in out and "1 of 2 items identical" in out


def test_counts_item_ignores_the_histories():
    def trace(reason, iterations, residuals, point):
        return SimpleNamespace(stop_reason=reason, iterations=iterations,
                               residual_history=residuals, fixed_point_residuals=residuals,
                               dist_history=None, final_point=np.array(point))

    base = same_bits.trace_items("crm x", trace("converged", 3, [1.0, 0.5], [0.0, 1.0]))
    assert list(base) == ["crm x", "crm x counts"]
    moved = same_bits.trace_items("crm x", trace("converged", 3, [1.0, 0.5 + 2**-52], [0.0, -0.0]))
    assert moved["crm x"] != base["crm x"]
    assert moved["crm x counts"] == base["crm x counts"]
    for other in (trace("converged", 4, [1.0, 0.5], [0.0, 1.0]),
                  trace("max-iterations", 3, [1.0, 0.5], [0.0, 1.0])):
        assert same_bits.trace_items("crm x", other)["crm x counts"] != base["crm x counts"]
