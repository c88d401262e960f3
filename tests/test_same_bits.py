"""tools/same_bits.py: digests and the comparison, on synthetic items."""
import importlib.util
from pathlib import Path

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
