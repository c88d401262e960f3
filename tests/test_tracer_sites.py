"""The benchmark's per-layer tracer must find its call sites in crmfp.

perfbench/layers.py wraps named functions and methods of crmfp modules
from outside.  A site that no longer resolves is skipped silently, so a
refactor that renames or stops importing one drops the metrics it feeds.
"""
import importlib
import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def load_sites():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SITES


def resolves(module_name, attr):
    """Whether the tracer would install a wrapper for this site."""
    module = importlib.import_module(f"crmfp.{module_name}")
    owner_name, _, member = attr.rpartition(".")
    owner = getattr(module, owner_name, None) if owner_name else module
    return owner is not None and member in vars(owner) and callable(getattr(owner, member))


def test_every_span_has_a_resolving_site():
    spans = {}
    for name, module_name, attr in load_sites():
        spans.setdefault(name, []).append(resolves(module_name, attr))
    assert spans
    missing = sorted(name for name, found in spans.items() if not any(found))
    assert not missing, f"no crmfp site resolves for spans {missing}"


def test_hot_paths_keep_their_lookup_names():
    import crmfp.operators as operators
    import crmfp.product_space as product_space
    import crmfp.solvers as solvers

    assert solvers.apply_each is operators.apply_each
    assert product_space.apply_each is operators.apply_each
    assert callable(operators.kkt_project_stacked)
    assert callable(operators.admm_project_stacked)
