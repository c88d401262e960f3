"""Check that two checkouts of crmfp give the same output bits.

Usage:
    python tools/same_bits.py PARENT_DIR CHANGE_DIR

PARENT_DIR and CHANGE_DIR are checkouts with src/.  For each, the script
runs itself in a child process with that checkout's src/ on PYTHONPATH and
BLAS on one thread, and the child computes one fixed set of items:

- ppm and the lifted crm (with the fejer and membership checks, as
  bench.run_cell sets them) at 10x10, 50x50, 100x30 and 200x10, instance
  seeds 1 and 2, capped at CAP iterations, and at 100x200, seed 1, capped
  at 30 iterations (a plan of 4M eigenbasis floats): stop reason,
  iteration count, residual and distance histories and the final point;
- the lifted map (with the fejer check) and spm in R^n, the same way, on
  the 10x10 and 50x50 instances;
- images of each combination of those instances, and of its first member,
  at the initial point and three random points;
- ppm, the lifted crm and images, as above, on the instance that
  load_instance reads from tests/data/instance_n3_p2_seed7.json, so the
  load path's decomposition is compared too;
- ppm, the lifted crm and images, as above, on a 10x6 instance whose
  combinations have 1, 9 or 12 members (seed 3), so one-member runs and
  runs too long for the slot-wise segmented sum are compared too;
- firm_nonexpansiveness_slack and gradient_check on each instance's first
  combination and first member;
- on the 10x10 instance of seed 1, one call of each public step function
  (crm_step and map_step on the lifted pair from the embedded initial
  point, ppm_step and spm_step from the initial point), and the calls with
  one point per operator: BlockOperator at a lifted point that is not
  diagonal, and apply_each at those points;
- the lifted crm with all three checks (fejer, orthogonality and
  membership) on the README's 10x10 instance of seed 2024, from its
  embedded initial point;
- the lifted crm (fejer and membership) and map (fejer) on the 10x10
  instance of seed 1, started 1e-12 off the diagonal, so a first step on
  the lifted array is compared too.

It prints one sha256 digest per item and side, and exits with status 1
when an item's digests differ or an item is missing on one side, else 0.
It checks changes that promise the same bits; a change that means to alter
them fails it by design.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

CELLS = ((10, 10), (50, 50), (100, 30), (200, 10))
MAP_CELLS = ((10, 10), (50, 50))
LOADED = Path(__file__).resolve().parents[1] / "tests" / "data" / "instance_n3_p2_seed7.json"
SEEDS = (1, 2)
CAP = 200


def digest(*parts) -> str:
    """sha256 over the parts: a string's UTF-8 bytes, anything else as the
    shape and bytes of its float64 array."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, str):
            h.update(part.encode())
        else:
            a = np.asarray(part, dtype=float)
            h.update(repr(a.shape).encode() + a.tobytes())
    return h.hexdigest()


def emit() -> dict:
    """Digests of every item, computed with the crmfp on sys.path."""
    import crmfp
    from crmfp import (BlockOperator, DiagonalSubspace, InstanceSpec, SolverConfig, apply_each,
                       crm_step, embed, firm_nonexpansiveness_slack, gen_instance,
                       gradient_check, images, initial_point, load_instance, map_step, ppm_step,
                       run, spm_step)

    def of_trace(t):
        return digest(t.stop_reason, [t.iterations], t.residual_history,
                      t.fixed_point_residuals, t.dist_history or [], t.final_point)

    items = {}

    def solve(name, inst, x0, cap):
        n, p = inst.spec.n, inst.spec.p
        cfg = SolverConfig(tolerance=1e-6, max_iterations=cap)
        lifted = (BlockOperator(inst.operators), DiagonalSubspace(n, p))
        start, solution = embed(x0, p), embed(inst.fixed_point, p)
        items[f"ppm {name}"] = of_trace(run("ppm", inst.operators, x0, cfg))
        crm_cfg = SolverConfig(tolerance=1e-6, max_iterations=cap,
                               diagnostics=("fejer", "membership"))
        items[f"crm {name}"] = of_trace(run("crm", lifted, start, crm_cfg, solution=solution))
        if (n, p) in MAP_CELLS:
            map_cfg = SolverConfig(tolerance=1e-6, max_iterations=cap, diagnostics=("fejer",))
            items[f"map {name}"] = of_trace(run("map", lifted, start, map_cfg, solution=solution))
            items[f"spm {name}"] = of_trace(run("spm", inst.operators, x0, cfg))

    def solve_and_image(name, inst, seed):
        x0 = initial_point(inst)
        solve(name, inst, x0, CAP)
        rng = np.random.default_rng(seed)
        points = np.concatenate([x0[None], 3.0 * rng.standard_normal((3, inst.spec.n))])
        items[f"images {name}"] = digest(
            *(images(q, points) for op in inst.operators for q in (op, op.operators[0])))
        return rng

    for n, p in CELLS:
        for seed in SEEDS:
            name = f"n={n} p={p} seed={seed}"
            inst = gen_instance(InstanceSpec(n=n, p=p, seed=seed))
            rng = solve_and_image(name, inst, seed)
            first = inst.operators[0]
            x, y = 3.0 * rng.standard_normal((2, n))
            items[f"checks {name}"] = digest(
                [firm_nonexpansiveness_slack(q, x, y) for q in (first, first.operators[0])],
                [gradient_check(q, x) for q in (first, first.operators[0])])
    inst = gen_instance(InstanceSpec(n=10, p=10, seed=1))
    x0 = initial_point(inst)
    block, diag, start = BlockOperator(inst.operators), DiagonalSubspace(10, 10), embed(x0, 10)
    items["crm_step n=10 p=10 seed=1"] = digest(crm_step(block, diag, start))
    items["map_step n=10 p=10 seed=1"] = digest(map_step(block, diag, start))
    items["ppm_step n=10 p=10 seed=1"] = digest(ppm_step(inst.operators, x0))
    items["spm_step n=10 p=10 seed=1"] = digest(spm_step(inst.operators, x0))
    rows = x0 + 3.0 * np.random.default_rng(1).standard_normal((10, 10))
    items["block rows n=10 p=10 seed=1"] = digest(block(rows))
    items["apply_each rows n=10 p=10 seed=1"] = digest(*apply_each(inst.operators, rows))
    solution = embed(inst.fixed_point, 10)
    off = start.copy()
    off[3, 4] += 1e-12
    for kind, checks in (("crm", ("fejer", "membership")), ("map", ("fejer",))):
        cfg = SolverConfig(tolerance=1e-6, max_iterations=CAP, diagnostics=checks)
        items[f"{kind} off-diagonal n=10 p=10 seed=1"] = of_trace(
            run(kind, (block, diag), off, cfg, solution=solution))
    readme = gen_instance(InstanceSpec(n=10, p=10, seed=2024))
    cfg = SolverConfig(diagnostics=("fejer", "orthogonality", "membership"))
    items["crm all checks n=10 p=10 seed=2024"] = of_trace(
        run("crm", (BlockOperator(readme.operators), diag), embed(initial_point(readme), 10),
            cfg, solution=embed(readme.fixed_point, 10)))
    mixed = InstanceSpec(n=10, p=6, seed=3, r_range=(1, 9, 12))
    solve_and_image("n=10 p=6 seed=3 r=1,9,12", gen_instance(mixed), mixed.seed)
    loaded = load_instance(LOADED)
    spec = loaded.spec
    solve_and_image(f"loaded n={spec.n} p={spec.p} seed={spec.seed}", loaded, spec.seed)
    inst = gen_instance(InstanceSpec(n=100, p=200, seed=1))
    solve("n=100 p=200 seed=1", inst, initial_point(inst), 30)
    return {"crmfp": str(Path(crmfp.__file__).resolve()), "items": items}


def emitted(checkout: Path) -> dict:
    """The child's digests for one checkout; raises if it imported another crmfp."""
    src = (checkout / "src").resolve()
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--emit"],
                          env=env, capture_output=True, text=True, check=True)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(out["crmfp"]).is_relative_to(src):
        raise RuntimeError(f"{checkout}: imported crmfp from {out['crmfp']}")
    return out["items"]


def compare(parent: dict, change: dict) -> list[tuple[str, str | None, str | None, bool]]:
    """(item, parent digest, change digest, same) for the items of either
    side, in the parent's order, then the change's extra items."""
    names = list(parent) + [k for k in change if k not in parent]
    return [(k, parent.get(k), change.get(k), k in parent and parent.get(k) == change.get(k))
            for k in names]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path, nargs="?")
    parser.add_argument("change", type=Path, nargs="?")
    parser.add_argument("--emit", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.emit:
        print(json.dumps(emit()))
        return 0
    if args.change is None:
        parser.error("PARENT_DIR and CHANGE_DIR are required")
    rows = compare(emitted(args.parent), emitted(args.change))
    for name, p, c, same in rows:
        print(f"{'same' if same else 'DIFFERENT':<9} {name:<34} "
              f"{(p or 'missing')[:16]:<16} {(c or 'missing')[:16]}")
    differ = sum(not same for *_, same in rows)
    print(f"{len(rows) - differ} of {len(rows)} items identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
