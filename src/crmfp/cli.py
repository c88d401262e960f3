"""Command line interface.

Subcommands: gen (write a random instance to json), run (solve one
instance with a chosen method), bench (run a benchmark grid to csv),
summarize and profile (aggregate a results csv).
"""
from __future__ import annotations

import argparse
import json
import pathlib
import sys

import numpy as np

from .bench import (
    _METRICS,
    GridConfig,
    export,
    performance_profile,
    read_results_csv,
    run_experiment,
    summarize,
)
from .instance_gen import InstanceSpec, gen_instance, initial_point, load_instance, save_instance
from .product_space import BlockOperator, DiagonalSubspace, embed, extract
from .solvers import SolverConfig, run

class UsageError(Exception):
    """An invalid option value or a malformed input file: reported in one
    line, exit status 2, as is a file that cannot be read or written
    (OSError)."""


def _config(factory, **fields):
    """factory(**fields), with its validation errors (including malformed
    input files) turned into usage errors."""
    try:
        return factory(**fields)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _add_gen(sub):
    p = sub.add_parser("gen", help="generate a random instance and save it as json")
    p.add_argument("--n", type=int, required=True, help="ambient dimension")
    p.add_argument("--p", type=int, required=True, help="number of operators")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--gamma", type=float, default=InstanceSpec.gamma, help="curvature floor of A")
    p.add_argument("--density", type=float, default=InstanceSpec.density, help="fill ratio of B")
    p.add_argument("--out", required=True, help="output json path")


def _add_run(sub):
    p = sub.add_parser("run", help="solve one stored instance")
    p.add_argument("--instance", required=True, help="instance json path")
    p.add_argument("--solver", choices=("crm", "map", "ppm", "spm"), required=True)
    p.add_argument("--tol", type=float, default=SolverConfig.tolerance)
    p.add_argument("--max-iter", type=int, default=SolverConfig.max_iterations)
    p.add_argument("--diagnostics", action="store_true",
                   help="check membership and distance monotonicity each step (crm only)")
    p.add_argument("--out", default=None, help="optional json report path")


def _add_bench(sub):
    p = sub.add_parser("bench", help="run the benchmark grid and write a results csv")
    p.add_argument("--n", type=int, nargs="+", default=GridConfig.n_values,
                   help="ambient dimensions of the grid")
    p.add_argument("--p", type=int, nargs="+", default=GridConfig.p_values,
                   help="operator counts of the grid")
    p.add_argument("--replicates", type=int, default=GridConfig.replicates)
    p.add_argument("--master-seed", type=int, default=GridConfig.master_seed)
    p.add_argument("--tol", type=float, default=GridConfig.tolerance)
    p.add_argument("--max-iter", type=int, default=GridConfig.max_iterations, help="budget per run")
    p.add_argument("--no-diagnostics", dest="diagnostics", action="store_false")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out-dir", required=True,
                   help="directory for results.csv, summary csvs, and the profile csv")


def _add_summarize(sub):
    p = sub.add_parser("summarize", help="aggregate a results csv")
    p.add_argument("--results", required=True, help="results csv path")
    p.add_argument("--group-by", default="solver",
                   help="comma separated result fields, e.g. solver,n")
    p.add_argument("--metric", choices=_METRICS, default="iterations")
    p.add_argument("--out", default=None, help="optional csv path; default prints")


def _add_profile(sub):
    p = sub.add_parser("profile", help="performance profile curves from a results csv")
    p.add_argument("--results", required=True, help="results csv path")
    p.add_argument("--metric", choices=("iterations", "elapsed_s"), default="iterations")
    p.add_argument("--out", required=True, help="output csv path")


def _cmd_gen(args) -> int:
    spec = _config(InstanceSpec, n=args.n, p=args.p, seed=args.seed,
                   gamma=args.gamma, density=args.density)
    save_instance(gen_instance(spec, decomposed=False), args.out)
    print(f"wrote instance n={args.n} p={args.p} seed={args.seed} to {args.out}")
    return 0


def _cmd_run(args) -> int:
    diagnostics: tuple[str, ...] = ()
    if args.diagnostics:
        if args.solver != "crm":
            raise UsageError("diagnostics are only available for the crm solver")
        diagnostics = ("fejer", "membership")
    cfg = _config(SolverConfig, tolerance=args.tol, max_iterations=args.max_iter,
                  diagnostics=diagnostics)
    instance = _config(load_instance, path=args.instance)
    n, p = instance.spec.n, instance.spec.p
    x0 = initial_point(instance)
    if args.solver in ("crm", "map"):
        problem = (BlockOperator(instance.operators), DiagonalSubspace(n, p))
        start = embed(x0, p)
        solution = embed(instance.fixed_point, p) if diagnostics else None
        trace = run(args.solver, problem, start, cfg, solution=solution)
        final = extract(trace.final_point, tol=np.inf)
    else:
        trace = run(args.solver, instance.operators, x0, cfg)
        final = trace.final_point
    report = {
        "solver": args.solver,
        "n": n,
        "p": p,
        "seed": instance.spec.seed,
        "iterations": trace.iterations,
        "stop_reason": trace.stop_reason,
        "final_residual": trace.residual_history[-1],
        "elapsed_s": trace.elapsed_s,
        "final_point": [float(v) for v in final],
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    print(f"{args.solver}: {trace.stop_reason} after {trace.iterations} iterations, "
          f"residual {trace.residual_history[-1]:.3e}")
    return 0 if trace.stop_reason == "converged" else 1


def _cmd_bench(args) -> int:
    grid = _config(
        GridConfig,
        n_values=tuple(args.n),
        p_values=tuple(args.p),
        replicates=args.replicates,
        master_seed=args.master_seed,
        tolerance=args.tol,
        max_iterations=args.max_iter,
        diagnostics=args.diagnostics,
    )
    results = _config(run_experiment, grid=grid, workers=args.workers)
    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    export(results, out / "results.csv")
    for name, fields in (("summary_overall.csv", ("solver",)),
                         ("summary_by_n.csv", ("solver", "n")),
                         ("summary_by_p.csv", ("solver", "p"))):
        export(summarize(results, group_by=fields, metric="iterations"), out / name)
    export(performance_profile(results, metric="iterations"), out / "profile_iterations.csv")
    for key, stats in summarize(results, group_by=("solver",), metric="iterations"):
        print(f"{key['solver']}: mean {stats.mean:.1f} iterations over {stats.count} runs "
              f"(max {stats.max:.0f})")
    print(f"wrote {len(results)} rows and 4 report files to {out}")
    return 0


def _cmd_summarize(args) -> int:
    results = _config(read_results_csv, path=args.results)
    group_by = tuple(s.strip() for s in args.group_by.split(",") if s.strip())
    stats = _config(summarize, results=results, group_by=group_by, metric=args.metric)
    if args.out:
        export(stats, args.out)
        print(f"wrote {len(stats)} groups to {args.out}")
        return 0
    for key, st in stats:
        label = ",".join(f"{k}={v}" for k, v in key.items())
        print(f"{label}: mean={st.mean:.6g} max={st.max:.6g} min={st.min:.6g} "
              f"std={st.std:.6g} count={st.count}")
    return 0


def _cmd_profile(args) -> int:
    results = _config(read_results_csv, path=args.results)
    curves = performance_profile(results, metric=args.metric)
    export(curves, args.out)
    print(f"wrote {sum(len(c.breakpoints) for c in curves)} breakpoints to {args.out}")
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "run": _cmd_run,
    "bench": _cmd_bench,
    "summarize": _cmd_summarize,
    "profile": _cmd_profile,
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crmfp",
        description="Circumcentered and averaged projection methods for "
                    "common fixed point problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for add in (_add_gen, _add_run, _add_bench, _add_summarize, _add_profile):
        add(sub)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        message = str(exc)
    except OSError as exc:   # a file that cannot be read or written
        message = f"{exc.filename}: {exc.strerror}" if exc.filename else str(exc)
    print(f"crmfp {args.command}: error: {message}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
