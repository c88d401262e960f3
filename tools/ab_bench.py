"""Alternate perfbench runs of two checkouts and judge each metric.

Usage:
    python tools/ab_bench.py PARENT_DIR CHANGE_DIR [--pairs 10] [--seconds 20]
        [--seeds 1,2,3] [--workloads bench-grid,checks-exterior]
        [--out runs.json] [--evidence LABEL]

PARENT_DIR and CHANGE_DIR are checkouts with perfbench/ and src/ (for the
parent, for example `git worktree add ../parent HEAD~1`).  Each side runs
from a fresh copy of its src/, perfbench/ and BENCHMARK.json in a
temporary directory, as the benchmark itself runs from a new directory:
a run from a working checkout can read differently from the same files
elsewhere.  For each workload the script runs PAIRS pairs of
`perfbench/run.py --trace 0`, one run of each checkout per pair, the
parent first in even pairs and the change first in odd ones; pair i uses
seed SEEDS[i mod len(SEEDS)].  Then, per end-to-end metric of
CHANGE_DIR's BENCHMARK.json, it prints each side's median and quartiles,
the change's wins (ties count for neither) and a verdict:

- gain: the change won at least nine tenths of the pairs, and its median
  is better than the parent's by more than the parent's interquartile
  range;
- unresolved: the run-to-run spread (interquartile range over median, the
  wider side's) exceeds the metric's bound, unless every run of the change
  reads better than every run of the parent;
- worse: the change's median is worse than the parent's by more than the
  bound, relative to the parent's median;
- within bound: none of these.

A run that reports failures is listed after the table.  --out writes
every run's result and record as JSON; --evidence LABEL writes
BENCH_<LABEL>-before.json and BENCH_<LABEL>-after.json into CHANGE_DIR
from the first pair of each workload.
"""
from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("bench-grid", "crm-large", "checks-exterior")
# What a perfbench run reads from a checkout.
RUN_FILES = ("src", "perfbench", "BENCHMARK.json")


def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(parent, change, bound: float, lower_is_better: bool = True) -> dict:
    """Judge paired runs of one metric (parent[i] and change[i] are pair i)."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need one parent and one change value per pair")
    sign = 1.0 if lower_is_better else -1.0
    p_q, c_q = quartiles(parent), quartiles(change)
    wins = sum(sign * (c - p) < 0.0 for p, c in zip(parent, change))
    gap = sign * (p_q[1] - c_q[1])          # > 0: the change is better
    parent_iqr = p_q[2] - p_q[0]
    spread = max((q[2] - q[0]) / abs(q[1]) if q[1] else 0.0 for q in (p_q, c_q))
    worse_by = -gap / abs(p_q[1]) if p_q[1] else 0.0
    separated = max(sign * c for c in change) < min(sign * p for p in parent)
    if 10 * wins >= 9 * len(parent) and gap > parent_iqr:
        kind = "gain"
    elif spread > bound and not separated:
        kind = "unresolved"
    elif worse_by > bound:
        kind = "worse"
    else:
        kind = "within bound"
    return {"verdict": kind, "wins": wins, "pairs": len(parent), "parent": p_q,
            "change": c_q, "parent_iqr": parent_iqr, "spread": spread, "worse_by": worse_by}


def fresh_copy(checkout: Path, dest: Path) -> Path:
    """Copy RUN_FILES of checkout into the new directory dest, without
    bytecode caches, and return dest."""
    dest.mkdir()
    for name in RUN_FILES:
        source = checkout / name
        if source.is_dir():
            shutil.copytree(source, dest / name,
                            ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
        else:
            shutil.copy2(source, dest / name)
    return dest


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run: its result (last line) and record."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return {"result": json.loads(lines[-1]), "record": json.loads(lines[-2])["record"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--out", type=Path)
    parser.add_argument("--evidence")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    if spec != json.loads((args.parent / "BENCHMARK.json").read_text(encoding="utf-8")):
        print("warning: the two checkouts' BENCHMARK.json differ", file=sys.stderr)

    runs = []
    with tempfile.TemporaryDirectory(prefix="ab_bench-") as tmp:
        copies = {side: fresh_copy(getattr(args, side), Path(tmp) / side)
                  for side in ("parent", "change")}
        for workload in args.workloads.split(","):
            for i in range(args.pairs):
                seed = seeds[i % len(seeds)]
                sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in sides:
                    run = run_bench(copies[side], workload, seed, args.seconds)
                    runs.append({"workload": workload, "pair": i, "seed": seed, "side": side,
                                 **run})
                    print(f"{workload} pair {i} seed {seed} {side}: "
                          + " ".join(f"{k}={v['value']:.4g}"
                                     for k, v in run["result"]["metrics"].items()), flush=True)
    if args.out:
        args.out.write_text(json.dumps(runs, indent=1), encoding="utf-8")

    print(f"\n{'workload':<16} {'metric':<12} {'parent q1/med/q3':>28} "
          f"{'change q1/med/q3':>28} {'wins':>6}  verdict")
    for workload in args.workloads.split(","):
        def values(side, metric):
            mine = sorted((r for r in runs if r["workload"] == workload and r["side"] == side),
                          key=lambda r: r["pair"])
            return [r["result"]["metrics"][metric]["value"] for r in mine]

        for m in spec["end_to_end"]:
            v = verdict(values("parent", m["name"]), values("change", m["name"]),
                        m["bound"], m["better"] == "lower")
            fmt = "/".join(f"{x:.4g}" for x in v["parent"]), "/".join(f"{x:.4g}" for x in v["change"])
            print(f"{workload:<16} {m['name']:<12} {fmt[0]:>28} {fmt[1]:>28} "
                  f"{v['wins']:>3}/{v['pairs']:<2}  {v['verdict']} "
                  f"(spread {v['spread']:.3f}, bound {m['bound']})")
    for r in runs:
        if not r["result"]["correct"]:
            print(f"FAILURES: {r['workload']} pair {r['pair']} {r['side']}: "
                  f"{r['result']['failed']}/{r['result']['attempted']}")

    if args.evidence:
        command = "python3 perfbench/run.py --workload <name> --seed {} --seconds {} --trace 0"
        for side, suffix in (("parent", "before"), ("change", "after")):
            first = {r["workload"]: r for r in runs if r["side"] == side and r["pair"] == 0}
            doc = {"label": f"{args.evidence}-{suffix}",
                   "command": command.format(seeds[0], f"{args.seconds:g}"),
                   "workloads": {w: {"record": r["record"], "result": r["result"]}
                                 for w, r in first.items()}}
            path = args.change / f"BENCH_{args.evidence}-{suffix}.json"
            path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
