"""Benchmark grid, aggregation, performance profiles, and csv export.

The grid crosses problem sizes with replicate indices; every cell derives
its own seed from the master seed, so the whole experiment regenerates bit
for bit from its configuration.  Each instance is solved twice: the
parallel averaged iteration directly in R^n, and the circumcentering
iteration on the product-space lifting, with membership and distance-
monotonicity checks on against the certified solution.  Failures of a
single run are recorded in its stop_reason and never abort the grid.
"""
from __future__ import annotations

import csv
import logging
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import DiagnosticFailure, EmptyGroup, integer
from .instance_gen import FppInstance, InstanceSpec, gen_instance, initial_point
from .product_space import BlockOperator, DiagonalSubspace, embed
from .solvers import SolverConfig, run


@dataclass
class RunResult:
    """One (instance, solver) outcome; the unit every aggregate consumes."""

    solver: str
    n: int
    p: int
    replicate: int
    seed: int
    iterations: int
    elapsed_s: float
    final_residual: float
    stop_reason: str


@dataclass
class SummaryStats:
    """Aggregate of one metric over one group of runs (sample std)."""

    mean: float
    max: float
    min: float
    std: float
    count: int


@dataclass
class ProfileCurve:
    """Breakpoints (tau, fraction solved within tau times the best)."""

    solver: str
    breakpoints: list[tuple[float, float]]


@dataclass
class GridConfig:
    """Full description of a benchmark experiment."""

    n_values: tuple[int, ...] = (10, 30, 50, 100, 200)
    p_values: tuple[int, ...] = (10, 30, 50, 100, 200)
    replicates: int = 10
    master_seed: int = 2024
    tolerance: float = 1e-6
    max_iterations: int = 50000
    diagnostics: bool = True

    def __post_init__(self):
        # Counts are integers (numpy's too, not bools); anything else raises
        # TypeError (errors.integer).
        self.n_values = tuple(map(integer, self.n_values))
        self.p_values = tuple(map(integer, self.p_values))
        self.replicates, self.master_seed = integer(self.replicates), integer(self.master_seed)
        if self.replicates < 1:
            raise ValueError("need at least one replicate")
        if self.master_seed < 0:
            raise ValueError("master_seed must be nonnegative")
        if any(v < 1 for v in self.n_values + self.p_values):
            raise ValueError("grid sizes n and p must be positive")
        SolverConfig(tolerance=self.tolerance, max_iterations=self.max_iterations)


def derive_seed(master_seed: int, n: int, p: int, replicate: int) -> int:
    """Stable per-cell seed; independent of enumeration order."""
    ss = np.random.SeedSequence([master_seed, n, p, replicate])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


_log = logging.getLogger(__name__)


def _failure_result(solver, n, p, replicate, seed, exc) -> RunResult:
    _log.warning("%s run of cell n=%d p=%d replicate=%d raised", solver, n, p, replicate,
                 exc_info=exc)
    reason = f"error:{type(exc).__name__}"
    iterations = 0
    if isinstance(exc, DiagnosticFailure):
        reason = f"diagnostic-failure:{exc.check}"
        iterations = exc.iteration
    return RunResult(
        solver=solver, n=n, p=p, replicate=replicate, seed=seed,
        iterations=iterations, elapsed_s=0.0, final_residual=math.nan,
        stop_reason=reason,
    )


def run_cell(grid: GridConfig, n: int, p: int, replicate: int) -> list[RunResult]:
    """Both solver runs for one grid cell.  A run that raises becomes an
    error:<Type> row (traceback logged); it never aborts the grid."""
    seed = derive_seed(grid.master_seed, n, p, replicate)
    try:
        spec = InstanceSpec(n=n, p=p, seed=seed)
        instance = gen_instance(spec)
        x0 = initial_point(instance)
    except Exception as exc:
        return [_failure_result(solver, n, p, replicate, seed, exc) for solver in ("ppm", "crm")]

    cfg = SolverConfig(tolerance=grid.tolerance, max_iterations=grid.max_iterations)
    crm_cfg = replace(cfg, diagnostics=("fejer", "membership") if grid.diagnostics else ())
    runs = {
        "ppm": lambda: run("ppm", instance.operators, x0, cfg),
        "crm": lambda: run(
            "crm", (BlockOperator(instance.operators), DiagonalSubspace(n, p)), embed(x0, p),
            crm_cfg, solution=embed(instance.fixed_point, p),
        ),
    }
    out = []
    for solver, start in runs.items():
        try:
            trace = start()
            out.append(RunResult(
                solver=solver, n=n, p=p, replicate=replicate, seed=seed,
                iterations=trace.iterations, elapsed_s=trace.elapsed_s,
                final_residual=trace.residual_history[-1], stop_reason=trace.stop_reason,
            ))
        except Exception as exc:
            out.append(_failure_result(solver, n, p, replicate, seed, exc))
    return out


def run_experiment(grid: GridConfig, workers: int = 1) -> list[RunResult]:
    """All runs of the grid, sorted by (n, p, replicate, solver).

    Cells are independent; with workers > 1 they are spread over processes.
    They are handed out in decreasing n * p order, so the most expensive
    cells start first instead of running alone at the tail.  Results (all
    but wall times) are identical for any worker count.
    """
    cells = sorted(
        ((grid, n, p, r) for n in grid.n_values for p in grid.p_values
         for r in range(grid.replicates)),
        key=lambda cell: -cell[1] * cell[2],
    )
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_cell = list(pool.map(run_cell, *zip(*cells)))
    else:
        per_cell = (run_cell(*cell) for cell in cells)
    return sorted((r for rs in per_cell for r in rs),
                  key=lambda r: (r.n, r.p, r.replicate, r.solver))


_METRICS = ("iterations", "elapsed_s", "final_residual")
_GROUP_FIELDS = ("solver", "n", "p", "replicate", "seed", "stop_reason")


def summarize(results, group_by=("solver",), metric: str = "iterations"):
    """Per-group SummaryStats of one metric.

    Returns a list of (group key dict, SummaryStats), groups sorted by key.
    """
    if metric not in _METRICS:
        raise ValueError(f"unknown metric {metric!r}; expected one of {_METRICS}")
    group_by = tuple(group_by)
    for name in group_by:
        if name not in _GROUP_FIELDS:
            raise ValueError(f"cannot group by {name!r}")
    results = list(results)
    if not results:
        raise EmptyGroup("no results to summarize")
    groups: dict[tuple, list[float]] = {}
    for r in results:
        key = tuple(getattr(r, name) for name in group_by)
        groups.setdefault(key, []).append(float(getattr(r, metric)))
    out = []
    for key in sorted(groups, key=lambda k: tuple(map(str, k))):
        values = np.asarray(groups[key])
        std = float(values.std(ddof=1)) if values.size > 1 else 0.0
        stats = SummaryStats(
            mean=float(values.mean()),
            max=float(values.max()),
            min=float(values.min()),
            std=std,
            count=int(values.size),
        )
        out.append((dict(zip(group_by, key)), stats))
    return out


def performance_profile(results, metric: str = "iterations") -> list[ProfileCurve]:
    """Ratio-to-best step curves, one per solver.

    A run that did not converge counts as infinitely slow: it inflates no
    ratio of the others and its own curve never reaches that problem.
    """
    if metric not in _METRICS:
        raise ValueError(f"unknown metric {metric!r}; expected one of {_METRICS}")
    results = list(results)
    if not results:
        raise EmptyGroup("no results to profile")
    values: dict[tuple, dict[str, float]] = {}
    solvers: list[str] = []
    for r in results:
        problem = (r.n, r.p, r.replicate)
        good = r.stop_reason == "converged"
        values.setdefault(problem, {})[r.solver] = (
            float(getattr(r, metric)) if good else math.inf
        )
        if r.solver not in solvers:
            solvers.append(r.solver)
    solvers.sort()

    ratios: dict[str, list[float]] = {s: [] for s in solvers}
    for problem, per_solver in values.items():
        best = min(per_solver.get(s, math.inf) for s in solvers)
        for s in solvers:
            val = per_solver.get(s, math.inf)
            if math.isinf(best):
                ratio = math.inf
            elif best == 0.0:
                ratio = 1.0 if val == 0.0 else math.inf
            else:
                ratio = val / best
            ratios[s].append(ratio)

    total = len(values)
    curves = []
    for s in solvers:
        rs = sorted(r for r in ratios[s] if math.isfinite(r))
        taus = sorted(set([1.0] + rs))
        breakpoints = [
            (tau, sum(1 for r in rs if r <= tau) / total) for tau in taus
        ]
        curves.append(ProfileCurve(solver=s, breakpoints=breakpoints))
    return curves


_RESULT_COLUMNS = tuple(f.name for f in fields(RunResult))


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def export(obj, path) -> None:
    """Write results, summaries, or profile curves to a csv file.

    Reals carry six significant digits; integers (seeds included) are full
    precision.  Output bytes are a pure function of the data.
    """
    obj = list(obj)
    if not obj:
        # Nothing to infer a schema from; emit the run-result header.
        rows = []
        columns = _RESULT_COLUMNS
    elif isinstance(obj[0], RunResult):
        rows = [
            {c: getattr(r, c) for c in _RESULT_COLUMNS} for r in obj
        ]
        columns = _RESULT_COLUMNS
    elif isinstance(obj[0], ProfileCurve):
        rows = [
            {"solver": c.solver, "tau": tau, "fraction": frac}
            for c in obj
            for tau, frac in c.breakpoints
        ]
        columns = ("solver", "tau", "fraction")
    elif isinstance(obj[0], tuple) and isinstance(obj[0][1], SummaryStats):
        group_names = tuple(obj[0][0])
        rows = [
            {**key, "mean": st.mean, "max": st.max, "min": st.min,
             "std": st.std, "count": st.count}
            for key, st in obj
        ]
        columns = group_names + ("mean", "max", "min", "std", "count")
    else:
        raise TypeError(f"cannot export items of type {type(obj[0]).__name__}")

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in columns])


def read_results_csv(path) -> list[RunResult]:
    """Load a results csv written by export().

    A missing column, a row of the wrong length or a value that does not
    parse raises a ValueError naming the file and the field.  Other
    columns are ignored.
    """
    parsers = {f.name: {"int": int, "float": float}.get(f.type, str) for f in fields(RunResult)}
    out = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [name for name in parsers if name not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"{path}: missing columns: {', '.join(missing)}")
        for row in reader:
            where = f"{path}: line {reader.line_num}"
            if None in row or None in row.values():
                raise ValueError(f"{where}: expected {len(reader.fieldnames)} values")
            kwargs = {}
            for name, parse in parsers.items():
                try:
                    kwargs[name] = parse(row[name])
                except ValueError:
                    raise ValueError(f"{where}: bad {name} {row[name]!r}") from None
            out.append(RunResult(**kwargs))
    return out
