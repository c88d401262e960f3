"""Grid runner, aggregation, performance profiles, and csv export."""
import dataclasses
import math
import os
import pathlib
import signal
import subprocess
import sys

import numpy as np
import pytest

import crmfp
from crmfp import bench as bench_module
from crmfp import (
    EmptyGroup,
    GridConfig,
    ProfileCurve,
    RunResult,
    derive_seed,
    export,
    performance_profile,
    read_results_csv,
    run_experiment,
    summarize,
)

DATA = pathlib.Path(__file__).parent / "data"


def tiny_grid(**overrides):
    base = dict(
        n_values=(3,),
        p_values=(2,),
        replicates=2,
        master_seed=7,
        tolerance=1e-6,
        max_iterations=2000,
    )
    base.update(overrides)
    return GridConfig(**base)


def mk(solver="ppm", n=2, p=2, replicate=0, iterations=10, stop="converged",
       residual=1e-7, seed=1):
    return RunResult(
        solver=solver, n=n, p=p, replicate=replicate, seed=seed,
        iterations=iterations, elapsed_s=0.01, final_residual=residual,
        stop_reason=stop,
    )


def strip_elapsed(results):
    return [dataclasses.replace(r, elapsed_s=0.0) for r in results]


class TestDeriveSeed:
    def test_stable_across_calls(self):
        assert derive_seed(2024, 10, 10, 0) == derive_seed(2024, 10, 10, 0)

    def test_cells_get_distinct_seeds(self):
        seeds = {
            derive_seed(2024, n, p, r)
            for n in (10, 30)
            for p in (10, 30)
            for r in range(5)
        }
        assert len(seeds) == 20

    def test_independent_of_enumeration_order(self):
        forward = [derive_seed(1, 2, 3, r) for r in range(4)]
        backward = [derive_seed(1, 2, 3, r) for r in reversed(range(4))]
        assert forward == backward[::-1]


@pytest.fixture(scope="module")
def results():
    return run_experiment(tiny_grid())


class TestRunExperiment:

    def test_cardinality(self, results):
        assert len(results) == 2 * 1 * 1 * 2

    def test_sorted_deterministically(self, results):
        keys = [(r.n, r.p, r.replicate, r.solver) for r in results]
        assert keys == sorted(keys)

    def test_row_invariants(self, results):
        grid = tiny_grid()
        for r in results:
            assert r.solver in ("crm", "ppm")
            assert r.iterations <= grid.max_iterations
            converged = r.stop_reason == "converged"
            assert (r.final_residual < grid.tolerance) == converged
            assert r.seed == derive_seed(7, r.n, r.p, r.replicate)

    def test_rerun_identical_but_for_elapsed(self, results):
        again = run_experiment(tiny_grid())
        assert strip_elapsed(again) == strip_elapsed(results)

    def test_workers_do_not_change_results(self, results):
        parallel = run_experiment(tiny_grid(), workers=2)
        assert strip_elapsed(parallel) == strip_elapsed(results)

    def test_cells_start_in_decreasing_n_times_p(self, monkeypatch):
        # The most expensive cells start first, and the results are sorted.
        started = []
        run_cell = bench_module.run_cell
        monkeypatch.setattr(bench_module, "run_cell", lambda grid, n, p, r: (
            started.append((n, p, r)) or run_cell(grid, n, p, r)))
        grid = tiny_grid(n_values=(3, 5), p_values=(2, 4), replicates=1, max_iterations=5,
                         diagnostics=False)
        results = run_experiment(grid)
        assert started == [(5, 4, 0), (3, 4, 0), (5, 2, 0), (3, 2, 0)]
        assert [(r.n, r.p) for r in results] == [(n, p) for n in (3, 5) for p in (2, 4)
                                                 for _ in ("crm", "ppm")]

    def test_workers_fork_after_a_pooled_decomposition(self):
        # The process decomposes an instance on a thread pool, then forks
        # the grid's worker processes.  A pool whose threads outlived the
        # call would be inherited without its threads and could hang them;
        # the hard timeout turns such a hang into a failure.
        script = (
            "import dataclasses\n"
            "import crmfp.ellipsoid as ellipsoid\n"
            "from crmfp import GridConfig, InstanceSpec, gen_instance, run_experiment\n"
            "ellipsoid._pool_size = lambda members, n: min(members, 2)\n"
            "gen_instance(InstanceSpec(n=10, p=10, seed=1))\n"
            "grid = GridConfig(n_values=(3,), p_values=(2,), replicates=2, master_seed=7,\n"
            "                  tolerance=1e-6, max_iterations=2000)\n"
            "def rows(workers):\n"
            "    return [dataclasses.replace(r, elapsed_s=0.0)\n"
            "            for r in run_experiment(grid, workers=workers)]\n"
            "assert rows(2) == rows(1)\n"
            "print('same')\n"
        )
        src = str(pathlib.Path(crmfp.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        proc = subprocess.Popen([sys.executable, "-c", script], env=env, text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                start_new_session=True)
        try:
            out, err = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("run_experiment(workers=2) hung after a pooled decomposition")
        assert proc.returncode == 0, err
        assert out.strip() == "same"

    def test_crm_converges_and_beats_ppm_here(self, results):
        by = {(r.solver, r.replicate): r for r in results}
        for rep in range(2):
            crm = by[("crm", rep)]
            ppm = by[("ppm", rep)]
            assert crm.stop_reason == "converged"
            assert ppm.stop_reason == "converged"
            assert crm.iterations < ppm.iterations

    def test_max_iterations_rows_recorded(self):
        short = run_experiment(tiny_grid(max_iterations=3, diagnostics=False))
        assert {r.stop_reason for r in short} == {"max-iterations"}
        assert all(r.iterations == 3 for r in short)

    def test_unexpected_exception_recorded(self, results, monkeypatch, caplog):
        real_run = bench_module.run
        calls = []

        def failing_third_call(*args, **kwargs):
            calls.append(args[0])
            if len(calls) == 3:   # ppm of replicate 1
                raise ZeroDivisionError("injected")
            return real_run(*args, **kwargs)

        monkeypatch.setattr(bench_module, "run", failing_third_call)
        got = run_experiment(tiny_grid())
        assert calls == ["ppm", "crm", "ppm", "crm"]
        failed = [r for r in got if r.stop_reason.startswith("error:")]
        assert [(r.solver, r.replicate) for r in failed] == [("ppm", 1)]
        assert failed[0].stop_reason == "error:ZeroDivisionError"
        assert failed[0].iterations == 0 and math.isnan(failed[0].final_residual)
        rest = [r for r in got if r is not failed[0]]
        expected = [r for r in results if (r.solver, r.replicate) != ("ppm", 1)]
        assert strip_elapsed(rest) == strip_elapsed(expected)
        [record] = caplog.records
        assert "ppm run of cell n=3 p=2 replicate=1" in record.getMessage()
        assert record.exc_info[0] is ZeroDivisionError

    def test_replicates_validated(self):
        with pytest.raises(ValueError):
            tiny_grid(replicates=0)

    @pytest.mark.parametrize("field, value", [
        ("tolerance", 0.0), ("tolerance", -1.0), ("tolerance", float("inf")),
        ("max_iterations", 0), ("n_values", (3, 0)), ("p_values", (-2,)),
    ])
    def test_solver_settings_and_sizes_validated(self, field, value):
        with pytest.raises(ValueError):
            tiny_grid(**{field: value})

    def test_negative_master_seed_rejected(self):
        # SeedSequence takes nonnegative entropy only; the grid says so first.
        with pytest.raises(ValueError, match="master_seed must be nonnegative"):
            tiny_grid(master_seed=-1)
        assert tiny_grid(master_seed=0).master_seed == 0


class TestSummarize:
    def test_textbook_values(self):
        rows = [mk(iterations=1), mk(iterations=2), mk(iterations=3)]
        [(key, stats)] = summarize(rows, group_by=("solver",))
        assert key == {"solver": "ppm"}
        assert stats.mean == 2.0
        assert stats.max == 3.0
        assert stats.min == 1.0
        assert stats.std == pytest.approx(1.0)
        assert stats.count == 3

    def test_single_value_std_zero(self):
        [(_, stats)] = summarize([mk(iterations=7)])
        assert stats.mean == 7.0
        assert stats.std == 0.0
        assert stats.count == 1

    def test_groups_split_and_sort(self):
        rows = [
            mk(solver="ppm", n=10, iterations=100),
            mk(solver="crm", n=10, iterations=10),
            mk(solver="crm", n=30, iterations=20),
        ]
        out = summarize(rows, group_by=("solver", "n"))
        assert [key for key, _ in out] == [
            {"solver": "crm", "n": 10},
            {"solver": "crm", "n": 30},
            {"solver": "ppm", "n": 10},
        ]

    def test_empty_rejected(self):
        with pytest.raises(EmptyGroup):
            summarize([])

    def test_validation(self):
        with pytest.raises(ValueError):
            summarize([mk()], metric="memory")
        with pytest.raises(ValueError):
            summarize([mk()], group_by=("hostname",))


class TestPerformanceProfile:
    def test_single_solver_constant_one(self):
        rows = [mk(replicate=i, iterations=5 + i) for i in range(3)]
        [curve] = performance_profile(rows)
        assert curve.breakpoints == [(1.0, 1.0)]

    def test_strictly_faster_solver(self):
        rows = []
        for i in range(3):
            rows.append(mk(solver="crm", replicate=i, iterations=10))
            rows.append(mk(solver="ppm", replicate=i, iterations=50))
        curves = {c.solver: c for c in performance_profile(rows)}
        assert curves["crm"].breakpoints[0] == (1.0, 1.0)
        assert curves["ppm"].breakpoints[0] == (1.0, 0.0)
        assert curves["ppm"].breakpoints[-1] == (5.0, 1.0)

    def test_failure_keeps_curve_below_one(self):
        rows = []
        for i, it in enumerate((20, 40, 999)):
            rows.append(mk(solver="a", replicate=i, iterations=10))
            stop = "max-iterations" if it == 999 else "converged"
            rows.append(mk(solver="b", replicate=i, iterations=it, stop=stop))
        curves = {c.solver: c for c in performance_profile(rows)}
        assert curves["b"].breakpoints == [
            (1.0, 0.0),
            (2.0, pytest.approx(1 / 3)),
            (4.0, pytest.approx(2 / 3)),
        ]
        assert curves["a"].breakpoints == [(1.0, 1.0)]

    def test_fractions_monotone(self):
        rng = np.random.default_rng(0)
        rows = []
        for i in range(10):
            for s in ("a", "b", "c"):
                rows.append(
                    mk(solver=s, replicate=i, iterations=int(rng.integers(5, 100)))
                )
        for curve in performance_profile(rows):
            fracs = [f for _, f in curve.breakpoints]
            assert fracs == sorted(fracs)
            taus = [t for t, _ in curve.breakpoints]
            assert taus == sorted(taus)
            assert taus[0] == 1.0

    def test_final_fraction_is_success_rate(self):
        rows = [
            mk(solver="a", replicate=0, iterations=10),
            mk(solver="a", replicate=1, iterations=10, stop="max-iterations"),
            mk(solver="b", replicate=0, iterations=20),
            mk(solver="b", replicate=1, iterations=20),
        ]
        curves = {c.solver: c for c in performance_profile(rows)}
        assert curves["a"].breakpoints[-1][1] == 0.5
        assert curves["b"].breakpoints[-1][1] == 1.0

    def test_empty_rejected(self):
        with pytest.raises(EmptyGroup):
            performance_profile([])


class TestExport:
    def test_results_round_trip(self, tmp_path):
        rows = [
            mk(solver="crm", n=10, p=20, replicate=3, iterations=123,
               seed=2**63 - 11, residual=3.25e-7),
            mk(solver="ppm", stop="max-iterations", residual=math.nan),
        ]
        path = tmp_path / "results.csv"
        export(rows, path)
        back = read_results_csv(path)
        for orig, rt in zip(rows, back):
            assert rt.solver == orig.solver
            assert rt.n == orig.n and rt.p == orig.p
            assert rt.replicate == orig.replicate
            assert rt.seed == orig.seed
            assert rt.iterations == orig.iterations
            assert rt.stop_reason == orig.stop_reason

    def test_empty_writes_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        export([], path)
        assert path.read_text() == (
            "solver,n,p,replicate,seed,iterations,elapsed_s,final_residual,stop_reason\n"
        )

    def test_six_significant_digits(self, tmp_path):
        path = tmp_path / "one.csv"
        export([mk(residual=1.23456789e-7)], path)
        assert "1.23457e-07" in path.read_text()

    def test_summary_csv(self, tmp_path):
        stats = summarize([mk(iterations=1), mk(iterations=3)])
        path = tmp_path / "summary.csv"
        export(stats, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "solver,mean,max,min,std,count"
        assert lines[1].startswith("ppm,2,3,1,")

    def test_profile_csv(self, tmp_path):
        curves = [ProfileCurve(solver="a", breakpoints=[(1.0, 0.5), (2.0, 1.0)])]
        path = tmp_path / "profile.csv"
        export(curves, path)
        assert path.read_text() == "solver,tau,fraction\na,1,0.5\na,2,1\n"

    def test_unknown_items(self, tmp_path):
        with pytest.raises(TypeError):
            export([object()], tmp_path / "x.csv")


class TestGoldenFiles:
    # Frozen outputs of the tiny grid; regenerating them must be
    # byte-stable (elapsed is wall time, so it is zeroed first).
    def fresh(self):
        return strip_elapsed(run_experiment(tiny_grid()))

    def test_results_csv_bytes(self, tmp_path):
        path = tmp_path / "results.csv"
        export(self.fresh(), path)
        assert path.read_bytes() == (DATA / "bench_tiny_results.csv").read_bytes()

    def test_profile_csv_bytes(self, tmp_path):
        path = tmp_path / "profile.csv"
        export(performance_profile(self.fresh()), path)
        assert path.read_bytes() == (DATA / "bench_tiny_profile.csv").read_bytes()
