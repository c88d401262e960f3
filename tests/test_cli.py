"""End-to-end runs of the command line interface, in process."""
import dataclasses
import inspect
import json
import pathlib

import pytest

from crmfp import GridConfig, InstanceSpec, SolverConfig, read_results_csv, summarize
from crmfp.bench import _METRICS
from crmfp.cli import _parser, main


def bench_args(out_dir, *extra):
    return [
        "bench",
        "--n", "3",
        "--p", "2",
        "--replicates", "2",
        "--master-seed", "7",
        "--max-iter", "2000",
        "--out-dir", str(out_dir),
        *extra,
    ]


def rows_without_elapsed(path):
    return [dataclasses.replace(r, elapsed_s=0.0) for r in read_results_csv(path)]


@pytest.fixture()
def instance_path(tmp_path):
    path = tmp_path / "inst.json"
    code = main(["gen", "--n", "3", "--p", "2", "--seed", "7", "--out", str(path)])
    assert code == 0
    return path


class TestGen:
    def test_writes_loadable_instance(self, instance_path):
        data = json.loads(instance_path.read_text())
        assert data["spec"]["n"] == 3
        assert len(data["operators"]) == 2

    def test_deterministic(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        main(["gen", "--n", "4", "--p", "1", "--seed", "3", "--out", str(a)])
        main(["gen", "--n", "4", "--p", "1", "--seed", "3", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestRun:
    @pytest.mark.parametrize("solver", ["crm", "map", "ppm", "spm"])
    def test_each_solver_converges(self, instance_path, tmp_path, solver):
        report = tmp_path / f"{solver}.json"
        code = main([
            "run", "--instance", str(instance_path), "--solver", solver,
            "--out", str(report),
        ])
        assert code == 0
        data = json.loads(report.read_text())
        assert data["stop_reason"] == "converged"
        assert data["final_residual"] < 1e-6
        assert len(data["final_point"]) == 3

    def test_crm_diagnostics_pass(self, instance_path):
        code = main([
            "run", "--instance", str(instance_path), "--solver", "crm",
            "--diagnostics",
        ])
        assert code == 0

    def test_nonconverged_exit_code(self, instance_path):
        code = main([
            "run", "--instance", str(instance_path), "--solver", "ppm",
            "--max-iter", "2",
        ])
        assert code == 1

    def test_diagnostics_require_crm(self, instance_path, capsys):
        code = main([
            "run", "--instance", str(instance_path), "--solver", "ppm",
            "--diagnostics",
        ])
        assert code == 2
        assert "crm" in capsys.readouterr().err

    def test_crm_beats_ppm_on_iterations(self, instance_path, tmp_path):
        counts = {}
        for solver in ("crm", "ppm"):
            report = tmp_path / f"{solver}.json"
            main(["run", "--instance", str(instance_path), "--solver", solver,
                  "--out", str(report)])
            counts[solver] = json.loads(report.read_text())["iterations"]
        assert counts["crm"] < counts["ppm"]


class TestBench:
    def test_writes_report_files(self, tmp_path):
        out = tmp_path / "bench"
        assert main(bench_args(out)) == 0
        names = {f.name for f in out.iterdir()}
        assert names == {
            "results.csv",
            "summary_overall.csv",
            "summary_by_n.csv",
            "summary_by_p.csv",
            "profile_iterations.csv",
        }
        rows = read_results_csv(out / "results.csv")
        assert len(rows) == 4
        assert {r.stop_reason for r in rows} == {"converged"}

    def test_deterministic_across_invocations(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(bench_args(a))
        main(bench_args(b))
        assert rows_without_elapsed(a / "results.csv") == rows_without_elapsed(
            b / "results.csv"
        )

    def test_workers_flag_keeps_results(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(bench_args(a))
        main(bench_args(b, "--workers", "2"))
        assert rows_without_elapsed(a / "results.csv") == rows_without_elapsed(
            b / "results.csv"
        )

    def test_evaluation_mode_flag_is_gone(self, tmp_path):
        # Evaluation is always batched; there is no switch to turn it off.
        with pytest.raises(SystemExit):
            main(bench_args(tmp_path, "--no-fused-blocks"))

    def test_projector_tolerance_flag_is_gone(self, tmp_path):
        # The grid projects through the KKT root-find; no splitting to tune.
        with pytest.raises(SystemExit):
            main(bench_args(tmp_path, "--admm-tol", "1e-8"))


class TestSummarizeAndProfile:
    @pytest.fixture()
    def results_csv(self, tmp_path):
        out = tmp_path / "bench"
        main(bench_args(out))
        return out / "results.csv"

    def test_summarize_prints_groups(self, results_csv, capsys):
        code = main(["summarize", "--results", str(results_csv)])
        assert code == 0
        text = capsys.readouterr().out
        assert "solver=crm" in text and "solver=ppm" in text

    def test_summarize_writes_csv(self, results_csv, tmp_path):
        out = tmp_path / "stats.csv"
        code = main([
            "summarize", "--results", str(results_csv),
            "--group-by", "solver,n", "--out", str(out),
        ])
        assert code == 0
        header = out.read_text().splitlines()[0]
        assert header == "solver,n,mean,max,min,std,count"

    def test_profile_writes_curves(self, results_csv, tmp_path):
        out = tmp_path / "profile.csv"
        code = main(["profile", "--results", str(results_csv), "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "solver,tau,fraction"
        assert len(lines) > 2


class TestDefaults:
    """Every default of the parser is the default of the object it builds."""

    def test_parser_defaults_are_the_dataclasses_defaults(self):
        parser = _parser()
        run = parser.parse_args(["run", "--instance", "i.json", "--solver", "ppm"])
        cfg = SolverConfig()
        assert (run.tol, run.max_iter) == (cfg.tolerance, cfg.max_iterations)
        bench = parser.parse_args(["bench", "--out-dir", "d"])
        grid = GridConfig()
        assert (tuple(bench.n), tuple(bench.p), bench.replicates, bench.master_seed,
                bench.tol, bench.max_iter, bench.diagnostics) == (
            grid.n_values, grid.p_values, grid.replicates, grid.master_seed,
            grid.tolerance, grid.max_iterations, grid.diagnostics)
        gen = parser.parse_args(["gen", "--n", "3", "--p", "2", "--seed", "1", "--out", "o"])
        assert InstanceSpec(n=3, p=2, seed=1, gamma=gen.gamma, density=gen.density) == (
            InstanceSpec(n=3, p=2, seed=1))

    def test_summarize_metrics_are_the_bench_metrics(self):
        parser = _parser()
        for metric in _METRICS:
            assert parser.parse_args(["summarize", "--results", "r", "--metric", metric]).metric
        with pytest.raises(SystemExit):
            parser.parse_args(["summarize", "--results", "r", "--metric", "wall_s"])
        default = parser.parse_args(["summarize", "--results", "r"]).metric
        assert default == inspect.signature(summarize).parameters["metric"].default


class TestInvalidValues:
    """Invalid numbers give one error line and exit status 2, not a traceback."""

    @pytest.fixture()
    def cases(self, instance_path, tmp_path):
        run = ["run", "--instance", str(instance_path), "--solver", "ppm"]
        return {
            "run --max-iter 0": ("run", run + ["--max-iter", "0"]),
            "run --tol -1": ("run", run + ["--tol", "-1"]),
            "run --tol nan": ("run", run + ["--tol", "nan"]),
            "bench --replicates 0": ("bench", bench_args(tmp_path / "a", "--replicates", "0")),
            "bench --max-iter 0": ("bench", bench_args(tmp_path / "b", "--max-iter", "0")),
            "bench --tol -1": ("bench", bench_args(tmp_path / "c", "--tol", "-1")),
            "bench --n 0": ("bench", bench_args(tmp_path / "d", "--n", "0")),
            "bench --workers 0": ("bench", bench_args(tmp_path / "e", "--workers", "0")),
            "bench --master-seed -1": ("bench", bench_args(tmp_path / "f", "--master-seed", "-1")),
            "gen --n 0": ("gen", ["gen", "--n", "0", "--p", "2", "--seed", "1",
                                  "--out", str(tmp_path / "i.json")]),
            "gen --seed -1": ("gen", ["gen", "--n", "2", "--p", "2", "--seed", "-1",
                                      "--out", str(tmp_path / "j.json")]),
        }

    def test_one_line_and_status_two(self, cases, tmp_path, capsys):
        for label, (command, argv) in cases.items():
            capsys.readouterr()
            assert main(argv) == 2, label
            captured = capsys.readouterr()
            lines = captured.err.splitlines()
            assert len(lines) == 1 and lines[0].startswith(f"crmfp {command}: error: "), label
            assert captured.out == "", label
        # Nothing was written for a rejected command.
        assert sorted(p.name for p in tmp_path.iterdir()) == ["inst.json"]

    @pytest.mark.parametrize("gamma", ["nan", "inf"])
    def test_gen_with_a_non_finite_gamma(self, gamma, tmp_path, capsys):
        out = tmp_path / "x.json"
        argv = ["gen", "--n", "3", "--p", "2", "--seed", "1", "--gamma", gamma, "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "crmfp gen: error: gamma must be positive and finite\n")
        assert not out.exists()

    def test_diagnostics_error_uses_the_same_form(self, instance_path, capsys):
        argv = ["run", "--instance", str(instance_path), "--solver", "map", "--diagnostics"]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "crmfp run: error: diagnostics are only available for the crm solver\n"
        )


class TestBadFiles:
    """Missing, unwritable or malformed files and unknown fields: one line,
    status 2."""

    @pytest.fixture()
    def cases(self, instance_path, tmp_path, tmp_path_factory):
        golden_path = pathlib.Path(__file__).parent / "data" / "bench_tiny_results.csv"
        golden = str(golden_path)
        missing = str(tmp_path / "missing")
        # Files that exist but are malformed, kept out of tmp_path.
        inputs = tmp_path_factory.mktemp("inputs")
        bad = {
            "x.csv": "a,b\n1,2\n",
            "abc.csv": golden_path.read_text().replace(",78,", ",abc,"),
            "two.csv": "solver,n\ncrm,3\n",
            "bad.json": "{",
            "x.json": '{"spec": {}}',
        }
        for name, text in bad.items():
            (inputs / name).write_text(text)
        bad = {name: str(inputs / name) for name in bad}
        return {
            "summarize --results without result columns": (
                "summarize", ["summarize", "--results", bad["x.csv"]],
                "missing columns: solver, n, p"),
            "profile --results without result columns": (
                "profile", ["profile", "--results", bad["x.csv"],
                            "--out", str(tmp_path / "o.csv")],
                "missing columns: solver, n, p"),
            "summarize --results with iterations=abc": (
                "summarize", ["summarize", "--results", bad["abc.csv"]],
                "line 2: bad iterations 'abc'"),
            "summarize --results with two columns": (
                "summarize", ["summarize", "--results", bad["two.csv"]],
                "missing columns: p, replicate"),
            "run --instance a csv file": (
                "run", ["run", "--instance", bad["x.csv"], "--solver", "crm"], bad["x.csv"]),
            "run --instance malformed json": (
                "run", ["run", "--instance", bad["bad.json"], "--solver", "crm"], bad["bad.json"]),
            "run --instance with an empty spec": (
                "run", ["run", "--instance", bad["x.json"], "--solver", "crm",
                        "--out", str(tmp_path / "report.json")],
                "spec: n: missing"),
            "run --instance missing": (
                "run", ["run", "--instance", missing + ".json", "--solver", "crm"],
                missing + ".json"),
            "run --out into a missing directory": (
                "run", ["run", "--instance", str(instance_path), "--solver", "ppm",
                        "--out", missing + "/report.json"],
                missing + "/report.json"),
            "summarize --results missing": (
                "summarize", ["summarize", "--results", missing + ".csv"], missing + ".csv"),
            "profile --results missing": (
                "profile", ["profile", "--results", missing + ".csv",
                            "--out", str(tmp_path / "o.csv")],
                missing + ".csv"),
            "gen --out into a missing directory": (
                "gen", ["gen", "--n", "3", "--p", "2", "--seed", "1",
                        "--out", missing + "/x.json"],
                missing + "/x.json"),
            "summarize --group-by bogus": (
                "summarize", ["summarize", "--results", golden, "--group-by", "bogus"],
                "cannot group by 'bogus'"),
        }

    def test_one_line_and_status_two(self, cases, tmp_path, capsys):
        for label, (command, argv, names) in cases.items():
            capsys.readouterr()
            assert main(argv) == 2, label
            captured = capsys.readouterr()
            lines = captured.err.splitlines()
            assert len(lines) == 1 and lines[0].startswith(f"crmfp {command}: error: "), label
            assert names in lines[0], label
            assert captured.out == "", label
        # Nothing was written for a rejected command.
        assert sorted(p.name for p in tmp_path.iterdir()) == ["inst.json"]
