"""End-to-end runs of the command line interface, in process."""
import dataclasses
import json

import pytest

from crmfp import read_results_csv
from crmfp.cli import main


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
