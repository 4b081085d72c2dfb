import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qnbench
from qnbench import acceptance
from qnbench.cli import main


def run_cli(*args):
    return main([str(a) for a in args])


def read_csv(path):
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        rows = list(reader)
    return header, rows


class TestFactorsCommand:
    def test_basic_run(self, tmp_path):
        out = tmp_path / "factors.csv"
        assert run_cli("factors", "--q", 4, "--k-max", 200, "--out", out) == 0
        header, rows = read_csv(out)
        assert header == ["k", "factor", "fixed_point", "abs_gap", "envelope"]
        assert len(rows) == 201
        first = rows[0]
        assert float(first[1]) == pytest.approx(0.666667, abs=5e-7)
        assert float(first[2]) == pytest.approx(0.754878, abs=5e-7)
        for row in rows:
            assert float(row[3]) <= float(row[4])

    def test_large_exponent_envelope(self, tmp_path):
        out = tmp_path / "factors100.csv"
        assert run_cli("factors", "--q", 100, "--k-max", 120, "--out", out) == 0
        _, rows = read_csv(out)
        assert all(float(r[3]) <= float(r[4]) for r in rows)

    def test_zero_iterations_base_case(self, tmp_path):
        out = tmp_path / "factors0.csv"
        assert run_cli("factors", "--k-max", 0, "--out", out) == 0
        _, rows = read_csv(out)
        assert len(rows) == 1
        assert float(rows[0][3]) == pytest.approx(float(rows[0][4]), rel=1e-12)

    def test_manifest_written(self, tmp_path):
        out = tmp_path / "factors.csv"
        run_cli("factors", "--q", 6, "--out", out)
        manifest = (out.parent / (out.name + ".manifest")).read_text()
        assert "command=factors" in manifest
        assert "q=6" in manifest
        assert f"artifact={out}" in manifest

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("factors", "--q", 4, "--k-max", 50, "--out", a)
        run_cli("factors", "--q", 4, "--k-max", 50, "--out", b)
        assert a.read_bytes() == b.read_bytes()

    def test_usage_error_exit_code(self, tmp_path):
        assert run_cli("factors", "--q", 3, "--out", tmp_path / "x.csv") == 2

    def test_io_error_exit_code(self, tmp_path):
        missing = tmp_path / "no" / "such" / "dir" / "out.csv"
        assert run_cli("factors", "--out", missing) == 3

    def test_rejects_negative_k_max_without_writing(self, tmp_path):
        assert run_cli("factors", "--k-max", -1, "--out", tmp_path / "x.csv") == 2
        assert list(tmp_path.iterdir()) == []


class TestPopulationCommand:
    def test_schema_and_theory_overlay(self, tmp_path):
        out = tmp_path / "population.csv"
        code = run_cli(
            "population", "--q", 4, "--d", 4, "--m", 8, "--iters", 60,
            "--seed", 3, "--out", out,
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["method", "k", "error_norm", "loss", "grad_norm"]
        methods = {row[0] for row in rows}
        assert methods == {"gd-constant", "gd-polyak", "newton", "bfgs", "bfgs-theory"}

        bfgs = {int(r[1]): float(r[2]) for r in rows if r[0] == "bfgs"}
        theory = {int(r[1]): float(r[2]) for r in rows if r[0] == "bfgs-theory"}
        for k in range(min(20, len(bfgs) - 1)):
            assert bfgs[k] == pytest.approx(theory[k], rel=1e-6)

        newton = [float(r[2]) for r in rows if r[0] == "newton"]
        for k in range(1, min(len(newton), 20)):
            if newton[k - 1] < 1e-12:
                break
            assert newton[k] / newton[k - 1] == pytest.approx(2.0 / 3.0, rel=1e-8)

    def test_gd_trails_bfgs(self, tmp_path):
        out = tmp_path / "population.csv"
        run_cli(
            "population", "--q", 4, "--d", 10, "--m", 100, "--step", 1e-4,
            "--iters", 1000, "--seed", 1, "--out", out,
        )
        _, rows = read_csv(out)
        gd = {int(r[1]): float(r[2]) for r in rows if r[0] == "gd-constant"}
        bfgs = {int(r[1]): float(r[2]) for r in rows if r[0] == "bfgs"}
        assert gd[1000] > bfgs[40]

    def test_preset_resolves_parameters(self, tmp_path):
        out = tmp_path / "population.csv"
        run_cli("population", "--preset", "d10-q10", "--iters", 5, "--out", out)
        manifest = (out.parent / (out.name + ".manifest")).read_text()
        assert "q=10" in manifest
        assert "m=100" in manifest
        assert "condition_number=" in manifest

    def test_rejects_wide_design(self, tmp_path):
        assert run_cli("population", "--d", 10, "--m", 5, "--out", tmp_path / "x.csv") == 2

    @pytest.mark.parametrize("sizes", [("--d", 0), ("--d", 0, "--m", 0)])
    def test_rejects_empty_design_without_writing(self, tmp_path, sizes):
        assert run_cli("population", *sizes, "--out", tmp_path / "x.csv") == 2
        assert list(tmp_path.iterdir()) == []

    def test_overflowing_gd_is_a_diverged_stop(self, tmp_path):
        # at this step the pow-norm value overflows on the third iterate
        out = tmp_path / "population.csv"
        code = run_cli(
            "population", "--preset", "d10-q10", "--step", 1e-2, "--iters", 50,
            "--out", out,
        )
        assert code == 0
        _, rows = read_csv(out)
        gd = [row for row in rows if row[0] == "gd-constant"]
        assert float(gd[-1][3]) == np.inf


class TestEmpiricalCommand:
    def test_schema_and_flags(self, tmp_path):
        out = tmp_path / "empirical.csv"
        code = run_cli(
            "empirical", "--regime", "low-snr", "--n", 400, "--trials", 2,
            "--iters", 60, "--seed", 5, "--out", out,
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == [
            "method", "trial", "k", "error_to_theta_star", "train_loss",
            "val_loss", "early_stop_flag",
        ]
        methods = {r[0] for r in rows}
        assert methods == {"gd-constant", "gd-polyak", "newton", "bfgs"}
        for method in methods:
            for trial in ("0", "1"):
                flags = [r for r in rows if r[0] == method and r[1] == trial and r[6] == "1"]
                assert len(flags) == 1

    def test_default_gd_step_recorded(self, tmp_path):
        out = tmp_path / "empirical.csv"
        run_cli("empirical", "--n", 200, "--trials", 1, "--iters", 20, "--out", out)
        manifest = (out.parent / (out.name + ".manifest")).read_text()
        assert "gd-step=0.1" in manifest

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            run_cli(
                "empirical", "--n", 300, "--trials", 2, "--iters", 40,
                "--seed", 9, "--out", path,
            )
        assert a.read_bytes() == b.read_bytes()

    def test_bfgs_reaches_radius_faster_than_gd(self, tmp_path):
        out = tmp_path / "empirical.csv"
        run_cli(
            "empirical", "--regime", "low-snr", "--d", 1, "--n", 2000,
            "--trials", 3, "--iters", 3000, "--seed", 7, "--out", out,
        )
        _, rows = read_csv(out)
        ratios = []
        for trial in ("0", "1", "2"):
            bfgs_err = [float(r[3]) for r in rows if r[0] == "bfgs" and r[1] == trial]
            gd_err = [float(r[3]) for r in rows if r[0] == "gd-constant" and r[1] == trial]
            threshold = 1.5 * min(bfgs_err)
            k_bfgs = next(k for k, e in enumerate(bfgs_err) if e <= threshold)
            k_gd = next(
                (k for k, e in enumerate(gd_err) if e <= threshold), len(gd_err)
            )
            ratios.append(k_gd / max(k_bfgs, 1))
        assert np.median(ratios) >= 3.0

    def test_rejects_tiny_n(self, tmp_path):
        assert run_cli("empirical", "--n", 5, "--out", tmp_path / "x.csv") == 2

    def test_rejects_zero_trials_without_writing(self, tmp_path):
        code = run_cli("empirical", "--trials", 0, "--n", 100, "--out", tmp_path / "x.csv")
        assert code == 2
        assert list(tmp_path.iterdir()) == []

    def test_val_loss_column_is_early_stop_losses(self, tmp_path, monkeypatch):
        import qnbench.cli
        from qnbench.glmsim import early_stop_by_validation

        choices = []

        def keep(trace, val):
            choices.append(early_stop_by_validation(trace, val))
            return choices[-1]

        monkeypatch.setattr(qnbench.cli, "early_stop_by_validation", keep)
        out = tmp_path / "empirical.csv"
        run_cli("empirical", "--n", 200, "--trials", 2, "--iters", 15, "--out", out)
        _, rows = read_csv(out)
        assert [row[5] for row in rows] == [
            repr(float(value)) for choice in choices for value in choice.losses
        ]


class TestRadiusCommand:
    def test_low_snr_slope_in_band(self, tmp_path):
        out = tmp_path / "radius.csv"
        code = run_cli(
            "radius", "--regime", "low-snr", "--n-grid", "100,316,1000,3162,10000",
            "--trials", 20, "--init-radius", 2.0, "--seed", 11, "--out", out,
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["n", "median_min_error", "q25", "q75", "median_iters_to_min"]
        assert rows[-1][0] == "slope"
        slope = float(rows[-1][1])
        assert slope == pytest.approx(-0.25, abs=0.08)
        for row in rows[:-1]:
            q25, med, q75 = float(row[2]), float(row[1]), float(row[3])
            assert q25 <= med <= q75

    def test_high_snr_isotropic_slope_in_band(self, tmp_path):
        out = tmp_path / "radius.csv"
        code = run_cli(
            "radius", "--regime", "high-snr", "--cov", "isotropic",
            "--n-grid", "100,316,1000,3162,10000", "--trials", 20,
            "--init-radius", 1.0, "--seed", 11, "--out", out,
        )
        assert code == 0
        _, rows = read_csv(out)
        assert float(rows[-1][1]) == pytest.approx(-0.5, abs=0.1)

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            run_cli(
                "radius", "--n-grid", "50,100,200", "--trials", 4,
                "--max-iters", 30, "--seed", 3, "--out", path,
            )
        assert a.read_bytes() == b.read_bytes()

    def test_rejects_short_grid(self, tmp_path):
        assert run_cli("radius", "--n-grid", "100,200", "--out", tmp_path / "x.csv") == 2

    @pytest.mark.parametrize("method", ["sgd", "scalar-bfgs"])
    def test_rejects_unusable_method_without_writing(self, tmp_path, method):
        code = run_cli(
            "radius", "--method", method, "--d", 4, "--n-grid", "50,100,200",
            "--trials", 2, "--out", tmp_path / "radius.csv",
        )
        assert code == 2
        assert list(tmp_path.iterdir()) == []


class TestSvgCommand:
    def write_csv(self, path, rows, header=("x", "y")):
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            writer.writerows(rows)

    def test_two_point_polyline(self, tmp_path):
        data = tmp_path / "data.csv"
        self.write_csv(data, [(0, 1), (1, 2)])
        out = tmp_path / "chart.svg"
        code = run_cli("svg", "--in", data, "--x-col", "x", "--y-cols", "y", "--out", out)
        assert code == 0
        text = out.read_text()
        assert text.count("<polyline") == 1
        points = text.split('points="')[1].split('"')[0]
        assert len(points.split()) == 2
        assert f"{data}.manifest" in text

    def test_log_axis_rejects_zero_with_row_number(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        self.write_csv(data, [(1, 1), (2, 0)])
        out = tmp_path / "chart.svg"
        code = run_cli(
            "svg", "--in", data, "--x-col", "x", "--y-cols", "y", "--log-y",
            "--out", out,
        )
        assert code == 2
        assert "row 3" in capsys.readouterr().err

    def test_malformed_csv_names_row(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("x,y\n1,2\n3,oops\n")
        code = run_cli(
            "svg", "--in", data, "--x-col", "x", "--y-cols", "y",
            "--out", tmp_path / "c.svg",
        )
        assert code == 2
        assert "row 3" in capsys.readouterr().err

    def test_missing_column_rejected(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        self.write_csv(data, [(1, 2)])
        code = run_cli(
            "svg", "--in", data, "--x-col", "nope", "--y-cols", "y",
            "--out", tmp_path / "c.svg",
        )
        assert code == 2

    def test_non_finite_cells_are_skipped(self, tmp_path):
        # a diverged run's last record is non-finite: its line just ends
        data = tmp_path / "data.csv"
        self.write_csv(
            data,
            [("a", 0, 1), ("a", 1, 2), ("a", 2, "nan"), ("b", 0, 3), ("b", 1, "inf"),
             ("b", "-inf", 1), ("b", 2, 1)],
            header=("method", "k", "err"),
        )
        out = tmp_path / "chart.svg"
        code = run_cli(
            "svg", "--in", data, "--x-col", "k", "--y-cols", "err",
            "--group-col", "method", "--out", out,
        )
        assert code == 0
        text = out.read_text()
        assert "nan" not in text.lower()
        assert "inf" not in text.lower()
        points = [part.split('"')[0] for part in text.split('points="')[1:]]
        assert [len(p.split()) for p in points] == [2, 2]

    def test_grouped_series(self, tmp_path):
        data = tmp_path / "data.csv"
        self.write_csv(
            data,
            [("a", 0, 1), ("a", 1, 2), ("b", 0, 3), ("b", 1, 1)],
            header=("method", "k", "err"),
        )
        out = tmp_path / "chart.svg"
        code = run_cli(
            "svg", "--in", data, "--x-col", "k", "--y-cols", "err",
            "--group-col", "method", "--out", out,
        )
        assert code == 0
        assert out.read_text().count("<polyline") == 2


class TestSelfcheck:
    def test_passes(self, capsys):
        assert run_cli("selfcheck") == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") == len(acceptance.CHECKS)

    def test_failing_check_exits_1(self, capsys, monkeypatch):
        checks = [(1, "holds", lambda: True), (2, "does not hold", lambda: False)]
        monkeypatch.setattr(acceptance, "CHECKS", checks)
        assert run_cli("selfcheck") == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["PASS — holds", "FAIL — does not hold", "selfcheck: 1 failure(s)"]

    def test_raising_check_is_a_failure(self, capsys, monkeypatch):
        def crash():
            raise ZeroDivisionError("division by zero")

        monkeypatch.setattr(acceptance, "CHECKS", [(1, "crashes", crash)])
        assert run_cli("selfcheck") == 1
        out = capsys.readouterr().out
        assert "FAIL — crashes (ZeroDivisionError: division by zero)" in out


class TestAssumptionExitCode:
    def test_positivity_failure_maps_to_exit_4(self, monkeypatch):
        import qnbench.cli as cli
        from qnbench.objectives import AssumptionViolationError

        def explode(params):
            raise AssumptionViolationError("no admissible matrix")

        monkeypatch.setitem(cli.COMMANDS, "factors", ([], explode))
        assert run_cli("factors") == 4


class TestConfigPrecedence:
    def test_flags_beat_config_file(self, tmp_path):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text("q=6\nk-max=10\n")
        out = tmp_path / "factors.csv"
        run_cli("factors", "--config", cfg, "--q", 4, "--out", out)
        manifest = (out.parent / (out.name + ".manifest")).read_text()
        assert "q=4" in manifest
        assert "k-max=10" in manifest

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text("q=6\niter=5\n")
        out = tmp_path / "factors.csv"
        assert run_cli("factors", "--config", cfg, "--out", out) == 2
        assert f"{cfg}:2: unknown key 'iter'" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_config_is_usage_error(self, tmp_path):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text("not a key value line\n")
        assert run_cli("factors", "--config", cfg, "--out", tmp_path / "x.csv") == 2


class TestOutputDirEnv:
    def test_bare_names_land_in_env_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QNBENCH_OUT_DIR", str(tmp_path))
        assert run_cli("factors", "--k-max", 5, "--out", "factors.csv") == 0
        assert (tmp_path / "factors.csv").exists()
        assert (tmp_path / "factors.csv.manifest").exists()

    def test_absolute_paths_ignore_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QNBENCH_OUT_DIR", str(tmp_path / "elsewhere"))
        out = tmp_path / "direct.csv"
        assert run_cli("factors", "--k-max", 5, "--out", out) == 0
        assert out.exists()


# Runs one small call of every data command, and selfcheck, in the same
# interpreter, then prints the scipy modules that got loaded.
COMMANDS_SCRIPT = """
import json, sys
from qnbench.cli import main
calls = [
    ["population", "--preset", "d10-q4", "--iters", "20"],
    ["empirical", "--n", "200", "--trials", "1", "--iters", "20"],
    ["radius", "--n-grid", "50,100,200", "--trials", "2", "--max-iters", "10"],
    ["factors", "--k-max", "5"],
    ["selfcheck"],
]
codes = [main(argv) for argv in calls]
print(json.dumps({"codes": codes, "scipy": sorted(
    name for name in sys.modules if name.split(".")[0] == "scipy")}))
"""


class TestDependencies:
    def test_commands_load_no_scipy(self, tmp_path):
        # numpy's LAPACK does every dense solve: a second BLAS (scipy's
        # OpenBLAS, with its own thread pool) must not load at all
        src = str(Path(qnbench.__file__).resolve().parent.parent)
        env = {**os.environ, "QNBENCH_OUT_DIR": str(tmp_path),
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(
            [sys.executable, "-c", COMMANDS_SCRIPT], env=env, cwd=tmp_path,
            capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        report = json.loads(done.stdout.splitlines()[-1])
        assert report == {"codes": [0, 0, 0, 0, 0], "scipy": []}
