import csv
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import qnbench
import qnbench.cli
import qnbench.glmsim
import qnbench.solvers
from qnbench import acceptance
from qnbench.cli import _write_csv, main
from qnbench.glmsim import high_snr_config
from qnbench.rates import contraction_gap_table, contraction_sequence
from qnbench.solvers import METHODS
from qnbench.svg import line_chart


def run_cli(*args):
    return main([str(a) for a in args])


def read_csv(path):
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        rows = list(reader)
    return header, rows


def reruns_identical(tmp_path, *args):
    outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
    assert all(run_cli(*args, "--out", out) == 0 for out in outs)
    return outs[0].read_bytes() == outs[1].read_bytes()


def assert_refused(tmp_path, *args):
    # a usage error (exit 2) that writes neither the CSV nor its manifest
    assert run_cli(*args, "--out", tmp_path / "x.csv") == 2
    assert list(tmp_path.iterdir()) == []


def tree(path):
    """Every entry under ``path``, with its bytes (``None`` for a directory)."""
    return {
        entry.relative_to(path): None if entry.is_dir() else entry.read_bytes()
        for entry in path.rglob("*")
    }


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
        assert reruns_identical(tmp_path, "factors", "--q", 4, "--k-max", 50)

    def test_usage_error_exit_code(self, tmp_path):
        assert run_cli("factors", "--q", 3, "--out", tmp_path / "x.csv") == 2

    def test_io_error_exit_code(self, tmp_path):
        missing = tmp_path / "no" / "such" / "dir" / "out.csv"
        assert run_cli("factors", "--out", missing) == 3

    def test_line_break_in_out_is_usage_error_without_writing(self, tmp_path):
        # the name would forge a q=99.csv line in the manifest
        code = run_cli("factors", "--q", 4, "--k-max", 3, "--out", tmp_path / "g\nq=99.csv")
        assert code == 2
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("out_dir", ["a\nq=99", "a\rb", "a\u2028b"])
    def test_line_break_in_out_dir_is_usage_error_without_writing(
        self, tmp_path, monkeypatch, out_dir
    ):
        base = tmp_path / out_dir
        base.mkdir()
        monkeypatch.setenv("QNBENCH_OUT_DIR", str(base))
        assert run_cli("factors", "--k-max", 3, "--out", "factors.csv") == 2
        assert list(base.iterdir()) == []

    def test_rejects_negative_k_max_without_writing(self, tmp_path):
        assert_refused(tmp_path, "factors", "--k-max", -1)


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

    def test_no_preset_is_d10_q4(self, tmp_path):
        out = tmp_path / "population.csv"
        written = []
        for preset in ((), ("--preset", "d10-q4")):
            assert run_cli("population", *preset, "--iters", 60, "--seed", 11,
                           "--out", out) == 0
            written.append((out.read_bytes(), Path(f"{out}.manifest").read_text()))
        (csv_bare, manifest_bare), (csv_named, manifest_named) = written
        assert csv_bare == csv_named
        lines = list(zip(manifest_bare.splitlines(), manifest_named.splitlines(),
                         strict=True))
        assert [pair for pair in lines if pair[0] != pair[1]] == [
            ("preset=", "preset=d10-q4")
        ]

    def test_rejects_wide_design(self, tmp_path):
        assert run_cli("population", "--d", 10, "--m", 5, "--out", tmp_path / "x.csv") == 2

    @pytest.mark.parametrize("sizes", [("--d", 0), ("--d", 0, "--m", 0)])
    def test_rejects_empty_design_without_writing(self, tmp_path, sizes):
        assert_refused(tmp_path, "population", *sizes)

    @pytest.mark.parametrize("step", ["inf", "nan", "0"])
    def test_rejects_bad_step_without_writing(self, tmp_path, step):
        assert_refused(tmp_path, "population", "--iters", 5, "--step", step)

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
        assert reruns_identical(
            tmp_path, "empirical", "--n", 300, "--trials", 2, "--iters", 40, "--seed", 9
        )

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
        assert_refused(tmp_path, "empirical", "--trials", 0, "--n", 100)

    @pytest.mark.parametrize("step", ["nan", "inf"])
    def test_rejects_non_finite_gd_step_without_writing(self, tmp_path, step):
        assert_refused(
            tmp_path, "empirical", "--n", 100, "--trials", 1, "--iters", 5,
            "--gd-step", step,
        )

    @pytest.mark.parametrize("d", [1, 4])
    def test_high_snr_trials_start_facing_theta_star_at_error_one(
        self, tmp_path, monkeypatch, d
    ):
        runs = record_calls(monkeypatch, "run_glm_method", qnbench.glmsim)
        out = tmp_path / "empirical.csv"
        code = run_cli(
            "empirical", "--regime", "high-snr", "--d", d, "--n", 200, "--trials", 3,
            "--iters", 5, "--seed", 4, "--out", out,
        )
        assert code == 0
        assert len(runs) == 3 * len(METHODS)
        for (method, _train, theta0, _solver, theta_star), trace in runs:
            step = theta0 - theta_star
            assert np.linalg.norm(step) == pytest.approx(1.0, rel=1e-15)
            assert step @ theta_star > 0.0
            if d == 1:  # theta0 = 2 theta_star: the error is 1 to the bit
                assert trace.errors[0] == 1.0

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
        target, tolerance = acceptance.LOW_SNR_BAND
        assert slope == pytest.approx(target, abs=tolerance)
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
        target, tolerance = acceptance.HIGH_SNR_BAND
        assert float(rows[-1][1]) == pytest.approx(target, abs=tolerance)

    def test_deterministic(self, tmp_path):
        assert reruns_identical(
            tmp_path, "radius", "--n-grid", "50,100,200", "--trials", 4, "--max-iters", 30,
            "--seed", 3,
        )

    def test_rejects_short_grid(self, tmp_path, capsys):
        assert_refused(tmp_path, "radius", "--n-grid", "100,200")
        assert "need at least three sample sizes" in capsys.readouterr().err

    def test_rejects_zero_trials_without_writing(self, tmp_path, capsys):
        assert_refused(tmp_path, "radius", "--n-grid", "50,100,200", "--trials", 0)
        assert "need at least one trial" in capsys.readouterr().err

    def test_rejects_repeated_sizes_without_writing(self, tmp_path):
        # three entries but two distinct sizes: the slope would be fitted
        # to a duplicated point
        assert_refused(tmp_path, "radius", "--n-grid", "100,100,1000", "--trials", 3)

    @pytest.mark.parametrize("method,d", [
        pytest.param(method, d, id=method if d == 4 else f"{method}-d{d}")
        for d in (4, 1) for method in ("sgd", "scalar-bfgs")
    ])
    def test_rejects_unusable_method_without_writing(self, tmp_path, method, d):
        assert_refused(
            tmp_path, "radius", "--method", method, "--d", d, "--n-grid", "50,100,200",
            "--trials", 2,
        )

    @pytest.mark.parametrize("radius", ["0", "-1", "nan", "inf"])
    def test_rejects_bad_init_radius_without_writing(self, tmp_path, radius):
        assert_refused(
            tmp_path, "radius", "--regime", "high-snr", "--cov", "isotropic",
            "--n-grid", "100,1000,10000", "--trials", 8, "--init-radius", radius,
            "--seed", 11,
        )

    @pytest.mark.parametrize("seed,theta_star", [(1, 1.0), (4, -1.0)])
    def test_high_snr_scalar_slope_is_negative(self, tmp_path, seed, theta_star):
        # d = 1 runs start at theta_star + init_radius on theta_star's side
        assert high_snr_config(1, 2, seed).theta_star.tolist() == [theta_star]
        out = tmp_path / "radius.csv"
        code = run_cli(
            "radius", "--regime", "high-snr", "--d", 1, "--n-grid", "100,1000,10000",
            "--trials", 8, "--seed", seed, "--out", out,
        )
        assert code == 0
        _, rows = read_csv(out)
        assert float(rows[-1][1]) < 0.0

    def test_zero_median_is_usage_error_without_writing(self, tmp_path, capsys):
        # at d = 1 the secant runs reach an error of exactly 0 on most
        # datasets, so the medians at n = 100 and n = 1000 are 0: no slope
        assert_refused(
            tmp_path, "radius", "--d", 1, "--n-grid", "100,1000,10000", "--trials", 5
        )
        assert "(100.0, 0.0)" in capsys.readouterr().err


# The CSV writer's reference: csv.writer over rows, each cell rendered on
# its own by its Python or numpy type.
def reference_cell(value):
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def reference_csv(header, rows):
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([reference_cell(cell) for cell in row])
    return text.getvalue().encode()


def record_calls(monkeypatch, name, module=qnbench.cli):
    """Route ``module``'s ``name`` through a wrapper that keeps each call's
    arguments and result."""
    real = getattr(module, name)
    calls = []

    def keep(*args, **kwargs):
        calls.append((args, real(*args, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(module, name, keep)
    return calls


class TestCsvRendering:
    HEADER = ["x", "n", "flag", "mixed", "text"]

    def test_edge_values_match_reference(self, tmp_path):
        floats = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324,
                           1.7976931348623157e308, 0.1, 1 / 3])
        ints = np.array([0, -1, 2**63 - 1, -(2**63), 7, 10**12, 3, 4], dtype=np.int64)
        flags = np.array([0, 1, 0, 0, 1, 0, 0, 0])
        mixed = [np.int64(7), np.float64(0.1), True, np.bool_(False), 3, 2.5,
                 np.float32(0.1), np.uint8(255)]
        text = ["bfgs", "", "a,b", 'say "hi"', "two\nlines", "é", " pad ", "slope"]
        blocks = [[floats, ints, flags, mixed, text],
                  [floats[:2], ints[:2], np.array([True, False]), mixed[:2], text[:2]]]
        rows = [row for block in blocks for row in zip(*block)]
        out = tmp_path / "edge.csv"
        _write_csv(out, self.HEADER, blocks)
        assert out.read_bytes() == reference_csv(self.HEADER, rows)
        _, read = read_csv(out)
        assert [row[4] for row in read] == text + text[:2]

    def test_carriage_return_reads_back(self, tmp_path):
        out = tmp_path / "cr.csv"
        _write_csv(out, ["a", "b"], [[["one\rtwo"], np.array([1.5])]])
        assert read_csv(out) == (["a", "b"], [["one\rtwo", "1.5"]])

    @pytest.mark.parametrize("block", [
        [np.arange(3), np.arange(2)],
        [np.arange(3), ["a", "b", "c", "d"]],
        [np.arange(3)],
    ])
    def test_ragged_block_raises_before_writing(self, tmp_path, block):
        out = tmp_path / "ragged.csv"
        with pytest.raises(ValueError, match="CSV block 1"):
            _write_csv(out, ["a", "b"], [[np.arange(2), np.zeros(2)], block])
        assert not out.exists()

    def test_factors_file(self, tmp_path):
        out = tmp_path / "factors.csv"
        assert run_cli("factors", "--q", 6, "--k-max", 12, "--out", out) == 0
        assert out.read_bytes() == reference_csv(
            ["k", "factor", "fixed_point", "abs_gap", "envelope"],
            contraction_gap_table(6, 12),
        )

    @pytest.mark.parametrize("argv,q", [
        pytest.param(("--q", 4, "--d", 3, "--m", 6, "--iters", 25, "--seed", 2), 4, id="q4"),
        pytest.param(("--preset", "d10-q10", "--iters", 40), 10, id="q10"),
    ])
    def test_population_file(self, tmp_path, monkeypatch, argv, q):
        calls = record_calls(monkeypatch, "run_method")
        out = tmp_path / "population.csv"
        assert run_cli("population", *argv, "--out", out) == 0
        runs = {args[0]: trace for args, trace in calls}
        assert list(runs) == list(METHODS)
        rows = [(method, k, trace.errors[k], trace.losses[k], trace.grad_norms[k])
                for method, trace in runs.items() for k in range(len(trace))]
        bfgs = runs["bfgs"]
        factors = contraction_sequence(q, max(len(bfgs) - 1, 1)).factors
        shrink = 1.0
        for k in range(len(bfgs)):
            rows.append(("bfgs-theory", k, bfgs.errors[0] * shrink,
                         bfgs.losses[0] * shrink ** q, bfgs.grad_norms[0] * shrink ** (q - 1)))
            if k < len(factors):
                shrink *= factors[k]
        assert out.read_bytes() == reference_csv(
            ["method", "k", "error_norm", "loss", "grad_norm"], rows
        )

    def test_empirical_file(self, tmp_path, monkeypatch):
        runs = record_calls(monkeypatch, "run_glm_method", qnbench.glmsim)
        choices = record_calls(monkeypatch, "early_stop_by_validation")
        out = tmp_path / "empirical.csv"
        code = run_cli(
            "empirical", "--n", 200, "--trials", 2, "--iters", 30, "--seed", 4,
            "--out", out,
        )
        assert code == 0
        assert len(runs) == len(choices) == 2 * len(METHODS)
        rows = []
        for number, ((args, trace), (_, choice)) in enumerate(zip(runs, choices)):
            for k in range(len(trace)):
                rows.append((args[0], number // len(METHODS), k, trace.errors[k],
                             trace.losses[k], choice.losses[k], int(k == choice.index)))
        assert out.read_bytes() == reference_csv(
            ["method", "trial", "k", "error_to_theta_star", "train_loss", "val_loss",
             "early_stop_flag"],
            rows,
        )

    def test_radius_file(self, tmp_path, monkeypatch):
        calls = record_calls(monkeypatch, "run_radius_sweep")
        out = tmp_path / "radius.csv"
        code = run_cli(
            "radius", "--n-grid", "50,100,200", "--trials", 3, "--max-iters", 20,
            "--seed", 6, "--out", out,
        )
        assert code == 0
        [(_, result)] = calls
        assert result.table["n"] == [50, 100, 200]
        rows = [*zip(*result.table.values()),
                ("slope", result.fitted_slope, result.slope_stderr, "", "")]
        assert out.read_bytes() == reference_csv(
            ["n", "median_min_error", "q25", "q75", "median_iters_to_min"], rows
        )

    @pytest.mark.parametrize("argv,module,name,fail_at", [
        pytest.param(("population", "--q", 4, "--d", 3, "--m", 6, "--iters", 25),
                     qnbench.cli, "run_method", 3, id="population"),
        pytest.param(("empirical", "--n", 200, "--trials", 2, "--iters", 10),
                     qnbench.glmsim, "run_glm_method", 3, id="empirical"),
        # the second of three sizes, mid-sweep
        pytest.param(("radius", "--n-grid", "50,100,200", "--trials", 3,
                      "--max-iters", 20),
                     qnbench.glmsim, "run_glm_method", 5, id="radius"),
    ])
    def test_failed_run_leaves_no_output(self, tmp_path, monkeypatch, argv, module, name,
                                         fail_at):
        real = getattr(module, name)
        calls = []

        def failing(*args, **kwargs):
            calls.append(args[0])
            if len(calls) == fail_at:
                raise ValueError("a run fails")
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, failing)
        assert run_cli(*argv, "--out", tmp_path / "out.csv") == 2
        assert len(calls) == fail_at
        assert list(tmp_path.iterdir()) == []


def record_fills(monkeypatch):
    """The ``(method, step_info["cycle"])`` of every filled vector run."""
    fills = []
    real = qnbench.solvers.run_method

    def recording(method, *args, **kwargs):
        trace = real(method, *args, **kwargs)
        if "cycle" in trace.step_info:
            fills.append((method, trace.step_info["cycle"].tolist()))
        return trace

    for module in (qnbench.cli, qnbench.glmsim):
        monkeypatch.setattr(module, "run_method", recording)
    return fills


class TestPinnedOutputs:
    """sha256 of the CSV and manifest of small runs, the manifest's output
    directory masked as ``bench/run.py``'s ``sha256_of`` masks it: a change
    to a seed, a trial's data or start, a run, or the rendering moves one
    of them."""

    EMPIRICAL = ("empirical", "--n", 200, "--trials", 2, "--iters", 30, "--seed", 4)
    RADIUS = ("radius", "--n-grid", "50,100,200", "--trials", 3, "--max-iters", 20,
              "--seed", 6)

    @staticmethod
    def digests(tmp_path, monkeypatch, argv):
        monkeypatch.setenv("QNBENCH_OUT_DIR", str(tmp_path))
        assert run_cli(*argv, "--out", "out.csv") == 0
        return [
            hashlib.sha256(
                path.read_bytes().replace(str(tmp_path).encode(), b"$QNBENCH_OUT_DIR")
            ).hexdigest()
            for path in (tmp_path / "out.csv", tmp_path / "out.csv.manifest")
        ]

    @pytest.mark.parametrize("argv,csv_digest,manifest_digest", [
        pytest.param(
            ("factors", "--q", 6, "--k-max", 30),
            "8dcd6bce498b9c9a4d4840ffddcaef34917faf19f8b0b17d0ac2a578a799ec48",
            "614606a2ac12054be19831407f6c9401d15bf776f7de9a8a5decbe0b0c80cddd",
            id="factors-q6",
        ),
        pytest.param(
            (*EMPIRICAL, "--regime", "low-snr"),
            "ed0c51ce64f4bdda4f979bd92faca91875cf4f71a1bd0f85e4b4fa38db3948a1",
            "95d4659c9c3f6ba7e5dc99b8e7aca8bfecb9ad5ac69b260241ed81d811386e24",
            id="empirical-low-snr",
        ),
        pytest.param(
            (*EMPIRICAL, "--regime", "high-snr"),
            "9aacfddf49b20195811113a0323e661e82af2c257d84ff2e3bd5bed906546de0",
            "67bf954d8f41efe7c301523d39fef2d860f342a0cc721358ab7b7b942f102ab3",
            id="empirical-high-snr",
        ),
        pytest.param(
            (*RADIUS, "--d", 4),
            "20208d5b9987771b043ed5bc7fba2dc27cebf787f9d80cbbd4afe9406e708b7c",
            "40b844bffeec524b11d8834f20af5e17bfafe4e7104471ecc76ccb937bab1a89",
            id="radius-d4",
        ),
        pytest.param(
            (*RADIUS, "--d", 1),
            "c30208741f862a07938f7b124ae12ff26ccfae4f1f0e212d731f7a71d06aa066",
            "f4b610069f7c3bf2a8b141640f7c91f4c75c6a9afb34259ecdf98636cb2fe949",
            id="radius-d1",
        ),
    ])
    def test_digests(self, tmp_path, monkeypatch, argv, csv_digest, manifest_digest):
        assert self.digests(tmp_path, monkeypatch, argv) == [csv_digest, manifest_digest]

    @pytest.mark.parametrize("d", [4, 1])
    def test_radius_slope_is_the_fit_of_the_printed_medians(self, tmp_path, monkeypatch, d):
        self.digests(tmp_path, monkeypatch, (*self.RADIUS, "--d", d))
        _, rows = read_csv(tmp_path / "out.csv")
        *sizes, footer = rows
        slope, stderr = qnbench.glmsim.fit_loglog_slope(
            [float(row[0]) for row in sizes], [float(row[1]) for row in sizes]
        )
        manifest = dict(
            line.split("=", 1)
            for line in (tmp_path / "out.csv.manifest").read_text().splitlines()
        )
        assert float(manifest["fitted_slope"]) == slope
        assert float(manifest["slope_stderr"]) == stderr
        assert footer == ["slope", repr(slope), repr(stderr), "", ""]

    @pytest.mark.parametrize("argv,csv_digest,manifest_digest", [
        pytest.param(
            ("population", "--preset", "d10-q4", "--seed", 11),
            "f295713eed8ba715ceebac3a2ae2cb25f18bbead448c7432f0b434ea36115fee",
            "609b50627ba896ba2fe65cd00f01b04ffc346346a4ac2886615ad86bc23ff830",
            id="population-d10-q4",
        ),
        pytest.param(
            ("empirical", "--n", 2000, "--trials", 2, "--iters", 300, "--seed", 11),
            "c8e65c47d4395645e10b0459d47ae337f75509dddded8bc36ea9bff545658122",
            "d1cccfd421718898bd58d94c645b3165950e6d77cfe678e2cb0ea1e0d56ef621",
            id="empirical-n2000",
        ),
    ])
    def test_digests_of_filled_runs(self, tmp_path, monkeypatch, argv, csv_digest,
                                    manifest_digest):
        # the digests predate the cycle fill; the empirical run also has a
        # BFGS revisit, which is not filled
        fills = record_fills(monkeypatch)
        assert self.digests(tmp_path, monkeypatch, argv) == [csv_digest, manifest_digest]
        assert fills == {
            "population": [("gd-polyak", [137, 1]), ("newton", [97, 1])],
            "empirical": [("newton", [14, 1]), ("newton", [16, 6])],
        }[argv[0]]


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

    def test_line_break_in_title_is_usage_error_without_writing(self, tmp_path):
        # the title would forge an artifact= line in the manifest
        data = tmp_path / "data.csv"
        self.write_csv(data, [(0, 1), (1, 2)])
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        code = run_cli(
            "svg", "--in", data, "--x-col", "x", "--y-cols", "y",
            "--title", "x\nartifact=/etc/passwd", "--out", out_dir / "chart.svg",
        )
        assert code == 2
        assert list(out_dir.iterdir()) == []

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

    def test_radius_footer_ends_the_data(self, tmp_path):
        table = tmp_path / "radius.csv"
        code = run_cli(
            "radius", "--n-grid", "100,300,1000", "--trials", 3, "--seed", 5, "--out", table,
        )
        assert code == 0
        assert read_csv(table)[1][-1][0] == "slope"
        out = tmp_path / "radius.svg"
        code = run_cli(
            "svg", "--in", table, "--x-col", "n", "--y-cols", "median_min_error",
            "--log-x", "--log-y", "--out", out,
        )
        assert code == 0
        points = out.read_text().split('points="')[1].split('"')[0]
        assert len(points.split()) == 3

    def test_footer_before_the_last_row_is_not_numeric(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        self.write_csv(data, [(1, 2), ("slope", 3), (4, 5)])
        code = run_cli(
            "svg", "--in", data, "--x-col", "x", "--y-cols", "y",
            "--out", tmp_path / "c.svg",
        )
        assert code == 2
        assert "row 3: cell 'slope' in column 'x' is not numeric" in capsys.readouterr().err

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

    def test_outside_text_gives_well_formed_xml(self):
        # the title and labels come from flags and CSV headers, the legend
        # names from CSV headers or group cells, the comment from a path
        ns = "{http://www.w3.org/2000/svg}"
        cases = [
            ({"title": "R&D <q=4>"}, "R&D <q=4>"),
            ({"series": {"R&D": [(0.0, 1.0, 2), (1.0, 2.0, 3)]}}, "R&D"),
            ({"x_label": "k<1"}, "k<1"),
            ({"y_label": "y<0"}, "y<0"),
            ({"source_comment": "runs---a.csv.manifest"}, None),
            # characters XML 1.0 cannot encode are dropped
            ({"title": "a\x01b"}, "ab"),
            ({"title": "a\x00\x08\x0b\x0c\x0e\x1f\ufffe\uffffb"}, "ab"),
            ({"source_comment": "x\x0cy"}, None),
        ]
        for change, text in cases:
            kwargs = {"series": {"err": [(0.0, 1.0, 2), (1.0, 2.0, 3)]},
                      "x_label": "k", "y_label": "err", **change}
            root = ET.fromstring(line_chart(**kwargs).encode())
            if text is not None:
                assert text in [node.text for node in root.iter(f"{ns}text")]


def untimed(out):
    """``out``'s lines with each check's time shown as ``t``."""
    return [re.sub(r"\[ *\d+\.\d\ds\]", "[t]", line) for line in out.splitlines()]


class TestSelfcheck:
    # the real checks run in test_acceptance.py, one test per entry, and
    # all together in TestDependencies's selfcheck subprocess
    def test_passes(self, capsys, monkeypatch):
        assert [entry[0] for entry in acceptance.CHECKS] == list(range(1, 13))
        checks = [(1, "holds", math.inf, lambda: True), (12, "holds too", 5.0,
                  lambda: True)]
        monkeypatch.setattr(acceptance, "CHECKS", checks)
        assert run_cli("selfcheck") == 0
        assert untimed(capsys.readouterr().out) == [
            "criterion  1 [t] PASS — holds", "criterion 12 [t] PASS — holds too",
            "selfcheck: 0 failure(s)"]

    def test_failing_check_exits_1(self, capsys, monkeypatch):
        checks = [(1, "holds", math.inf, lambda: True), (2, "does not hold", math.inf,
                  lambda: False), (3, "overruns", 0.0, lambda: True)]
        monkeypatch.setattr(acceptance, "CHECKS", checks)
        assert run_cli("selfcheck") == 1
        assert untimed(capsys.readouterr().out) == [
            "criterion  1 [t] PASS — holds", "criterion  2 [t] FAIL — does not hold",
            "criterion  3 [t] FAIL — overruns", "selfcheck: 2 failure(s)"]

    def test_raising_check_is_a_failure(self, capsys, monkeypatch):
        def crash():
            raise ZeroDivisionError("division by zero")

        monkeypatch.setattr(acceptance, "CHECKS", [(1, "crashes", math.inf, crash)])
        assert run_cli("selfcheck") == 1
        assert capsys.readouterr().out.splitlines() == [
            "criterion  1 [ZeroDivisionError: division by zero] FAIL — crashes",
            "selfcheck: 1 failure(s)"]


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

    @pytest.mark.parametrize("argv,module,name,out_dir,out,named,error", [
        pytest.param(("radius", "--n-grid", "50,100,200", "--trials", 2),
                     qnbench.glmsim, "run_glm_method", "no/such", "out.csv", "no/such",
                     "No such file or directory", id="radius"),
        pytest.param(("population", "--preset", "d10-q4"),
                     qnbench.cli, "run_method", None, "no/such/out.csv", "no/such",
                     "No such file or directory", id="population"),
        pytest.param(("radius", "--n-grid", "50,100,200", "--trials", 2),
                     qnbench.glmsim, "run_glm_method", None, "isdir", "isdir",
                     "Is a directory", id="out-is-a-directory"),
        pytest.param(("population", "--preset", "d10-q4"),
                     qnbench.cli, "run_method", "afile", "out.csv", "afile",
                     "Not a directory", id="out-dir-is-a-file"),
    ])
    def test_missing_directory_fails_before_any_run(
        self, tmp_path, monkeypatch, capsys, argv, module, name, out_dir, out, named, error
    ):
        def run(*args, **kwargs):
            raise AssertionError(f"{name} ran before the output path was checked")

        monkeypatch.setattr(module, name, run)
        (tmp_path / "isdir").mkdir()
        (tmp_path / "afile").write_text("")
        before = tree(tmp_path)
        if out_dir:  # a relative --out resolves through QNBENCH_OUT_DIR
            monkeypatch.setenv("QNBENCH_OUT_DIR", str(tmp_path / out_dir))
        else:
            out = tmp_path / out
        assert run_cli(*argv, "--out", out) == 3
        assert f"{error}: {str(tmp_path / named)!r}" in capsys.readouterr().err
        assert tree(tmp_path) == before

    @pytest.mark.parametrize("blocker,is_dir", [
        pytest.param("{}.manifest", True, id="manifest-is-a-directory"),
        pytest.param("{}.tmp", False, id="temporary-name-taken"),
    ])
    @pytest.mark.parametrize("argv,out", [
        pytest.param(("factors", "--k-max", 3), "out.csv", id="factors"),
        pytest.param(("svg", "--in", "data.csv", "--x-col", "x", "--y-cols", "y"), "out.svg",
                     id="svg"),
    ])
    def test_failed_write_leaves_directory_as_it_was(
        self, tmp_path, monkeypatch, capsys, argv, out, blocker, is_dir
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "data.csv").write_text("x,y\n0,1\n1,2\n")
        blocker = tmp_path / blocker.format(out)
        if is_dir:
            blocker.mkdir()
        else:
            blocker.write_text("not this command's file")
        before = tree(tmp_path)
        assert run_cli(*argv, "--out", out) == 3
        assert blocker.name in capsys.readouterr().err
        assert tree(tmp_path) == before


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


# Imports the CLI, notes whether mpmath came with it, then writes a
# factors table (which needs mpmath) and prints the sha256 of its CSV and
# manifest, the output directory masked as in TestPinnedOutputs.
FACTORS_SCRIPT = """
import hashlib, json, os, sys
import qnbench.cli
loaded = "mpmath" in sys.modules
code = qnbench.cli.main(["factors", "--q", "4", "--k-max", "40", "--out", "f.csv"])
out = os.environ["QNBENCH_OUT_DIR"]
print(json.dumps({"mpmath_on_import": loaded, "code": code, "digests": [
    hashlib.sha256(open(os.path.join(out, name), "rb").read().replace(
        out.encode(), b"$QNBENCH_OUT_DIR")).hexdigest()
    for name in ("f.csv", "f.csv.manifest")]}))
"""


def run_script(script, tmp_path):
    """Run ``script`` in a fresh interpreter that imports this checkout's
    qnbench, writing into ``tmp_path``; return its last stdout line as JSON."""
    src = str(Path(qnbench.__file__).resolve().parent.parent)
    env = {**os.environ, "QNBENCH_OUT_DIR": str(tmp_path),
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, cwd=tmp_path,
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


class TestDependencies:
    def test_commands_load_no_scipy(self, tmp_path):
        # numpy's LAPACK does every dense solve: a second BLAS (scipy's
        # OpenBLAS, with its own thread pool) must not load at all
        report = run_script(COMMANDS_SCRIPT, tmp_path)
        assert report == {"codes": [0, 0, 0, 0, 0], "scipy": []}

    def test_cli_import_loads_no_mpmath(self, tmp_path):
        # only the high-precision factor table imports mpmath, when it runs;
        # the table's bytes are those written when mpmath loaded with rates
        report = run_script(FACTORS_SCRIPT, tmp_path)
        assert report == {"mpmath_on_import": False, "code": 0, "digests": [
            "3951ba9305ed750e021d0fdd08397f5d84430c8ab469b60176b68d6072512b7d",
            "49e9fbbbcddf46833fd0772456cc0dd2855a0f0fbb3d382d1fa3e73e19e32cd4",
        ]}
