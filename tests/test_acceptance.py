"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria 1-8 and 12 (dataset determinism) live in ``qnbench.acceptance``,
the registry ``qnbench selfcheck`` also runs; this file makes a test of
each entry.  Criteria 9-11 are below: they are slow or drive the CLI.
Run ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time

import numpy as np
import pytest

from qnbench import acceptance, rng, solvers
from qnbench.cli import main as cli_main
from qnbench.glmsim import (
    generate_dataset,
    fit_loglog_slope,
    high_snr_config,
    low_snr_config,
    run_radius_sweep,
)
from qnbench.solvers import SolverConfig, run_bfgs, run_gd_constant, run_scalar_bfgs


def report(number, text, ok, started):
    elapsed = time.time() - started
    print(f"criterion {number:2d} [{elapsed:6.2f}s] {'PASS' if ok else 'FAIL'} — {text}")
    assert ok, f"criterion {number} failed: {text}"


def _registry_test(number, title, check):
    def test():
        started = time.time()
        report(number, title, check(), started)
    return test


# One named test per registry entry, e.g. test_criterion_1_fixed_point_table.
for _number, _title, _check in acceptance.CHECKS:
    globals()[f"test_criterion_{_number}_{_check.__name__}"] = _registry_test(
        _number, _title, _check
    )


@pytest.mark.parametrize("kept", [0, 19])
def test_criterion_2_fails_when_the_replay_misses_updates(monkeypatch, kept):
    # criterion 2 checks the secant condition and symmetry by replaying the
    # updates a run records; a run that records fewer than it made fails
    def truncated(*args, **kwargs):
        trace = run_bfgs(*args, **kwargs)
        trace.step_info["curvature"] = trace.step_info["curvature"][:kept]
        return trace

    monkeypatch.setattr(solvers, "run_bfgs", truncated)
    assert not acceptance.bfgs_ratio_exactness()


def test_criterion_9_statistical_radius_slopes():
    # protocol: phase retrieval (p=2) at d=4, 40 dataset draws per sample
    # size, BFGS seeded with the exact inverse Hessian.  Low SNR keeps the
    # decaying per-axis covariance; high SNR uses the isotropic variant,
    # where the n=100 radius fits inside the reachable start geometry and
    # every truth direction is equivalent, so the n^(-1/2) line is
    # measurable (see the radius notes in the README).
    started = time.time()
    n_grid = [100, 316, 1000, 3162, 10000]
    solver = SolverConfig(max_iters=100)

    low = run_radius_sweep(
        low_snr_config(4, 2), solver, n_grid, trials=40, seed0=11, init_radius=2.0,
        method="bfgs",
    )
    ok = abs(low.fitted_slope - (-0.25)) <= 0.08

    high = run_radius_sweep(
        high_snr_config(4, 2, 11, cov=np.ones(4)), solver, n_grid, trials=40,
        seed0=11, init_radius=1.0, method="bfgs",
    )
    ok = ok and abs(high.fitted_slope - (-0.5)) <= 0.1
    # the iteration index of the best error grows no faster than log(n)
    for sweep in (low, high):
        iters = [s[4] for s in sweep.summaries()]
        islope, _ = fit_loglog_slope(n_grid, [max(i, 0.5) for i in iters])
        ok = ok and islope < 1.0 and max(iters) <= 50
    ok = ok and (time.time() - started) < 300.0
    report(9, f"radius slopes: low-snr {low.fitted_slope:+.3f} (want -0.25±0.08), "
              f"high-snr {high.fitted_slope:+.3f} (want -0.5±0.1), 40 trials", ok, started)


def test_criterion_10_iteration_contrast():
    started = time.time()
    config = low_snr_config(1, 2)
    steps = [10.0 ** -k for k in range(1, 7)]
    bfgs_iters, gd_iters = [], []
    for s in range(11):
        loss = generate_dataset(config, 10_000, rng.derive_seed(900, s))
        trace = run_scalar_bfgs(loss, 0.999, 1.0, SolverConfig(max_iters=200))
        threshold = 1.5 * trace.min_error
        bfgs_iters.append(int(np.argmax(trace.errors <= threshold)))
        best = None
        for step in steps:
            gd = run_gd_constant(
                loss, np.array([1.0]),
                SolverConfig(step_size=step, max_iters=10_000), np.zeros(1),
            )
            hits = np.nonzero(gd.errors <= threshold)[0]
            k = int(hits[0]) if hits.size else 10_001
            best = k if best is None or k < best else best
        gd_iters.append(best)
    med_bfgs = float(np.median(bfgs_iters))
    med_gd = float(np.median(gd_iters))
    ok = med_bfgs <= 50 and med_gd >= 10 * med_bfgs
    ok = ok and (time.time() - started) < 120.0
    report(10, f"median iterations to 1.5x the BFGS floor: bfgs {med_bfgs:.0f} "
               f"(<=50), tuned constant-step gd {med_gd:.0f} (>=10x)", ok, started)


def test_criterion_11_determinism(tmp_path):
    started = time.time()
    ok = True
    jobs = [
        ["factors", "--q", "4", "--k-max", "200"],
        ["radius", "--n-grid", "50,100,200", "--trials", "4", "--max-iters", "30",
         "--seed", "3"],
        ["empirical", "--n", "200", "--trials", "2", "--iters", "30", "--seed", "5"],
        ["population", "--d", "4", "--m", "8", "--iters", "40", "--seed", "7"],
    ]
    for i, job in enumerate(jobs):
        a = tmp_path / f"a{i}.csv"
        b = tmp_path / f"b{i}.csv"
        ok = ok and cli_main(job + ["--out", str(a)]) == 0
        ok = ok and cli_main(job + ["--out", str(b)]) == 0
        ok = ok and a.read_bytes() == b.read_bytes()
    report(11, "rerunning every benchmark command with the same seed yields "
               "byte-identical CSV output", ok, started)
