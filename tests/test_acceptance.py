"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Every tolerance below is fixed; nothing is calibrated at
run time.
"""

import time

import numpy as np

from qnbench import rng
from qnbench.cli import main as cli_main
from qnbench.glmsim import (
    GlmModelConfig,
    generate_dataset,
    fit_loglog_slope,
    low_snr_config,
    run_radius_sweep,
    scalar_moment_ratio,
)
from qnbench.objectives import (
    EmpiricalGlmLoss,
    central_difference_gradient,
    central_difference_jacobian,
    random_pow_norm_objective,
)
from qnbench.rates import (
    contraction_map_derivative_bound,
    contraction_sequence,
    envelope_holds,
    fixed_point,
    newton_factor,
)
from qnbench.solvers import SolverConfig, run_bfgs, run_gd_constant, run_newton, run_scalar_bfgs


def report(number, text, ok, started):
    elapsed = time.time() - started
    print(f"criterion {number:2d} [{elapsed:6.2f}s] {'PASS' if ok else 'FAIL'} — {text}")
    assert ok, f"criterion {number} failed: {text}"


def theory_instances():
    """Twenty random pow-norm instances over d in {2,10,50}, q in {4,6,10},
    m = 2d, condition number at most 100, solution at the origin."""
    grids = [(d, q) for d in (2, 10, 50) for q in (4, 6, 10)]
    instances = []
    k = 0
    while len(instances) < 20:
        d, q = grids[len(instances) % len(grids)]
        obj = random_pow_norm_objective(d, 2 * d, q, seed=1000 + k, theta_opt=np.zeros(d))
        k += 1
        if obj.condition_number <= 100:
            theta0 = rng.normals(2000 + k, d)
            instances.append((obj, theta0))
    return instances


def test_criterion_1_fixed_point_table():
    started = time.time()
    fixed = {4: 0.755, 6: 0.857, 10: 0.922, 20: 0.963}
    newton = {4: 0.667, 6: 0.800, 10: 0.889, 20: 0.947}
    ok = all(round(fixed_point(q), 3) == v for q, v in fixed.items())
    ok = ok and all(round(newton_factor(q), 3) == v for q, v in newton.items())
    ok = ok and (time.time() - started) < 1.0
    report(1, "fixed points 0.755/0.857/0.922/0.963 and Newton factors "
              "0.667/0.800/0.889/0.947 at three decimals", ok, started)


def test_criterion_2_bfgs_ratio_exactness():
    started = time.time()
    ok = True
    for obj, theta0 in theory_instances():
        trace = run_bfgs(obj, theta0, None, SolverConfig(max_iters=20))
        ratios = trace.error_ratios()
        expected = contraction_sequence(obj.q, 20).factors
        ok = ok and len(ratios) == 20
        ok = ok and np.all(
            np.abs(ratios - expected[:20]) <= 1e-6 * expected[:20]
        )
        e0 = trace.iterates[0]
        for theta in trace.iterates:
            denom = np.linalg.norm(theta) * np.linalg.norm(e0)
            ok = ok and abs(float(theta @ e0) / denom - 1.0) <= 1e-8
    ok = ok and (time.time() - started) < 10.0
    report(2, "unit-step BFGS with exact initial inverse Hessian follows the "
              "factor recursion (rel 1e-6, 20 steps) with collinear errors", ok, started)


def test_criterion_3_newton_ratio_exactness():
    started = time.time()
    ok = True
    for obj, theta0 in theory_instances():
        trace = run_newton(obj, theta0, SolverConfig(max_iters=300))
        expected = newton_factor(obj.q)
        for k in range(1, len(trace)):
            if trace.errors[k - 1] < 1e-12:
                break
            ratio = trace.errors[k] / trace.errors[k - 1]
            ok = ok and abs(ratio - expected) <= 1e-8 * expected
    ok = ok and (time.time() - started) < 10.0
    report(3, "unit-step Newton contracts at exactly (q-2)/(q-1) down to "
              "error 1e-12 (rel 1e-8)", ok, started)


def test_criterion_4_factor_envelope():
    started = time.time()
    ok = all(envelope_holds(q, 200) for q in range(4, 65))
    ok = ok and (time.time() - started) < 1.0
    report(4, "|r_k - r_*| <= (1/2)^k |r_0 - r_*| for q in 4..64, k <= 200", ok, started)


def test_criterion_5_derivative_bound():
    started = time.time()
    ok = True
    for q in range(4, 101):
        rep = contraction_map_derivative_bound(q, 10_000)
        ok = ok and rep.holds and rep.max_abs_derivative <= 0.5 + 1e-9
    ok = ok and (time.time() - started) < 5.0
    report(5, "factor-map derivative bounded by 1/2 on 1e4 grid points for "
              "q in 4..100", ok, started)


def test_criterion_6_closed_form_inverse():
    started = time.time()
    ok = True
    count = 0
    seed = 0
    while count < 50:
        seed += 1
        d = 2 + (seed % 5)
        q = (4, 6, 10)[seed % 3]
        obj = random_pow_norm_objective(d, 2 * d + 2, q, seed=3000 + seed)
        if obj.condition_number > 100:
            continue
        theta = obj.theta_opt + rng.normals(4000 + seed, d)
        if np.linalg.norm(obj.residual(theta)) < 1e-3:
            continue
        count += 1
        product = obj.hessian_inverse(theta) @ obj.hessian(theta)
        ok = ok and np.max(np.abs(product - np.eye(d))) <= 1e-8
    ok = ok and (time.time() - started) < 5.0
    report(6, "closed-form inverse times Hessian equals identity to "
              "max-entry 1e-8 on 50 instances", ok, started)


def test_criterion_7_difference_oracles():
    started = time.time()
    ok = True
    for seed in range(25):
        d = 2 + (seed % 4)
        q = (4, 6)[seed % 2]
        obj = random_pow_norm_objective(d, 2 * d, q, seed=5000 + seed)
        theta = obj.theta_opt + np.clip(rng.normals(6000 + seed, d), -2.0, 2.0)
        if np.linalg.norm(obj.residual(theta)) < 1e-3:
            continue
        grad = obj.gradient(theta)
        fd_grad = central_difference_gradient(obj.value, theta)
        scale = max(1.0, float(np.max(np.abs(grad))))
        ok = ok and np.max(np.abs(fd_grad - grad)) <= 1e-5 * scale
        hess = obj.hessian(theta)
        fd_hess = central_difference_jacobian(obj.gradient, theta)
        hscale = max(1.0, float(np.max(np.abs(hess))))
        ok = ok and np.max(np.abs(fd_hess - hess)) <= 1e-4 * hscale
    for seed in range(25):
        d = 1 + (seed % 3)
        p = (2, 3)[seed % 2]
        x = rng.normals(7000 + seed, 30 * d).reshape(30, d)
        y = rng.normals(8000 + seed, 30)
        loss = EmpiricalGlmLoss(x, y, p)
        theta = np.clip(0.7 * rng.normals(9000 + seed, d), -2.0, 2.0)
        grad = loss.gradient(theta)
        fd_grad = central_difference_gradient(loss.value, theta)
        scale = max(1.0, float(np.max(np.abs(grad))))
        ok = ok and np.max(np.abs(fd_grad - grad)) <= 1e-5 * scale
    ok = ok and (time.time() - started) < 5.0
    report(7, "central differences reproduce both gradients (rel 1e-5) and "
              "the pow-norm Hessian (rel 1e-4) on 50 randomized points", ok, started)


def test_criterion_8_scalar_inequalities():
    started = time.time()
    ok = True
    for p in (2, 3):
        config = low_snr_config(1, p)
        floor = p / (p + 1)
        total_checked = 0
        for s in range(20):
            loss = generate_dataset(config, 10_000, rng.derive_seed(880, p, s))
            trace = run_scalar_bfgs(loss, 1.8, 2.0, SolverConfig(max_iters=100))
            # radius scale of the nonzero stationary point, sign-agnostic
            cutoff = 2.0 * abs(scalar_moment_ratio(loss)) ** (1.0 / p)
            seq = trace.iterates
            for k in range(1, len(seq) - 1):
                if seq[k] <= cutoff or seq[k + 1] <= cutoff:
                    break
                total_checked += 1
                ok = ok and 0.0 < seq[k + 1] < seq[k]
                ok = ok and seq[k + 1] >= floor * seq[k]
        ok = ok and total_checked >= 40  # the claim must not hold vacuously
    ok = ok and (time.time() - started) < 30.0
    report(8, "scalar secant runs decrease strictly, stay positive, and obey "
              "the p/(p+1) floor above twice the stationary scale "
              "(p in {2,3}, 20 seeds)", ok, started)


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

    high_config = GlmModelConfig(
        4, 2, rng.unit_vector(4, rng.derive_seed(11, 17)), cov=np.ones(4),
        regime="high-snr",
    )
    high = run_radius_sweep(
        high_config, solver, n_grid, trials=40, seed0=11, init_radius=1.0,
        method="bfgs",
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
