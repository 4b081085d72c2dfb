"""Acceptance checks: the paper's claims as invariants that pass or fail.

``CHECKS`` lists ``(number, title, seconds, check)`` in order; ``qnbench
selfcheck`` and ``tests/test_acceptance.py`` both run each entry through
``run_check`` and report it with ``report_line``.  Numbers 1-11 are
acceptance criteria 1-11, number 12 is dataset determinism.  Each check
returns a bool and keeps its own fixed tolerances; its entry keeps its
wall-clock bound.
"""

import math
import tempfile
import time
from pathlib import Path

import numpy as np

from . import glmsim, objectives, rates, rng, solvers
from .solvers import SolverConfig


def run_check(check, seconds):
    """Run ``check`` and time it: ``(passed, elapsed)``, where ``passed``
    needs a true result in under ``seconds`` of wall clock.  An exception
    from ``check`` propagates."""
    started = time.perf_counter()
    ok = bool(check())
    elapsed = time.perf_counter() - started
    return ok and elapsed < seconds, elapsed


def report_line(number, title, passed, outcome):
    """The line that reports one check, ``criterion N [  t.tts] PASS —
    title``: ``outcome`` is the check's elapsed seconds, or the exception
    it raised, whose text then stands in place of the time."""
    if isinstance(outcome, Exception):
        when = f"{type(outcome).__name__}: {outcome}"
    else:
        when = f"{outcome:6.2f}s"
    return f"criterion {number:2d} [{when}] {'PASS' if passed else 'FAIL'} — {title}"


def theory_instances():
    """Twenty random pow-norm instances over d in {2,10,50}, q in {4,6,10},
    m = 2d, condition number at most 100, solution at the origin; then the
    low-SNR GLM population loss (q = 2p) for d in {2,4}, p in {2,3}, with
    the default decaying covariance (condition numbers 2 and 8)."""
    grids = [(d, q) for d in (2, 10, 50) for q in (4, 6, 10)]
    instances = []
    k = 0
    while len(instances) < 20:
        d, q = grids[len(instances) % len(grids)]
        obj = objectives.random_pow_norm_objective(
            d, 2 * d, q, seed=1000 + k, theta_opt=np.zeros(d)
        )
        k += 1
        if obj.condition_number <= 100:
            theta0 = rng.normals(2000 + k, d)
            instances.append((obj, theta0))
    for d in (2, 4):
        for p in (2, 3):
            obj = glmsim.low_snr_population_objective(glmsim.low_snr_config(d, p))
            instances.append((obj, rng.normals(rng.derive_seed(2100, d, p), d)))
    return instances


def fixed_point_table():
    fixed = {4: 0.755, 6: 0.857, 10: 0.922, 20: 0.963}
    newton = {4: 0.667, 6: 0.800, 10: 0.889, 20: 0.947}
    ok = all(round(rates.fixed_point(q), 3) == v for q, v in fixed.items())
    return ok and all(round(rates.newton_factor(q), 3) == v for q, v in newton.items())


def bfgs_ratio_exactness():
    ok = True
    for obj, theta0 in theory_instances():
        trace = solvers.run_method("bfgs", obj, theta0, SolverConfig(max_iters=20))
        ratios = trace.error_ratios()
        expected = rates.contraction_sequence(obj.q, 20).factors
        ok = ok and len(ratios) == 20
        ok = ok and np.all(
            np.abs(ratios - expected[:20]) <= 1e-6 * expected[:20]
        )
        e0 = trace.iterates[0]
        for theta in trace.iterates:
            denom = np.linalg.norm(theta) * np.linalg.norm(e0)
            ok = ok and abs(float(theta @ e0) / denom - 1.0) <= 1e-8
        # every step's update was applied, and the replay makes each of them
        replay = replay_bfgs(obj, trace)
        ok = ok and len(replay) == 20
        ok = ok and np.array_equal(replay[:, 0], trace.step_info["curvature"])
        ok = ok and np.all(replay[:, 1] <= 1e-8) and np.all(replay[:, 2] <= 1e-10)
    return ok


def replay_bfgs(obj, trace):
    """Replay the updates of a ``run_bfgs`` run seeded with the exact inverse
    Hessian, from the trace's iterates and with the run's arithmetic (its
    pending pairs, derived directions and flushes): one row ``(s'u,
    ||H u - s|| / ||s||, max |h - h'|)`` per update recorded in
    ``step_info["curvature"]``, with ``H`` the approximation after that
    update and ``h`` its dense part, which each flush writes."""
    iterates = trace.iterates[: len(trace.step_info["curvature"]) + 1]
    grads = np.array([obj.gradient(theta) for theta in iterates])
    inverse = solvers._InverseHessian(obj.hessian_inverse(iterates[0]))
    direction = inverse.times(grads[0])
    rows = []
    for s, u, grad in zip(np.diff(iterates, axis=0), np.diff(grads, axis=0), grads[1:]):
        direction = inverse.update(s, u, direction, grad)
        residual = float(np.linalg.norm(inverse.times(u) - s) / np.linalg.norm(s))
        rows.append((float(s @ u), residual, float(np.max(np.abs(inverse.h - inverse.h.T)))))
    return np.array(rows).reshape(-1, 3)


def newton_ratio_exactness():
    ok = True
    for obj, theta0 in theory_instances():
        trace = solvers.run_method("newton", obj, theta0, SolverConfig(max_iters=300))
        expected = rates.newton_factor(obj.q)
        for k in range(1, len(trace)):
            if trace.errors[k - 1] < 1e-12:
                break
            ratio = trace.errors[k] / trace.errors[k - 1]
            ok = ok and abs(ratio - expected) <= 1e-8 * expected
    return ok


def factor_envelope():
    return all(rates.envelope_holds(q, 200) for q in range(4, 65))


def derivative_bound():
    return all(rates.contraction_map_derivative_bound(q) <= 0.5 + 1e-9 for q in range(4, 101))


def closed_form_inverse():
    ok = True
    count = 0
    seed = 0
    while count < 50:
        seed += 1
        d = 2 + (seed % 5)
        q = (4, 6, 10)[seed % 3]
        obj = objectives.random_pow_norm_objective(d, 2 * d + 2, q, seed=3000 + seed)
        if obj.condition_number > 100:
            continue
        theta = obj.theta_opt + rng.normals(4000 + seed, d)
        if obj.value(theta) ** (1.0 / obj.q) < 1e-3:
            continue
        count += 1
        product = obj.hessian_inverse(theta) @ obj.hessian(theta)
        ok = ok and np.max(np.abs(product - np.eye(d))) <= 1e-8
    return ok


def difference_oracles():
    ok = True
    for seed in range(25):
        d = 2 + (seed % 4)
        q = (4, 6)[seed % 2]
        obj = objectives.random_pow_norm_objective(d, 2 * d, q, seed=5000 + seed)
        theta = obj.theta_opt + np.clip(rng.normals(6000 + seed, d), -2.0, 2.0)
        if obj.value(theta) ** (1.0 / obj.q) < 1e-3:
            continue
        grad = obj.gradient(theta)
        fd_grad = objectives.central_difference_gradient(obj.value, theta)
        scale = max(1.0, float(np.max(np.abs(grad))))
        ok = ok and np.max(np.abs(fd_grad - grad)) <= 1e-5 * scale
        hess = obj.hessian(theta)
        fd_hess = objectives.central_difference_jacobian(obj.gradient, theta)
        hscale = max(1.0, float(np.max(np.abs(hess))))
        ok = ok and np.max(np.abs(fd_hess - hess)) <= 1e-4 * hscale
    for seed in range(25):
        d = 1 + (seed % 3)
        p = (2, 3)[seed % 2]
        x = rng.normals(7000 + seed, 30 * d).reshape(30, d)
        y = rng.normals(8000 + seed, 30)
        loss = objectives.EmpiricalGlmLoss(x, y, p)
        theta = np.clip(0.7 * rng.normals(9000 + seed, d), -2.0, 2.0)
        grad = loss.gradient(theta)
        fd_grad = objectives.central_difference_gradient(loss.value, theta)
        scale = max(1.0, float(np.max(np.abs(grad))))
        ok = ok and np.max(np.abs(fd_grad - grad)) <= 1e-5 * scale
    return ok


def scalar_inequalities():
    ok = True
    for p in (2, 3):
        config = glmsim.low_snr_config(1, p)
        floor = p / (p + 1)
        total_checked = 0
        for s in range(20):
            loss = glmsim.generate_dataset(config, 10_000, rng.derive_seed(880, p, s))
            trace = solvers.run_scalar_bfgs(loss, 1.8, 2.0, SolverConfig(max_iters=100))
            # radius scale of the nonzero stationary point, sign-agnostic
            cutoff = 2.0 * abs(glmsim.scalar_moment_ratio(loss)) ** (1.0 / p)
            seq = trace.iterates[:, 0]
            for k in range(1, len(seq) - 1):
                if seq[k] <= cutoff or seq[k + 1] <= cutoff:
                    break
                total_checked += 1
                ok = ok and 0.0 < seq[k + 1] < seq[k]
                ok = ok and seq[k + 1] >= floor * seq[k]
        ok = ok and total_checked >= 40  # the claim must not hold vacuously
    return ok


# Criterion 9's bands, (target, tolerance), for the fitted radius slopes.
LOW_SNR_BAND, HIGH_SNR_BAND = (-0.25, 0.08), (-0.5, 0.1)


def radius_sweeps():
    """Criterion 9's sweeps ``(low, high)``: phase retrieval (p = 2) at
    d = 4, 40 datasets per n, BFGS.  High SNR uses the isotropic covariance,
    where the n = 100 radius fits inside the reachable start geometry, so
    the n^(-1/2) line is measurable (see the radius notes in the README)."""
    solver = SolverConfig(max_iters=100)
    low = glmsim.run_radius_sweep(
        glmsim.low_snr_config(4, 2), solver, glmsim.RADIUS_N_GRID, trials=40,
        seed0=11, init_radius=2.0, method="bfgs",
    )
    high = glmsim.run_radius_sweep(
        glmsim.high_snr_config(4, 2, 11, cov=np.ones(4)), solver, glmsim.RADIUS_N_GRID,
        trials=40, seed0=11, init_radius=1.0, method="bfgs",
    )
    return low, high


def statistical_radius_slopes():
    ok = True
    for sweep, (target, tolerance) in zip(radius_sweeps(), (LOW_SNR_BAND, HIGH_SNR_BAND)):
        ok = ok and abs(sweep.fitted_slope - target) <= tolerance
        # the iteration index of the best error grows no faster than log(n)
        iters = sweep.table["median_iters_to_min"]
        islope, _ = glmsim.fit_loglog_slope(sweep.table["n"], [max(i, 0.5) for i in iters])
        ok = ok and islope < 1.0 and max(iters) <= 50
    return ok


def iteration_contrast_counts():
    """Criterion 10's counts ``(bfgs, gd)``, one per dataset: on 11 low-SNR
    datasets (p = 2, d = 1, n = 10,000), started at theta = 1, the index of
    the first iterate within 1.5x of BFGS's smallest error over 200 steps,
    for BFGS and for constant-step GD at its best step size in
    10^-1 .. 10^-6 (10,001 when none gets there in 10,000 steps).

    Each step size's budget is the best count so far.  That leaves the
    minimum as it is: a trace's first K records do not depend on its
    budget, since the stop rules read only the records and the cycle fill
    copies what would have been computed."""
    config = glmsim.low_snr_config(1, 2)
    start = np.array([1.0])
    bfgs_iters, gd_iters = [], []
    for s in range(11):
        loss = glmsim.generate_dataset(config, 10_000, rng.derive_seed(900, s))
        trace = glmsim.run_glm_method("bfgs", loss, start, SolverConfig(max_iters=200), 0.0)
        threshold = 1.5 * trace.min_error
        bfgs_iters.append(int(np.argmax(trace.errors <= threshold)))
        best = 10_001
        for k in range(1, 7):
            if best == 0:  # the start is there already; a budget must be >= 1
                break
            gd_config = SolverConfig(step_size=10.0 ** -k, max_iters=min(best, 10_000))
            gd = glmsim.run_glm_method("gd-constant", loss, start, gd_config, 0.0)
            hits = np.flatnonzero(gd.errors <= threshold)
            if hits.size:
                best = min(best, int(hits[0]))
        gd_iters.append(best)
    return bfgs_iters, gd_iters


def iteration_contrast():
    bfgs, gd = map(np.median, iteration_contrast_counts())
    return bfgs <= 50 and gd >= 10 * bfgs


def determinism():
    from . import cli  # only this check drives the CLI

    jobs = [
        "factors --q 4 --k-max 200",
        "radius --n-grid 50,100,200 --trials 4 --max-iters 30 --seed 3",
        "empirical --n 200 --trials 2 --iters 30 --seed 5",
        "population --d 4 --m 8 --iters 40 --seed 7",
    ]
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        for i, job in enumerate(map(str.split, jobs)):
            a, b = Path(tmp) / f"a{i}.csv", Path(tmp) / f"b{i}.csv"
            ok = ok and cli.main(job + ["--out", str(a)]) == 0
            ok = ok and cli.main(job + ["--out", str(b)]) == 0
            ok = ok and a.read_bytes() == b.read_bytes()
    return ok


def dataset_determinism():
    config = glmsim.low_snr_config(2, 2)
    a = glmsim.generate_dataset(config, 64, 9)
    b = glmsim.generate_dataset(config, 64, 9)
    return np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)


CHECKS = (
    (1, "fixed points 0.755/0.857/0.922/0.963 and Newton factors "
        "0.667/0.800/0.889/0.947 at three decimals", 1.0, fixed_point_table),
    (2, "unit-step BFGS with exact initial inverse Hessian follows the factor "
        "recursion (rel 1e-6, 20 steps) with collinear errors, secant residual "
        "1e-8 and symmetric updates", 10.0, bfgs_ratio_exactness),
    (3, "unit-step Newton contracts at exactly (q-2)/(q-1) down to error 1e-12 "
        "(rel 1e-8)", 10.0, newton_ratio_exactness),
    (4, "|r_k - r_*| <= (1/2)^k |r_0 - r_*| for q in 4..64, k <= 200",
     1.0, factor_envelope),
    (5, "factor-map derivative bounded by 1/2 on 1e4 grid points for q in 4..100",
     5.0, derivative_bound),
    (6, "closed-form inverse times Hessian equals identity to max-entry 1e-8 "
        "on 50 instances", 5.0, closed_form_inverse),
    (7, "central differences reproduce both gradients (rel 1e-5) and the "
        "pow-norm Hessian (rel 1e-4) on 50 randomized points", 5.0, difference_oracles),
    (8, "scalar secant runs decrease strictly, stay positive, and obey the "
        "p/(p+1) floor above twice the stationary scale (p in {2,3}, 20 seeds)",
     30.0, scalar_inequalities),
    (9, "BFGS radius slopes: low-snr {:g}±{:g}, high-snr {:g}±{:g} (p = 2, d = 4, "
        "40 trials per n), best-error index at most 50 and growing slower than n"
        .format(*LOW_SNR_BAND, *HIGH_SNR_BAND), 300.0, statistical_radius_slopes),
    (10, "median iterations to 1.5x the BFGS floor on 11 low-snr datasets (p = 2, "
         "d = 1, n = 10,000): bfgs at most 50, constant-step gd at its best of six "
         "step sizes at least 10x bfgs", 120.0, iteration_contrast),
    (11, "rerunning every benchmark command with the same seed yields "
         "byte-identical CSV output", math.inf, determinism),
    (12, "identical seeds reproduce identical datasets", math.inf, dataset_determinism),
)
