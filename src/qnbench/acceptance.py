"""Acceptance checks: the rate theory's claims as invariants that pass or fail.

``CHECKS`` lists ``(number, title, check)`` in order; ``qnbench selfcheck``
and ``tests/test_acceptance.py`` both run it.  Numbers 1-8 are acceptance
criteria 1-8, number 12 is dataset determinism.  Each check returns a bool
and keeps its own fixed tolerances and wall-clock bound.
"""

import time

import numpy as np

from . import glmsim, objectives, rates, rng, solvers
from .solvers import SolverConfig


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
    started = time.time()
    fixed = {4: 0.755, 6: 0.857, 10: 0.922, 20: 0.963}
    newton = {4: 0.667, 6: 0.800, 10: 0.889, 20: 0.947}
    ok = all(round(rates.fixed_point(q), 3) == v for q, v in fixed.items())
    ok = ok and all(round(rates.newton_factor(q), 3) == v for q, v in newton.items())
    return ok and (time.time() - started) < 1.0


def bfgs_ratio_exactness():
    started = time.time()
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
    return ok and (time.time() - started) < 10.0


def replay_bfgs(obj, trace):
    """Replay the updates of a ``run_bfgs`` run seeded with the exact inverse
    Hessian, from the trace's iterates: one row ``(s'u, ||H u - s|| / ||s||,
    max |H - H'|)`` per update recorded in ``step_info["curvature"]``, with
    ``H`` the matrix after that update."""
    iterates = trace.iterates[: len(trace.step_info["curvature"]) + 1]
    h = obj.hessian_inverse(iterates[0])
    grads = np.array([obj.gradient(theta) for theta in iterates])
    rows = []
    for s, u in zip(np.diff(iterates, axis=0), np.diff(grads, axis=0)):
        solvers.bfgs_update(h, s, u)
        residual = float(np.linalg.norm(h @ u - s) / np.linalg.norm(s))
        rows.append((float(s @ u), residual, float(np.max(np.abs(h - h.T)))))
    return np.array(rows).reshape(-1, 3)


def newton_ratio_exactness():
    started = time.time()
    ok = True
    for obj, theta0 in theory_instances():
        trace = solvers.run_method("newton", obj, theta0, SolverConfig(max_iters=300))
        expected = rates.newton_factor(obj.q)
        for k in range(1, len(trace)):
            if trace.errors[k - 1] < 1e-12:
                break
            ratio = trace.errors[k] / trace.errors[k - 1]
            ok = ok and abs(ratio - expected) <= 1e-8 * expected
    return ok and (time.time() - started) < 10.0


def factor_envelope():
    started = time.time()
    ok = all(rates.envelope_holds(q, 200) for q in range(4, 65))
    return ok and (time.time() - started) < 1.0


def derivative_bound():
    started = time.time()
    ok = True
    for q in range(4, 101):
        rep = rates.contraction_map_derivative_bound(q)
        ok = ok and rep.holds and rep.max_abs_derivative <= 0.5 + 1e-9
    return ok and (time.time() - started) < 5.0


def closed_form_inverse():
    started = time.time()
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
    return ok and (time.time() - started) < 5.0


def difference_oracles():
    started = time.time()
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
    return ok and (time.time() - started) < 5.0


def scalar_inequalities():
    started = time.time()
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
            seq = trace.iterates
            for k in range(1, len(seq) - 1):
                if seq[k] <= cutoff or seq[k + 1] <= cutoff:
                    break
                total_checked += 1
                ok = ok and 0.0 < seq[k + 1] < seq[k]
                ok = ok and seq[k + 1] >= floor * seq[k]
        ok = ok and total_checked >= 40  # the claim must not hold vacuously
    return ok and (time.time() - started) < 30.0


def dataset_determinism():
    config = glmsim.low_snr_config(2, 2)
    a = glmsim.generate_dataset(config, 64, 9)
    b = glmsim.generate_dataset(config, 64, 9)
    return np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)


CHECKS = (
    (1, "fixed points 0.755/0.857/0.922/0.963 and Newton factors "
        "0.667/0.800/0.889/0.947 at three decimals", fixed_point_table),
    (2, "unit-step BFGS with exact initial inverse Hessian follows the factor "
        "recursion (rel 1e-6, 20 steps) with collinear errors, secant residual "
        "1e-8 and symmetric updates", bfgs_ratio_exactness),
    (3, "unit-step Newton contracts at exactly (q-2)/(q-1) down to error 1e-12 "
        "(rel 1e-8)", newton_ratio_exactness),
    (4, "|r_k - r_*| <= (1/2)^k |r_0 - r_*| for q in 4..64, k <= 200",
     factor_envelope),
    (5, "factor-map derivative bounded by 1/2 on 1e4 grid points for q in 4..100",
     derivative_bound),
    (6, "closed-form inverse times Hessian equals identity to max-entry 1e-8 "
        "on 50 instances", closed_form_inverse),
    (7, "central differences reproduce both gradients (rel 1e-5) and the "
        "pow-norm Hessian (rel 1e-4) on 50 randomized points", difference_oracles),
    (8, "scalar secant runs decrease strictly, stay positive, and obey the "
        "p/(p+1) floor above twice the stationary scale (p in {2,3}, 20 seeds)",
     scalar_inequalities),
    (12, "identical seeds reproduce identical datasets", dataset_determinism),
)
