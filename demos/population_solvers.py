"""Four solvers on one flat objective ||A theta - b||^q, side by side.

Constant-step gradient Descent crawls sublinearly on this family (the
Hessian is singular at the optimum), the Polyak step restores a linear
rate, and Newton and BFGS contract at exactly (q-2)/(q-1) and the factor
recursion r_k, independent of dimension and conditioning.  The printed
BFGS ratios can be compared directly against the predicted factors.
"""

import numpy as np

from qnbench import rng
from qnbench.objectives import random_pow_norm_objective
from qnbench.rates import contraction_sequence, newton_factor
from qnbench.solvers import METHODS, SolverConfig, run_method


def main():
    q, d, m, seed = 4, 10, 100, 1
    objective = random_pow_norm_objective(d, m, q, seed, entry_std=1.0 / np.sqrt(m))
    theta0 = rng.normals(rng.derive_seed(seed, 2), d)
    print(f"instance: q={q}, d={d}, m={m}, condition number "
          f"{objective.condition_number:.2f}")
    print(f"starting error: {np.linalg.norm(theta0 - objective.theta_opt):.4f}\n")

    config = SolverConfig(step_size=1e-4, max_iters=1000)
    runs = {method: run_method(method, objective, theta0, config) for method in METHODS}
    print(f"{'method':>24} {'error@10':>12} {'error@40':>12} {'error@1000':>12} {'stop':>18}")
    for method, trace in runs.items():
        name = "gd-constant (step 1e-4)" if method == "gd-constant" else method
        def err(k):
            return f"{trace.errors[k]:.3e}" if k < len(trace) else "-"
        print(f"{name:>24} {err(10):>12} {err(40):>12} {err(1000):>12} "
              f"{trace.stop_reason:>18}")

    print(f"\nmeasured BFGS ratios against the factor recursion (q={q}):")
    factors = contraction_sequence(q, 10).factors
    ratios = runs["bfgs"].error_ratios()
    for k in range(8):
        print(f"  step {k}: measured {ratios[k]:.9f}  predicted {factors[k]:.9f}")
    print(f"\nNewton ratio, every step: measured "
          f"{runs['newton'].error_ratios()[0]:.9f}  predicted {newton_factor(q):.9f}")


if __name__ == "__main__":
    main()
