"""Phase-retrieval estimation from finite samples, with early stopping.

Labels follow y = (x' theta*)^2 + noise with four-dimensional Gaussian
features.  In the low signal-to-noise regime (theta* = 0) the loss is flat
at the truth, so constant-step GD creeps toward the statistical noise
floor while the Polyak step, Newton, and BFGS reach it in a handful of
iterations.  The fast methods then wander or break down — exactly why the
reported iterate is picked by validation loss instead of taken last.
"""

import numpy as np

from qnbench.glmsim import (
    draw_trial,
    early_stop_by_validation,
    low_snr_config,
    run_glm_method,
)
from qnbench.solvers import METHODS, SolverConfig


def main():
    config = low_snr_config(4, 2, cov=np.ones(4))
    n, seed = 10_000, 7
    train, val, theta0 = draw_trial(config, n, seed, 1.0)
    print(f"low-SNR phase retrieval: n={n}, d=4, 90/10 train/validation split")
    print(f"{'method':>12} {'best error':>12} {'at iter':>8} "
          f"{'early-stop error':>17} {'at iter':>8} {'stop':>18}")
    solver = SolverConfig(step_size=0.1, max_iters=2000)
    for method in METHODS:
        trace = run_glm_method(method, train, theta0, solver, config.theta_star)
        choice = early_stop_by_validation(trace, val)
        print(f"{method:>12} {trace.min_error:>12.4f} {trace.iters_to_min:>8d} "
              f"{trace.errors[choice.index]:>17.4f} {choice.index:>8d} "
              f"{trace.stop_reason:>18}")
    print("\nerror is the distance to the true parameter (the origin); the")
    print("quasi-Newton methods and the Polyak step need an order of magnitude")
    print("fewer iterations than constant-step GD to reach the noise floor,")
    print("and the validation pick lands within a whisker of each trace's best.")


if __name__ == "__main__":
    main()
