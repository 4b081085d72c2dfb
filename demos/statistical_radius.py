"""Statistical radius of BFGS estimates as the sample size grows.

Running BFGS on datasets of increasing size and recording the best
distance to the truth along each trace measures the attainable estimation
error.  On a log-log plot the per-size medians fall on a line: slope -1/2
in the high signal-to-noise regime, but only -1/4 when the signal is zero
(p = 2), the price of the flat loss.  Medians over 40 trials with
quartile bands, exactly as the radius CSV reports them.
"""

import numpy as np

from qnbench import rng
from qnbench.glmsim import (
    GlmModelConfig,
    low_snr_config,
    run_radius_sweep,
)
from qnbench.solvers import SolverConfig

N_GRID = [100, 316, 1000, 3162, 10000]


def show(tag, result):
    print(f"\n{tag}")
    print(f"{'n':>7} {'median':>10} {'q25':>10} {'q75':>10} {'iters':>6}")
    for n, med, q25, q75, iters in result.summaries():
        print(f"{n:>7} {med:>10.4f} {q25:>10.4f} {q75:>10.4f} {iters:>6.1f}")
    print(f"fitted log-log slope: {result.fitted_slope:+.3f} "
          f"(stderr {result.slope_stderr:.3f})")


def main():
    solver = SolverConfig(max_iters=100)

    low = run_radius_sweep(
        low_snr_config(d=4, p=2), solver, N_GRID, trials=40, seed0=11,
        init_radius=2.0, method="bfgs",
    )
    show("low SNR (theta* = 0, decaying covariance): expect slope near -1/4", low)

    high_config = GlmModelConfig(
        4, 2, rng.unit_vector(4, rng.derive_seed(11, 17)), cov=np.ones(4),
        regime="high-snr",
    )
    high = run_radius_sweep(
        high_config, solver, N_GRID, trials=40, seed0=11, init_radius=1.0,
        method="bfgs",
    )
    show("high SNR (unit theta*, isotropic covariance): expect slope near -1/2", high)


if __name__ == "__main__":
    main()
