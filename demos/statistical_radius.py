"""Statistical radius of BFGS estimates as the sample size grows.

Running BFGS on datasets of increasing size and recording the best
distance to the truth along each trace measures the attainable estimation
error.  On a log-log plot the per-size medians fall on a line: slope -1/2
in the high signal-to-noise regime, but only -1/4 when the signal is zero
(p = 2), the price of the flat loss.  Medians over 40 trials with
quartile bands, exactly as the radius CSV reports them.  The two sweeps
are acceptance criterion 9's (``qnbench.acceptance.radius_sweeps``); this
script prints the slopes that criterion checks.
"""

from qnbench.acceptance import radius_sweeps


def show(tag, result):
    print(f"\n{tag}")
    print(f"{'n':>7} {'median':>10} {'q25':>10} {'q75':>10} {'iters':>6}")
    for n, med, q25, q75, iters in zip(*result.table.values()):
        print(f"{n:>7} {med:>10.4f} {q25:>10.4f} {q75:>10.4f} {iters:>6.1f}")
    print(f"fitted log-log slope: {result.fitted_slope:+.3f} "
          f"(stderr {result.slope_stderr:.3f})")


def main():
    low, high = radius_sweeps()
    show("low SNR (theta* = 0, decaying covariance): expect slope near -1/4", low)
    show("high SNR (unit theta*, isotropic covariance): expect slope near -1/2", high)


if __name__ == "__main__":
    main()
