"""Contraction factors of unit-step BFGS on the power-of-norm objective.

The per-step error ratios r_k obey a one-step recursion determined only by
the exponent q.  They converge to a fixed point r_* (the long-run linear
rate) geometrically, at worst halving the gap each step.  This script
prints the first few factors for a small and a large exponent, the paper's
headline fixed-point values, and confirms the halving envelope far beyond
double-precision resolution.
"""

from qnbench.rates import (
    contraction_gap_table,
    contraction_sequence,
    envelope_holds,
    fixed_point,
    newton_factor,
)


def main():
    print("fixed points and Newton factors by exponent")
    print(f"{'q':>4} {'newton (q-2)/(q-1)':>20} {'bfgs fixed point':>18}")
    for q in (4, 6, 10, 20):
        print(f"{q:>4} {newton_factor(q):>20.3f} {fixed_point(q):>18.3f}")

    for q in (4, 100):
        r_star = fixed_point(q)
        print(f"\nfactor recursion for q = {q} (r_* = {r_star:.6f})")
        for k, r in enumerate(contraction_sequence(q, 8).factors):
            gap = abs(r - r_star)
            print(f"  k={k}  r_k={r:.6f}  |r_k - r_*|={gap:.2e}")

    print("\nhalving envelope |r_k - r_*| <= (1/2)^k |r_0 - r_*|, k <= 200:")
    for q in (4, 16, 64):
        print(f"  q={q:<3} holds: {envelope_holds(q, 200)}")

    rows = contraction_gap_table(4, 5)
    print("\nfirst rows of the factors CSV (k, factor, fixed point, gap, envelope):")
    for row in rows:
        print("  " + ", ".join(f"{v:.6g}" for v in row))


if __name__ == "__main__":
    main()
