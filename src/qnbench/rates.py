"""Exact contraction-rate theory for unit-step quasi-Newton runs.

On the pow-norm objective with exponent q, unit-step BFGS started from the
exact inverse Hessian contracts the error by a factor r_k at step k, where

    r_0 = (q - 2) / (q - 1),    r_k = (1 - r_{k-1}**(q-2)) / (1 - r_{k-1}**(q-1)).

The factors converge to the unique root r_* in (0, 1) of
``r**(q-1) + r**(q-2) = 1`` at a geometric rate of at most 1/2, because the
one-step map has derivative bounded by 1/2 in absolute value on [0, 1).
Newton's method contracts by the constant (q - 2)/(q - 1) < r_* instead.

This module is the oracle that solver tests compare against.  Everything
here is stateless and pure.  Double precision covers solver comparisons;
the geometric-envelope check needs gaps far below 1e-16, so the table used
for it runs on mpmath arbitrary precision.
"""

from dataclasses import dataclass

import mpmath
import numpy as np


# Decimal digits by which the smallest gap |r_k - r_*| of a high-precision
# table must exceed the working epsilon.
GAP_SPARE_DIGITS = 20


def _check_q(q):
    if not (isinstance(q, (int, np.integer)) and q >= 4):
        raise ValueError(f"exponent q must be an integer >= 4, got {q!r}")
    return int(q)


def newton_factor(q: int) -> float:
    """Per-step error ratio of unit-step Newton on the pow-norm objective."""
    q = _check_q(q)
    return (q - 2) / (q - 1)


def scalar_secant_contraction_bound(p: int) -> float:
    """Guaranteed error contraction of the one-dimensional secant run.

    While the iterates stay ordered above twice the magnitude of the
    empirical optimum, the error to that optimum shrinks per step by at
    least ``1 - (p/(p+1))**(2p-2) / (2p**2 - p)``.
    """
    if not (isinstance(p, (int, np.integer)) and p >= 2):
        raise ValueError(f"link power p must be an integer >= 2, got {p!r}")
    return 1.0 - (p / (p + 1)) ** (2 * p - 2) / (2 * p * p - p)


def fixed_point(q: int) -> float:
    """The limit factor r_*: unique root in (0, 1) of r**(q-1) + r**(q-2) = 1.

    Plain bisection on [0, 1]; the left-hand side is strictly increasing in
    r, so the root is bracketed throughout.
    """
    q = _check_q(q)
    lo, hi = 0.0, 1.0
    for _ in range(200):
        if hi - lo <= 1e-15:
            break
        mid = 0.5 * (lo + hi)
        if mid ** (q - 1) + mid ** (q - 2) > 1.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def contraction_map(q: int, r: float) -> float:
    """One step of the factor recursion: r -> (1 - r**(q-2)) / (1 - r**(q-1))."""
    q = _check_q(q)
    if not 0.0 <= r < 1.0:
        raise ValueError(f"r must lie in [0, 1), got {r!r}")
    return (1.0 - r ** (q - 2)) / (1.0 - r ** (q - 1))


@dataclass(frozen=True)
class ContractionSequence:
    """Factors r_0..r_K of the recursion together with the fixed point r_*."""

    q: int
    factors: np.ndarray
    fixed_point: float


def contraction_sequence(q: int, k_max: int) -> ContractionSequence:
    """Factors r_0..r_{k_max} in double precision plus the fixed point."""
    q = _check_q(q)
    if k_max < 0:
        raise ValueError("k_max must be non-negative")
    factors = np.empty(k_max + 1)
    factors[0] = (q - 2) / (q - 1)
    for k in range(1, k_max + 1):
        factors[k] = contraction_map(q, factors[k - 1])
    return ContractionSequence(q=q, factors=factors, fixed_point=fixed_point(q))


@dataclass(frozen=True)
class DerivativeBoundReport:
    max_abs_derivative: float
    holds: bool


def contraction_map_derivative_bound(
    q: int, grid_points: int = 10_000
) -> DerivativeBoundReport:
    """Grid check that the factor map has |derivative| <= 1/2 on [0, 1).

    Evaluates ``|(q-1) r**(q-2) - r**(2q-4) - (q-2) r**(q-3)| /
    (1 - r**(q-1))**2`` on a uniform grid over [0, 1 - 1e-6].  The
    denominator is formed as -expm1((q-1) log r) so it stays accurate where
    r**(q-1) is close to 1.
    """
    q = _check_q(q)
    if grid_points < 100:
        raise ValueError("grid_points must be at least 100")
    r = np.linspace(0.0, 1.0 - 1e-6, grid_points)
    numer = np.abs((q - 1) * r ** (q - 2) - r ** (2 * q - 4) - (q - 2) * r ** (q - 3))
    with np.errstate(divide="ignore"):
        one_minus_pow = -np.expm1((q - 1) * np.log(r))
    one_minus_pow[r == 0.0] = 1.0
    max_abs = float(np.max(numer / one_minus_pow ** 2))
    return DerivativeBoundReport(max_abs_derivative=max_abs, holds=max_abs <= 0.5 + 1e-9)


def _highprec_factors(q, k_max):
    """Factors and fixed point as mpmath numbers, at a precision that resolves
    every gap ``|r_k - r_*|`` to at least ``GAP_SPARE_DIGITS`` digits.

    Near ``r_*`` the gap shrinks by ``|T'(r_*)|`` per step: 0.3848 at
    q = 4, rising towards 0.3863 for large q, so about 0.413-0.415 decimal
    digits per step, faster than the (1/2)**k envelope.  The first precision
    tried allows 0.42 digits per step; one that leaves the last gap too
    close to the working epsilon is raised by the shortfall and the table
    recomputed.  The fixed
    point starts from its double-precision value and is polished by Newton
    steps on ``r**(q-1) + r**(q-2) - 1`` until a step no longer moves it;
    from 15 correct digits, ten quadratic steps pass 10**4.
    """
    q = _check_q(q)
    if k_max < 0:
        raise ValueError("k_max must be non-negative")
    digits = 40 + int(0.42 * k_max) + 1
    while True:
        with mpmath.workdps(digits):
            r_star = mpmath.mpf(fixed_point(q))
            for _ in range(64):
                step = (r_star ** (q - 1) + r_star ** (q - 2) - 1) / (
                    (q - 1) * r_star ** (q - 2) + (q - 2) * r_star ** (q - 3)
                )
                r_star -= step
                if abs(step) <= mpmath.eps:
                    break
            factors = [mpmath.mpf(q - 2) / (q - 1)]
            for _ in range(k_max):
                r = factors[-1]
                factors.append((1 - r ** (q - 2)) / (1 - r ** (q - 1)))
            gap = abs(factors[-1] - r_star)
            spare = 0 if gap == 0 else int(mpmath.floor(mpmath.log10(gap / mpmath.eps)))
            if spare >= GAP_SPARE_DIGITS:
                return factors, r_star
        digits += GAP_SPARE_DIGITS - spare


def envelope_holds(q: int, k_max: int) -> bool:
    """Whether |r_k - r_*| <= (1/2)**k |r_0 - r_*| for every k <= k_max.

    Checked in arbitrary precision: the right-hand side drops below any
    double-precision resolution within ~55 steps.
    """
    factors, r_star = _highprec_factors(q, k_max)
    gap0 = abs(factors[0] - r_star)
    return all(
        abs(r - r_star) <= gap0 / mpmath.mpf(2) ** k for k, r in enumerate(factors)
    )


def contraction_gap_table(q: int, k_max: int):
    """Rows (k, factor, fixed_point, abs_gap, envelope) for factor-convergence plots.

    Computed in arbitrary precision then rounded to doubles, so
    ``abs_gap <= envelope`` holds on every row even for k in the hundreds.
    """
    factors, r_star = _highprec_factors(q, k_max)
    gap0 = abs(factors[0] - r_star)
    rows = []
    for k, r in enumerate(factors):
        rows.append(
            (
                k,
                float(r),
                float(r_star),
                float(abs(r - r_star)),
                float(gap0 / mpmath.mpf(2) ** k),
            )
        )
    return rows
