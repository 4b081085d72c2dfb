"""Exact contraction-rate theory for unit-step quasi-Newton runs.

On the pow-norm objective with exponent q, unit-step BFGS started from the
exact inverse Hessian contracts the error by a factor r_k at step k, where

    r_0 = (q - 2) / (q - 1),    r_k = (1 - r_{k-1}**(q-2)) / (1 - r_{k-1}**(q-1)).

The factors converge to the unique root r_* in (0, 1) of
``r**(q-1) + r**(q-2) = 1`` at a geometric rate of at most 1/2, because the
one-step map has derivative bounded by 1/2 in absolute value on [0, 1).
Newton's method contracts by the constant (q - 2)/(q - 1) < r_* instead.

This module is the oracle that solver tests compare against.  Everything
here is stateless and pure.  One root finder serves both precisions:
``_root`` runs Newton's method on ``r**(q-1) + r**(q-2) - 1`` in the
standard library's ``decimal``.  Double precision covers solver
comparisons; the geometric-envelope check needs gaps far below 1e-16, so
the table used for it runs in a decimal context of a few hundred digits.
"""

from dataclasses import dataclass
from decimal import Context, Decimal, localcontext

import numpy as np

from .objectives import _link_power, _pow_exponent

# Decimal digits by which the smallest gap |r_k - r_*| of a high-precision
# table must exceed the working epsilon.
GAP_SPARE_DIGITS = 20

# Points of the uniform grid on which the factor map's derivative is bounded.
_DERIVATIVE_GRID_POINTS = 10_000


def newton_factor(q: int) -> float:
    """Per-step error ratio of unit-step Newton on the pow-norm objective."""
    q = _pow_exponent(q)
    return (q - 2) / (q - 1)


def scalar_secant_contraction_bound(p: int) -> float:
    """Guaranteed error contraction of the one-dimensional secant run.

    While the iterates stay ordered above twice the magnitude of the
    empirical optimum, the error to that optimum shrinks per step by at
    least ``1 - (p/(p+1))**(2p-2) / (2p**2 - p)``.
    """
    p = _link_power(p)
    return 1.0 - (p / (p + 1)) ** (2 * p - 2) / (2 * p * p - p)


def _root(q: int, digits: int) -> Decimal:
    """r_* to ``digits`` significant digits, by Newton's method on
    ``f(r) = r**(q-1) + r**(q-2) - 1`` from r = 1.

    f is increasing and convex on [0, 1], so the iterates fall
    monotonically onto the root; the loop ends when a step no longer moves
    the iterate, or after 64 steps.
    """
    with localcontext(Context(prec=digits)):
        r = Decimal(1)
        for _ in range(64):
            step = (r ** (q - 1) + r ** (q - 2) - 1) / (
                (q - 1) * r ** (q - 2) + (q - 2) * r ** (q - 3)
            )
            if r - step == r:
                break
            r -= step
        return r


def fixed_point(q: int) -> float:
    """The limit factor r_*: unique root in (0, 1) of r**(q-1) + r**(q-2) = 1,
    correctly rounded to a double (``_root`` at 20 digits)."""
    return float(_root(_pow_exponent(q), 20))


def contraction_map(q: int, r: float) -> float:
    """One step of the factor recursion: r -> (1 - r**(q-2)) / (1 - r**(q-1)).

    Accepts a float or a ``Decimal``, computed in the current context.
    """
    q = _pow_exponent(q)
    if not 0 <= r < 1:
        raise ValueError(f"r must lie in [0, 1), got {r!r}")
    return (1 - r ** (q - 2)) / (1 - r ** (q - 1))


@dataclass(frozen=True)
class ContractionSequence:
    """Factors r_0..r_K of the recursion; their limit is ``fixed_point(q)``."""

    q: int
    factors: np.ndarray


def contraction_sequence(q: int, k_max: int) -> ContractionSequence:
    """Factors r_0..r_{k_max} in double precision."""
    q = _pow_exponent(q)
    if k_max < 0:
        raise ValueError("k_max must be non-negative")
    factors = np.empty(k_max + 1)
    factors[0] = (q - 2) / (q - 1)
    for k in range(1, k_max + 1):
        factors[k] = contraction_map(q, factors[k - 1])
    return ContractionSequence(q=q, factors=factors)


def contraction_map_derivative_bound(q: int) -> float:
    """The largest |derivative| of the factor map on a grid over [0, 1),
    which the theory bounds by 1/2.

    Evaluates ``|(q-1) r**(q-2) - r**(2q-4) - (q-2) r**(q-3)| /
    (1 - r**(q-1))**2`` on a uniform grid of ``_DERIVATIVE_GRID_POINTS``
    points over [0, 1 - 1e-6].  The denominator is formed as
    -expm1((q-1) log r) so it stays accurate where r**(q-1) is close to 1.
    """
    q = _pow_exponent(q)
    r = np.linspace(0.0, 1.0 - 1e-6, _DERIVATIVE_GRID_POINTS)
    numer = np.abs((q - 1) * r ** (q - 2) - r ** (2 * q - 4) - (q - 2) * r ** (q - 3))
    with np.errstate(divide="ignore"):
        one_minus_pow = -np.expm1((q - 1) * np.log(r))
    one_minus_pow[r == 0.0] = 1.0
    return float(np.max(numer / one_minus_pow ** 2))


def _gap_rows(q, k_max):
    """Rows ``(r_k, r_*, |r_k - r_*|, (1/2)**k |r_0 - r_*|)`` for
    k = 0..k_max as ``Decimal``s, at a precision that resolves every gap
    to at least ``GAP_SPARE_DIGITS`` digits.

    Near ``r_*`` the gap shrinks by ``|T'(r_*)|`` per step: 0.3848 at
    q = 4, rising towards 0.3863 for large q, so about 0.413-0.415 decimal
    digits per step, faster than the (1/2)**k envelope.  The first precision
    tried allows 0.42 digits per step; one that leaves the last gap too
    close to the working epsilon is raised by the shortfall and the table
    recomputed.  Every operation runs inside the working context.
    """
    q = _pow_exponent(q)
    if k_max < 0:
        raise ValueError("k_max must be non-negative")
    digits = 40 + int(0.42 * k_max) + 1
    while True:
        r_star = _root(q, digits)
        with localcontext(Context(prec=digits)):
            factors = [Decimal(q - 2) / (q - 1)]
            for _ in range(k_max):
                factors.append(contraction_map(q, factors[-1]))
            gaps = [abs(r - r_star) for r in factors]
            # digits of the last gap above the working epsilon 10**(1 - digits)
            spare = 0 if gaps[-1] == 0 else gaps[-1].adjusted() + digits - 1
            if spare >= GAP_SPARE_DIGITS:
                return [
                    (r, r_star, gap, gaps[0] / 2 ** k)
                    for k, (r, gap) in enumerate(zip(factors, gaps))
                ]
        digits += GAP_SPARE_DIGITS - spare


def envelope_holds(q: int, k_max: int) -> bool:
    """Whether |r_k - r_*| <= (1/2)**k |r_0 - r_*| for every k <= k_max.

    Checked in high precision: the right-hand side drops below any
    double-precision resolution within ~55 steps.
    """
    return all(gap <= envelope for _r, _r_star, gap, envelope in _gap_rows(q, k_max))


def contraction_gap_table(q: int, k_max: int):
    """Rows (k, factor, fixed_point, abs_gap, envelope) for factor-convergence plots.

    Computed in high precision then rounded to doubles, so
    ``abs_gap <= envelope`` holds on every row even for k in the hundreds.
    """
    return [(k, *map(float, row)) for k, row in enumerate(_gap_rows(q, k_max))]
