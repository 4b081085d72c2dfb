"""Objective families with exact derivatives and difference oracles.

Two differentiable families are implemented: the flat convex power-of-norm
objective ``||A theta - b||**q`` (q >= 4, so the Hessian is singular at the
minimizer) and the empirical least-square loss of a generalized linear
model with polynomial link ``y ~ (x' theta)**p``.  A third, evaluation-only
family gives the population loss of the zero-signal GLM.

All evaluations are pure functions of (objective, theta); objective
instances never mutate after construction and may be shared freely across
concurrent solver runs.
"""

import math

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from . import rng

# Assumption floor: construction fails when smallest-singular-value(A)^2
# drops below this, since the closed-form Hessian inverse needs A'A to be
# numerically (not just formally) invertible.
GRAM_POSITIVITY_FLOOR = 1e-10

# Central-difference step; balances truncation and roundoff for values of
# magnitude up to ~1e2.
FD_STEP = 1e-5


class SingularHessianError(ArithmeticError):
    """Hessian or Hessian inverse requested at a point where it is singular."""


class AssumptionViolationError(RuntimeError):
    """A sampled or supplied matrix fails the positive-definiteness floor."""


def double_factorial(k: int) -> int:
    """Product of the odd integers up to ``k``; 1 for k <= 1.

    Even k > 0 is rejected: only odd double factorials (Gaussian moment
    coefficients) are meaningful here.
    """
    k = int(k)
    if k <= 1:
        return 1
    if k % 2 == 0:
        raise ValueError(f"double_factorial needs an odd argument, got {k}")
    return math.prod(range(1, k + 1, 2))


def _as_vector(theta, d, name="theta"):
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (d,):
        raise ValueError(f"{name} must have shape ({d},), got {theta.shape}")
    return theta


class PowNormObjective:
    """Convex objective f(theta) = ||A theta - b||**q with integer q >= 4.

    The target vector is always built as ``b = A @ theta_opt`` from the
    supplied solution, so the problem is realizable by construction: the
    minimum value is exactly zero and (with A'A positive definite)
    ``theta_opt`` is the unique minimizer.  ``(A'A)^{-1}`` is factorized
    once here because the closed-form Hessian inverse reuses it at every
    point.
    """

    def __init__(self, a, theta_opt, q: int):
        a = np.asarray(a, dtype=float)
        if a.ndim != 2 or 0 in a.shape:
            raise ValueError("a must be a 2-d matrix with at least one row and column")
        if not (isinstance(q, (int, np.integer)) and q >= 4):
            raise ValueError(f"exponent q must be an integer >= 4, got {q!r}")
        self.a = a
        self.m, self.d = a.shape
        self.q = int(q)
        self.theta_opt = _as_vector(theta_opt, self.d, "theta_opt")
        self.b = a @ self.theta_opt

        self._gram = a.T @ a
        # ascending eigenvalues of A'A: the squared singular values of A
        eigs = np.linalg.eigvalsh(self._gram)
        if eigs[0] < GRAM_POSITIVITY_FLOOR:
            raise AssumptionViolationError(
                f"smallest singular value squared {eigs[0]:.3e} is below "
                f"the positivity floor {GRAM_POSITIVITY_FLOOR:g}"
            )
        self.condition_number = float(np.sqrt(eigs[-1] / eigs[0]))
        gram_inv = cho_solve(cho_factor(self._gram), np.eye(self.d))
        # triangular solves round asymmetrically; restore exact symmetry so
        # the closed-form Hessian inverse is symmetric to the bit
        self._gram_inv = 0.5 * (gram_inv + gram_inv.T)

    def residual(self, theta) -> np.ndarray:
        theta = _as_vector(theta, self.d)
        return self.a @ theta - self.b

    def value(self, theta) -> float:
        return float(np.linalg.norm(self.residual(theta)) ** self.q)

    def gradient(self, theta) -> np.ndarray:
        return self.value_and_gradient(theta)[1]

    def value_and_gradient(self, theta):
        r = self.residual(theta)
        # a numpy float, so an overflowing power is inf (a diverged run's
        # record), not a Python OverflowError
        nr = np.linalg.norm(r)
        grad = self.q * nr ** (self.q - 2) * (self.a.T @ r)
        return float(nr ** self.q), grad

    def hessian(self, theta) -> np.ndarray:
        q = self.q
        r = self.residual(theta)
        nr = np.linalg.norm(r)
        if nr == 0.0:
            if q == 4:
                raise SingularHessianError(
                    "Hessian is a 0**0 limit at the optimum for q = 4"
                )
            return np.zeros((self.d, self.d))
        atr = self.a.T @ r
        return q * nr ** (q - 2) * self._gram + q * (q - 2) * nr ** (q - 4) * np.outer(
            atr, atr
        )

    def hessian_inverse(self, theta) -> np.ndarray:
        """Closed-form inverse Hessian via a rank-one (Sherman-Morrison) update.

        Equals ``(A'A)^{-1} / (q ||r||^{q-2})
        - (q-2) dd' / (q (q-1) ||r||^q)`` with ``d = theta - theta_opt``.
        """
        q = self.q
        theta = _as_vector(theta, self.d)
        r = self.a @ theta - self.b
        nr = np.linalg.norm(r)
        if nr == 0.0:
            raise SingularHessianError("Hessian is singular at the optimum")
        dev = theta - self.theta_opt
        return self._gram_inv / (q * nr ** (q - 2)) - (q - 2) * np.outer(dev, dev) / (
            q * (q - 1) * nr ** q
        )

    def newton_direction(self, theta) -> np.ndarray:
        """Newton direction ``hessian_inverse(theta) @ gradient(theta)`` in
        cancelled form.

        Equals ``(A'A)^{-1} A'r - (q-2)/(q-1) d (d'A'r) / ||r||^2`` with
        ``d = theta - theta_opt``: the powers of ``||r||`` cancel, and both
        factors of the inner product are divided by ``||r||`` before they
        meet, so the direction stays finite wherever ``theta`` is.
        """
        q = self.q
        theta = _as_vector(theta, self.d)
        r = self.a @ theta - self.b
        nr = float(np.linalg.norm(r))
        if nr == 0.0:
            raise SingularHessianError("Hessian is singular at the optimum")
        atr = self.a.T @ r
        dev = theta - self.theta_opt
        coeff = (q - 2) / (q - 1) * float((dev / nr) @ (atr / nr))
        return self._gram_inv @ atr - coeff * dev


class EmpiricalGlmLoss:
    """Sample least-square loss (1/n) sum_i (y_i - (x_i' theta)**p)**2.

    ``x`` is an (n, d) design (a 1-d array is treated as n scalars) and
    ``p >= 2`` an integer link power.  The loss is non-negative everywhere
    but non-convex in general.
    """

    def __init__(self, x, y, p: int):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        if x.ndim != 2 or x.shape[0] < 1:
            raise ValueError("x must be a non-empty (n, d) array")
        y = np.asarray(y, dtype=float)
        if y.shape != (x.shape[0],):
            raise ValueError("y must be a vector with one entry per row of x")
        if not (isinstance(p, (int, np.integer)) and p >= 2):
            raise ValueError(f"link power p must be an integer >= 2, got {p!r}")
        self.x = x
        self.y = y
        self.n, self.d = x.shape
        self.p = int(p)

    def value(self, theta) -> float:
        theta = _as_vector(theta, self.d)
        z = self.x @ theta
        return float(np.mean((self.y - z ** self.p) ** 2))

    def gradient(self, theta) -> np.ndarray:
        return self.value_and_gradient(theta)[1]

    def value_and_gradient(self, theta):
        p = self.p
        theta = _as_vector(theta, self.d)
        z = self.x @ theta
        miss = self.y - z ** p
        grad = (-2.0 * p / self.n) * (self.x.T @ (miss * z ** (p - 1)))
        return float(np.mean(miss ** 2)), grad

    def hessian(self, theta) -> np.ndarray:
        p = self.p
        theta = _as_vector(theta, self.d)
        z = self.x @ theta
        w = p * z ** (2 * p - 2) - (p - 1) * (self.y - z ** p) * z ** (p - 2)
        return (2.0 * p / self.n) * (self.x.T @ (self.x * w[:, None]))


class LowSnrPopulationLoss:
    """Population loss of the zero-signal GLM: (2p-1)!! ||S theta||^{2p} + var.

    ``cov_sqrt`` is any square root S of the feature covariance (S'S or SS'
    equal to it; only ||S theta|| matters).  The value at theta = 0 equals
    the noise variance exactly, and the even exponent makes the loss
    invariant under theta -> -theta.
    """

    def __init__(self, cov_sqrt, p: int, noise_var: float):
        cov_sqrt = np.asarray(cov_sqrt, dtype=float)
        if cov_sqrt.ndim != 2 or cov_sqrt.shape[0] != cov_sqrt.shape[1]:
            raise ValueError("cov_sqrt must be a square matrix")
        if not (isinstance(p, (int, np.integer)) and p >= 2):
            raise ValueError(f"link power p must be an integer >= 2, got {p!r}")
        if noise_var < 0:
            raise ValueError("noise variance must be non-negative")
        self.cov_sqrt = cov_sqrt
        self.d = cov_sqrt.shape[0]
        self.p = int(p)
        self.noise_var = float(noise_var)
        self._coeff = float(double_factorial(2 * self.p - 1))

    def value(self, theta) -> float:
        theta = _as_vector(theta, self.d)
        return (
            self._coeff * float(np.linalg.norm(self.cov_sqrt @ theta)) ** (2 * self.p)
            + self.noise_var
        )


def central_difference_gradient(func, theta, step: float = FD_STEP) -> np.ndarray:
    """Central-difference gradient of a scalar function (independent oracle)."""
    theta = np.asarray(theta, dtype=float)
    out = np.empty_like(theta)
    for i in range(theta.size):
        hi = theta.copy()
        lo = theta.copy()
        hi[i] += step
        lo[i] -= step
        out[i] = (func(hi) - func(lo)) / (2.0 * step)
    return out


def central_difference_jacobian(vec_func, theta, step: float = FD_STEP) -> np.ndarray:
    """Central-difference Jacobian of a vector function, one column per input."""
    theta = np.asarray(theta, dtype=float)
    cols = []
    for i in range(theta.size):
        hi = theta.copy()
        lo = theta.copy()
        hi[i] += step
        lo[i] -= step
        cols.append((np.asarray(vec_func(hi)) - np.asarray(vec_func(lo))) / (2.0 * step))
    return np.stack(cols, axis=1)


def random_pow_norm_objective(
    d: int,
    m: int,
    q: int,
    seed: int,
    entry_std: float = 1.0,
    theta_opt=None,
    max_tries: int = 10,
) -> PowNormObjective:
    """Sample a pow-norm instance with i.i.d. Gaussian matrix entries.

    The entry scale is configurable; conditioning is reported on the
    instance rather than controlled.  Draws failing the positivity floor
    are resampled up to ``max_tries`` times before giving up.
    """
    if theta_opt is None:
        theta_opt = rng.normals(rng.derive_seed(seed, 1), d)
    last_error = None
    for attempt in range(max_tries):
        a = entry_std * rng.normals(rng.derive_seed(seed, 0, attempt), m * d).reshape(
            m, d
        )
        try:
            return PowNormObjective(a, theta_opt, q)
        except AssumptionViolationError as err:
            last_error = err
    raise AssumptionViolationError(
        f"no admissible matrix after {max_tries} draws: {last_error}"
    )
