"""Objective families with exact derivatives and difference oracles.

Two differentiable families are implemented: the flat convex power-of-norm
objective ``||A theta - b||**q`` (q >= 4, so the Hessian is singular at the
minimizer) and the empirical least-square loss of a generalized linear
model with polynomial link ``y ~ (x' theta)**p``.  The population loss of
the zero-signal GLM is a pow-norm instance plus a constant; see
``glmsim.low_snr_population_objective``.

All evaluations are pure functions of (objective, theta).  Objective
instances never change what they compute after construction and may be
shared freely across concurrent solver runs.  The one piece of state built
later is an empirical loss's sufficient statistics: they are computed once,
on the first evaluation that needs them, deterministically from the data,
so a second build (say, by a concurrent first evaluation) yields the same
arrays to the bit.
"""

import copy
import math

import numpy as np

from . import rng

# Assumption floor: construction fails when smallest-singular-value(A)^2
# drops below this, since the closed-form Hessian inverse needs A'A to be
# numerically (not just formally) invertible.
GRAM_POSITIVITY_FLOOR = 1e-10

# Central-difference step; balances truncation and roundoff for values of
# magnitude up to ~1e2.
FD_STEP = 1e-5

# Rows per block when an empirical loss accumulates its sufficient
# statistics, so its Kronecker-power features never take more than
# 2048 * d**p doubles at once.
MOMENT_BLOCK_ROWS = 2048

# Matrices ``random_pow_norm_objective`` draws before giving up.
_MAX_DRAWS = 10


class SingularHessianError(ArithmeticError):
    """Hessian or Hessian inverse requested at a point where it is singular."""


class AssumptionViolationError(RuntimeError):
    """A sampled or supplied matrix fails the positive-definiteness floor."""


def _as_vector(theta, d, name="theta"):
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (d,):
        raise ValueError(f"{name} must have shape ({d},), got {theta.shape}")
    return theta


def _link_power(p) -> int:
    if not (isinstance(p, (int, np.integer)) and p >= 2):
        raise ValueError(f"link power p must be an integer >= 2, got {p!r}")
    return int(p)


def _pow_exponent(q) -> int:
    if not (isinstance(q, (int, np.integer)) and q >= 4):
        raise ValueError(f"exponent q must be an integer >= 4, got {q!r}")
    return int(q)


def _kron_power(a, k: int) -> np.ndarray:
    """Row-wise Kronecker power ``a^{(x)k}`` (k >= 1) over the last axis of
    ``a``: shape (..., d) becomes (..., d**k), the last factor's index
    fastest.  Every entry is the product of its factors taken left to
    right, whatever the leading shape."""
    out = a
    for _ in range(k - 1):
        out = (out[..., :, None] * a[..., None, :]).reshape(
            *a.shape[:-1], out.shape[-1] * a.shape[-1]
        )
    return out


def _glm_moments(x, y, p: int):
    """Sufficient statistics ``(mean(y**2), mean(y x^{(x)p}),
    mean(x^{(x)p} x^{(x)p}'))`` of the least-square loss, accumulated over
    blocks of ``MOMENT_BLOCK_ROWS`` rows."""
    n = x.shape[0]
    size = x.shape[1] ** p
    c = 0.0
    b = np.zeros(size)
    m = np.zeros((size, size))
    for start in range(0, n, MOMENT_BLOCK_ROWS):
        yb = y[start:start + MOMENT_BLOCK_ROWS]
        feats = _kron_power(x[start:start + MOMENT_BLOCK_ROWS], p)
        c += float(yb @ yb)
        b += yb @ feats
        m += feats.T @ feats
    return c / n, b / n, m / n


def design_gram(a) -> np.ndarray:
    """The Gram matrix ``A'A`` of a design ``A``, the form in which
    ``PowNormObjective`` takes it.

    ``a`` must be a finite 2-d matrix with at least one row and column
    (``ValueError`` otherwise).  A product that overflows is returned as it
    is, inf or NaN, for ``PowNormObjective``'s Gram floor to reject.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or 0 in a.shape:
        raise ValueError("a must be a 2-d matrix with at least one row and column")
    if not np.isfinite(a).all():
        raise ValueError("a must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        return a.T @ a


class PowNormObjective:
    """Convex objective f(theta) = ||A theta - b||**q with integer q >= 4.

    The target is ``b = A @ theta_opt`` for the supplied solution, so the
    problem is realizable by construction: the minimum value is exactly
    zero and (with A'A positive definite) ``theta_opt`` is the unique
    minimizer.  Neither ``A`` nor ``b`` is stored: the instance is built
    from the Gram matrix ``G = A'A`` (see ``design_gram``), and every
    evaluation works in the error ``e = theta - theta_opt``, with
    ``A theta - b = A e``, ``||A e||**2 = e'Ge`` and ``A'(A e) = G e``.
    One d-by-d matvec replaces two m-by-d ones, and no residual cancels
    near the optimum.  ``G^{-1}`` is formed once, for the closed-form
    Hessian inverse at every point.  ``gram`` is kept, not copied, so it
    must not change after construction.
    """

    def __init__(self, gram, theta_opt, q: int):
        gram = np.asarray(gram, dtype=float)
        if gram.ndim != 2 or gram.shape[0] != gram.shape[1] or gram.size == 0:
            raise ValueError("gram must be a square matrix with at least one row")
        self.d = len(gram)
        self.q = _pow_exponent(q)
        self.theta_opt = _as_vector(theta_opt, self.d, "theta_opt")
        if not np.isfinite(self.theta_opt).all():
            raise ValueError("theta_opt must be finite")

        self._gram = gram
        # ascending eigenvalues of A'A: the squared singular values of A;
        # stated positively, so an overflowed (NaN) Gram matrix fails it
        eigs = np.linalg.eigvalsh(gram)
        if not eigs[0] >= GRAM_POSITIVITY_FLOOR:
            raise AssumptionViolationError(
                f"smallest singular value squared {eigs[0]:.3e} is not at "
                f"least the positivity floor {GRAM_POSITIVITY_FLOOR:g}"
            )
        self.condition_number = float(np.sqrt(eigs[-1] / eigs[0]))
        # the floor tests a rounded eigenvalue, not conditioning, so an
        # ill-conditioned Gram matrix can pass it and still be singular to LU
        try:
            gram_inv = np.linalg.inv(gram)
        except np.linalg.LinAlgError as err:
            raise AssumptionViolationError(
                f"A'A is numerically singular (condition number of A "
                f"{self.condition_number:.3e}): {err}"
            ) from err
        # the LU inverse rounds asymmetrically; restore exact symmetry so
        # the closed-form Hessian inverse is symmetric to the bit
        self._gram_inv = 0.5 * (gram_inv + gram_inv.T)

    def _error_terms(self, theta):
        """``(e, G e, ||A theta - b||)`` with ``e = theta - theta_opt``; the
        norm is ``sqrt(e'Ge)``, a numpy float, so an overflowing power of it
        is inf (a diverged run's record), not a Python OverflowError.  A
        quadratic form that rounds below zero reads as zero."""
        e = _as_vector(theta, self.d) - self.theta_opt
        ge = self._gram @ e
        return e, ge, np.sqrt(max(float(e @ ge), 0.0))

    def value(self, theta) -> float:
        return float(self._error_terms(theta)[2] ** self.q)

    def gradient(self, theta) -> np.ndarray:
        return self.value_and_gradient(theta)[1]

    def value_and_gradient(self, theta):
        _e, ge, nr = self._error_terms(theta)
        return float(nr ** self.q), self.q * nr ** (self.q - 2) * ge

    def hessian(self, theta) -> np.ndarray:
        q = self.q
        _e, ge, nr = self._error_terms(theta)
        if nr == 0.0:
            if q == 4:
                raise SingularHessianError(
                    "Hessian is a 0**0 limit at the optimum for q = 4"
                )
            return np.zeros((self.d, self.d))
        return q * nr ** (q - 2) * self._gram + q * (q - 2) * nr ** (q - 4) * np.outer(
            ge, ge
        )

    def hessian_inverse(self, theta) -> np.ndarray:
        """Closed-form inverse Hessian via a rank-one (Sherman-Morrison) update.

        Equals ``G^{-1} / (q ||r||^{q-2}) - (q-2) ee' / (q (q-1) ||r||^q)``
        with ``e = theta - theta_opt``, ``G = A'A`` and ``||r||**2 = e'Ge``.
        """
        q = self.q
        e, _ge, nr = self._error_terms(theta)
        if nr == 0.0:
            raise SingularHessianError("Hessian is singular at the optimum")
        return self._gram_inv / (q * nr ** (q - 2)) - (q - 2) * np.outer(e, e) / (
            q * (q - 1) * nr ** q
        )

    def value_gradient_and_newton_direction(self, theta):
        """``value_and_gradient(theta)`` and the Newton direction, from one
        evaluation of ``e`` and ``G e``: one matvec with ``G`` and one with
        ``G^{-1}`` per point.

        The direction is ``G^{-1}(G e) - (q-2)/(q-1) e (e'G e) / ||r||^2``
        with ``e = theta - theta_opt``: the powers of ``||r||`` cancel, and
        both factors of the inner product are divided by ``||r||`` before
        they meet, so it stays finite wherever ``theta`` is.  It is computed
        as written, not as its analytic value ``e / (q-1)``.  At ``r = 0``,
        where the Hessian is singular and the gradient exactly zero, it is
        ``None``.  Loss and gradient are the same bits as
        ``value_and_gradient``'s.
        """
        q = self.q
        e, ge, nr = self._error_terms(theta)
        loss, grad = float(nr ** q), q * nr ** (q - 2) * ge
        if nr == 0.0:
            return loss, grad, None
        coeff = (q - 2) / (q - 1) * float((e / nr) @ (ge / nr))
        return loss, grad, self._gram_inv @ ge - coeff * e


class EmpiricalGlmLoss:
    """Sample least-square loss (1/n) sum_i (y_i - (x_i' theta)**p)**2.

    ``x`` is an (n, d) design (a 1-d array is treated as n scalars) and
    ``p >= 2`` an integer link power.  The loss is non-negative everywhere
    but non-convex in general.

    When the sufficient statistics are no larger than the data
    (``d**(2p) <= n d``, see ``uses_moments``), the loss is evaluated as
    the polynomial ``c - 2 b'phi + phi' M phi`` in ``phi = theta^{(x)p}``,
    with ``c = mean(y**2)``, ``b = mean(y x^{(x)p})`` and
    ``M = mean(x^{(x)p} x^{(x)p}')``: O(d**(2p)) per evaluation, whatever
    n.  The statistics are built by the first evaluation or call of
    ``moments`` and kept.  Near zero the terms cancel, so that form is
    clamped at zero.  Otherwise the per-sample formulas (O(nd)) are used;
    they are also the oracle for the polynomial form.
    """

    def __init__(self, x, y, p: int):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        if x.ndim != 2 or 0 in x.shape:
            raise ValueError("x must be a non-empty (n, d) array")
        y = np.asarray(y, dtype=float)
        if y.shape != (x.shape[0],):
            raise ValueError("y must be a vector with one entry per row of x")
        self.x = x
        self.y = y
        self.n, self.d = x.shape
        self.p = _link_power(p)
        self.uses_moments = self.d ** (2 * self.p) <= self.n * self.d
        self._moments = None  # (c, b, M), built by the first call of moments

    def without_samples(self):
        """A copy of this loss that holds only its sufficient statistics: its
        ``x`` and ``y`` are None and its ``moments()`` are this loss's
        arrays, kept, not copied, so it evaluates to the same bits.
        Whatever needs the samples (``samples``, the per-sample formulas) is
        a ``ValueError``, and so is this call on a loss that does not
        ``uses_moments``, which has no other form."""
        if not self.uses_moments:
            raise ValueError("a loss evaluated per sample cannot drop its samples x and y")
        loss = copy.copy(self)
        loss.x = loss.y = None
        loss._moments = self.moments()
        return loss

    def samples(self):
        """The samples ``(x, y)``; a ``ValueError`` for a loss from
        ``without_samples``, which holds none."""
        if self.x is None:
            raise ValueError(
                "this loss holds only its moment statistics, not its samples x and y"
            )
        return self.x, self.y

    def moments(self):
        """The sufficient statistics ``(c, b, M)``, built on the first call
        and kept."""
        if self._moments is None:
            self._moments = _glm_moments(self.x, self.y, self.p)
        return self._moments

    def _moment_values(self, thetas):
        """Loss at each row of ``thetas`` (k, d) from the statistics.  Each
        row takes its own vector-matrix product and dot product, the calls
        ``value_and_gradient`` makes, so a row's loss does not depend on the
        rest of the batch.  A finite row whose polynomial overflows (to
        ``inf - inf`` or ``0 * inf``) gets inf, as the per-sample sum of
        squares does."""
        c, b, m = self.moments()
        rows = _kron_power(thetas, self.p)[:, None, :]
        r = (rows @ m)[:, 0] - b
        vals = np.maximum(c + (rows @ (r - b)[:, :, None])[:, 0, 0], 0.0)
        vals[np.isnan(vals) & np.all(np.isfinite(thetas), axis=1)] = np.inf
        return vals

    def value(self, theta) -> float:
        theta = _as_vector(theta, self.d)
        if self.uses_moments:
            return float(self._moment_values(theta[None])[0])
        return self._sample_value(theta)

    def values(self, thetas) -> np.ndarray:
        """The loss at each row of ``thetas`` (k, d); row i equals
        ``value(thetas[i])`` to the bit."""
        thetas = np.asarray(thetas, dtype=float)
        if thetas.ndim != 2 or thetas.shape[1] != self.d:
            raise ValueError(f"thetas must have shape (k, {self.d}), got {thetas.shape}")
        if self.uses_moments:
            return self._moment_values(thetas)
        return np.array([self.value(theta) for theta in thetas], dtype=float)

    def gradient(self, theta) -> np.ndarray:
        return self.value_and_gradient(theta)[1]

    def value_and_gradient(self, theta):
        theta = _as_vector(theta, self.d)
        if not self.uses_moments:
            return self._sample_value_and_gradient(theta)
        c, b, m = self.moments()
        t = _kron_power(theta, self.p - 1)
        phi = (t[:, None] * theta).ravel()
        r = phi @ m - b
        grad = (2.0 * self.p) * t.dot(r.reshape(t.size, self.d))
        value = max(c + float(phi.dot(r - b)), 0.0)
        if math.isnan(value) and np.all(np.isfinite(theta)):
            value = math.inf  # overflow, as in _moment_values
        return value, grad

    def hessian(self, theta) -> np.ndarray:
        theta = _as_vector(theta, self.d)
        if not self.uses_moments:
            return self._sample_hessian(theta)
        p, d = self.p, self.d
        _c, b, m = self.moments()
        t = _kron_power(theta, p - 1)
        r = (t[:, None] * theta).ravel() @ m - b
        # M[t, ., t, .]: M contracted with t on its row and column factors
        curvature = t @ (t @ m.reshape(t.size, -1)).reshape(d, t.size, d)
        # r, a symmetric tensor, contracted with theta on all but two factors
        bend = r.reshape(-1, d * d)
        if p > 2:
            bend = _kron_power(theta, p - 2) @ bend
        return (2.0 * p * p) * curvature + (2.0 * p * (p - 1)) * bend.reshape(d, d)

    # Per-sample formulas, O(nd) per evaluation.

    def _sample_value(self, theta) -> float:
        x, y = self.samples()
        z = x @ theta
        return float(np.mean((y - z ** self.p) ** 2))

    def _sample_value_and_gradient(self, theta):
        p = self.p
        x, y = self.samples()
        z = x @ theta
        miss = y - z ** p
        grad = (-2.0 * p / self.n) * (x.T @ (miss * z ** (p - 1)))
        return float(np.mean(miss ** 2)), grad

    def _sample_hessian(self, theta) -> np.ndarray:
        p = self.p
        x, y = self.samples()
        z = x @ theta
        w = p * z ** (2 * p - 2) - (p - 1) * (y - z ** p) * z ** (p - 2)
        return (2.0 * p / self.n) * (x.T @ (x * w[:, None]))


def central_difference_gradient(func, theta, step: float = FD_STEP) -> np.ndarray:
    """Central-difference gradient of a scalar function (independent oracle):
    the one-row Jacobian of ``[func]``."""
    return central_difference_jacobian(lambda t: [func(t)], theta, step)[0]


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
) -> PowNormObjective:
    """Sample a pow-norm instance with i.i.d. Gaussian matrix entries.

    The entry scale is configurable; conditioning is reported on the
    instance rather than controlled.  Draws failing the positivity floor
    are resampled up to ``_MAX_DRAWS`` times before giving up.  Each m-by-d
    draw is freed once its Gram matrix is formed, before the O(d^3)
    eigenvalue and inverse factorizations run.
    """
    if theta_opt is None:
        theta_opt = rng.normals(rng.derive_seed(seed, 1), d)
    last_error = None
    for attempt in range(_MAX_DRAWS):
        a = rng.normals(rng.derive_seed(seed, 0, attempt), m * d).reshape(m, d)
        a *= entry_std
        gram = design_gram(a)
        del a
        try:
            return PowNormObjective(gram, theta_opt, q)
        except AssumptionViolationError as err:
            # the message only: the error's traceback would keep the
            # rejected Gram matrix alive through the next draw
            last_error = str(err)
    raise AssumptionViolationError(
        f"no admissible matrix after {_MAX_DRAWS} draws: {last_error}"
    )
