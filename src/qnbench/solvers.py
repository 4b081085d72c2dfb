"""Iterative solvers with full per-iteration traces.

Five methods at desk scale: gradient descent with a constant step, gradient
descent with the Polyak step (f(theta) - f_star) / ||grad||**2, Newton with
unit step, matrix BFGS with unit step, and the one-dimensional secant form
of BFGS for scalar empirical losses.  Newton and BFGS deliberately take no
line search: the point of the rate theory they are checked against is unit
steps throughout.

Each run owns its mutable state; traces are built once and treated as
immutable afterwards.  Runs on a shared objective may proceed concurrently.
"""

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.linalg import cho_factor, cho_solve

STOP_GRAD_TOL = "grad-tol"
STOP_MAX_ITERS = "max-iters"
STOP_DIVERGED = "diverged"
STOP_SECANT_BREAKDOWN = "secant-breakdown"

# Stop reasons that cut a run short of convergence or of its budget.
STOPS_INTERRUPTED = (STOP_DIVERGED, STOP_SECANT_BREAKDOWN)

# Relative floor on the BFGS curvature s'u; the rate theory guarantees
# positive curvature on its trajectory but finite precision near the
# optimum does not, so breakdown is a recorded stop, never a crash.
CURVATURE_FLOOR = 1e-14

# Absolute floor on the scalar secant denominator (gradient difference).
SCALAR_SECANT_FLOOR = 1e-14

# Step used to synthesize the second starting point of the scalar method
# when only one is supplied.
SCALAR_BOOTSTRAP_STEP = 1e-3

NEWTON_RIDGE = 1e-12

# Rows per panel of the in-place BFGS update; its two work panels take
# 2 * 64 * d doubles, 1 MB at d = 1000.
BFGS_PANEL_ROWS = 64


# The vector methods ``run_method`` accepts, in report order.
METHODS = ("gd-constant", "gd-polyak", "newton", "bfgs")


@dataclass(frozen=True)
class SolverConfig:
    """Run limits shared by all methods.

    ``step_size`` is read by gd-constant only; Newton and both BFGS forms
    always take unit steps.
    """

    step_size: float = 0.1
    max_iters: int = 10_000
    grad_tol: float = 0.0
    divergence_cap: float = 1e8

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.grad_tol < 0:
            raise ValueError("grad_tol must be non-negative")
        if self.divergence_cap <= 0:
            raise ValueError("divergence_cap must be positive")


@dataclass
class SolverTrace:
    """Per-iteration record of a run.

    ``iterates`` has shape (K+1, d) for vector runs and (K+1,) for scalar
    runs; ``errors``, ``grad_norms`` and ``losses`` all have length K+1.
    ``step_info`` carries method-specific per-step metadata (Polyak step
    sizes, BFGS secant residuals).
    """

    iterates: np.ndarray
    errors: np.ndarray
    grad_norms: np.ndarray
    losses: np.ndarray
    stop_reason: str
    step_info: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.errors)

    def error_ratios(self) -> np.ndarray:
        """errors[k+1] / errors[k]; nan where the denominator is zero."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(
                self.errors[:-1] > 0, self.errors[1:] / self.errors[:-1], np.nan
            )

    @property
    def min_error(self) -> float:
        """Smallest finite error along the trace (diverged tails excluded)."""
        masked = np.where(np.isfinite(self.errors), self.errors, np.inf)
        return float(np.min(masked))

    @property
    def iters_to_min(self) -> int:
        masked = np.where(np.isfinite(self.errors), self.errors, np.inf)
        return int(np.argmin(masked))


def _iterate(evaluate, starts, theta_ref, config, step, check=None, after=None,
             step_info=None) -> SolverTrace:
    """The iteration shared by every solver: record the starting points,
    then stop check, step, evaluate and record until a stop.

    ``starts`` lists evaluated ``(theta, loss, grad)`` triples, recorded in
    order; the loop continues from the last.  Before each step, ``check``
    (when given) sees the last recorded loss and gradient norm and may
    return a stop reason; then the run stops as diverged at a non-finite
    loss, gradient norm or error, as converged at a gradient norm within
    ``grad_tol``, and as diverged at an error above ``divergence_cap``.
    ``step(theta, loss, grad)`` returns the next iterate, or ``None`` when
    its secant denominator has broken down.  After each record,
    ``after(theta, grad, theta_next, grad_next)`` (when given) may return
    a stop reason; the new iterate is recorded either way, and a stop
    there on a non-finite record is diverged.  A run that
    uses all ``max_iters`` steps and ends on a diverged record is
    labelled diverged.  ``step_info`` maps names to lists that the
    callbacks fill, one entry per step or update.
    """
    size = config.max_iters + len(starts)
    iterates = np.empty((size, *np.shape(starts[0][0])))
    errors = np.empty(size)
    grad_norms = np.empty(size)
    losses = np.empty(size)
    theta_ref = np.asarray(theta_ref, dtype=float)
    count = 0

    def record(theta, loss, grad):
        nonlocal count
        iterates[count] = theta
        errors[count] = np.linalg.norm(theta - theta_ref)
        grad_norms[count] = np.linalg.norm(grad)
        losses[count] = loss
        count += 1

    def finite_record():
        return (math.isfinite(losses[count - 1]) and math.isfinite(grad_norms[count - 1])
                and math.isfinite(errors[count - 1]))

    def limit_stop():
        if not finite_record():
            return STOP_DIVERGED
        if grad_norms[count - 1] <= config.grad_tol:
            return STOP_GRAD_TOL
        if errors[count - 1] > config.divergence_cap:
            return STOP_DIVERGED
        return None

    with np.errstate(all="ignore"):
        for start in starts:
            record(*start)
        theta, loss, grad = starts[-1]
        for _ in range(config.max_iters):
            stop = check(losses[count - 1], grad_norms[count - 1]) if check else None
            stop = stop or limit_stop()
            if stop is not None:
                break
            theta_next = step(theta, loss, grad)
            if theta_next is None:
                stop = STOP_SECANT_BREAKDOWN
                break
            loss, grad_next = evaluate(theta_next)
            record(theta_next, loss, grad_next)
            stop = after(theta, grad, theta_next, grad_next) if after else None
            if stop is not None:
                if not finite_record():
                    stop = STOP_DIVERGED
                break
            theta, grad = theta_next, grad_next
        else:
            stop = STOP_DIVERGED if limit_stop() == STOP_DIVERGED else STOP_MAX_ITERS
    return SolverTrace(
        iterates=iterates[:count],
        errors=errors[:count],
        grad_norms=grad_norms[:count],
        losses=losses[:count],
        stop_reason=stop,
        step_info={key: np.asarray(value) for key, value in (step_info or {}).items()},
    )


def _vector_start(objective, theta0, theta_ref):
    """Evaluated starting triple and reference point of a vector run."""
    theta = np.asarray(theta0, dtype=float).copy()
    if theta_ref is None:
        theta_ref = objective.theta_opt
    return (theta, *objective.value_and_gradient(theta)), theta_ref


def run_gd_constant(objective, theta0, config=None, theta_ref=None) -> SolverTrace:
    """Gradient descent theta <- theta - step_size * grad(theta)."""
    config = config or SolverConfig()
    if config.step_size <= 0:
        raise ValueError("gd-constant needs a positive step_size")
    start, theta_ref = _vector_start(objective, theta0, theta_ref)

    def step(theta, _loss, grad):
        return theta - config.step_size * grad

    return _iterate(objective.value_and_gradient, [start], theta_ref, config, step)


def run_gd_polyak(objective, theta0, f_star, config=None, theta_ref=None) -> SolverTrace:
    """Gradient descent with the Polyak step (f - f_star) / ||grad||**2.

    ``f_star`` must be the known optimal value (zero for the realizable
    pow-norm objective).  Reaching f <= f_star stops the run as converged;
    a zero gradient above f_star is recorded as a secant breakdown (it
    cannot occur on the convex pow-norm family, but is guarded anyway).
    """
    config = config or SolverConfig()
    start, theta_ref = _vector_start(objective, theta0, theta_ref)
    if f_star > start[1]:
        raise ValueError("f_star must not exceed the starting value")
    step_sizes = []

    def check(loss, grad_norm):
        if not (math.isfinite(loss) and math.isfinite(grad_norm)):
            return STOP_DIVERGED
        if loss - f_star <= 0.0:
            return STOP_GRAD_TOL
        if grad_norm == 0.0:
            # stationary but above the target value: cannot step
            return STOP_SECANT_BREAKDOWN
        return None

    def step(theta, loss, grad):
        step_size = (loss - f_star) / float(grad @ grad)
        step_sizes.append(step_size)
        return theta - step_size * grad

    return _iterate(
        objective.value_and_gradient, [start], theta_ref, config, step, check=check,
        step_info={"step_size": step_sizes},
    )


def _solve_symmetric(matrix, rhs, ridge):
    """Solve with an exact symmetric factorization; Cholesky when positive
    definite, LDL otherwise, a ridge retry and least squares as last resorts."""
    try:
        return cho_solve(cho_factor(matrix), rhs)
    except (np.linalg.LinAlgError, ValueError):
        pass
    try:
        return scipy.linalg.solve(matrix, rhs, assume_a="sym")
    except (np.linalg.LinAlgError, ValueError):
        pass
    try:
        return scipy.linalg.solve(
            matrix + ridge * np.eye(matrix.shape[0]), rhs, assume_a="sym"
        )
    except (np.linalg.LinAlgError, ValueError):
        return np.linalg.lstsq(matrix, rhs, rcond=None)[0]


def _newton_direction(objective, theta, grad):
    if hasattr(objective, "newton_direction"):
        return objective.newton_direction(theta)
    return _solve_symmetric(objective.hessian(theta), grad, NEWTON_RIDGE)


def run_newton(objective, theta0, config=None, theta_ref=None) -> SolverTrace:
    """Newton's method with unit step.

    Uses the objective's own ``newton_direction`` when it provides one (the
    pow-norm family's cancelled closed form), otherwise a dense symmetric
    factorization of the exact Hessian with a small ridge retry on failure.
    """
    config = config or SolverConfig()
    start, theta_ref = _vector_start(objective, theta0, theta_ref)

    def step(theta, _loss, grad):
        return theta - _newton_direction(objective, theta, grad)

    return _iterate(objective.value_and_gradient, [start], theta_ref, config, step)


def bfgs_update(h, s, u) -> np.ndarray:
    """Double-projection rank-two update of the inverse-Hessian approximation,
    in place.

    Overwrites ``h`` with ``(I - s u'/(s'u)) H (I - u s'/(s'u)) + s s'/(s'u)``
    and returns it.  The expanded form ``H - rho (s w' + w s') + coeff s s'``
    (``w = H u``) is applied over panels of ``BFGS_PANEL_ROWS`` rows, so the
    update allocates no d-by-d temporary; every entry takes the same
    operations in the same order as the whole-matrix expression, so the
    result is the same to the bit and satisfies the secant condition
    ``H_new u = s`` exactly in real arithmetic.  Entries ``(i, j)`` and
    ``(j, i)`` take the same operations (the products commute, and so does
    the sum of the two cross products), so a bit-symmetric ``h`` stays
    bit-symmetric.  Raises
    ``ZeroDivisionError`` at zero curvature ``s'u`` and ``OverflowError``
    when ``1/s'u`` or the ``s s'`` coefficient is not finite; ``h`` is left
    untouched in both cases.
    """
    curvature = float(s @ u)
    if curvature == 0.0:
        raise ZeroDivisionError("curvature s'u is zero")
    rho = 1.0 / curvature
    w = h @ u
    coeff = rho + rho * rho * float(u @ w)
    if not (math.isfinite(rho) and math.isfinite(coeff)):
        raise OverflowError(f"update coefficients overflow at s'u = {curvature:.3e}")
    size = len(s)
    s_col, w_col = s[:, None], w[:, None]
    cross = np.empty((min(BFGS_PANEL_ROWS, size), size))
    other = np.empty_like(cross)
    for start in range(0, size, BFGS_PANEL_ROWS):
        stop = min(start + BFGS_PANEL_ROWS, size)
        if stop - start < len(cross):  # the last, shorter panel
            cross, other = cross[: stop - start], other[: stop - start]
        np.multiply(s_col[start:stop], w, out=cross)
        np.multiply(w_col[start:stop], s, out=other)
        cross += other
        cross *= rho
        panel = h[start:stop]
        panel -= cross
        np.multiply(s_col[start:stop], s, out=cross)
        cross *= coeff
        panel += cross
    return h


def initial_inverse_hessian(objective, theta, ridge: float = NEWTON_RIDGE) -> np.ndarray:
    """Exact inverse Hessian at ``theta`` (closed form when available).

    Empirical Hessians can be indefinite under noise; the symmetric solve
    handles that, and the result is symmetrized so it is a valid BFGS seed.
    """
    if hasattr(objective, "hessian_inverse"):
        return objective.hessian_inverse(theta)
    hess = objective.hessian(theta)
    inv = _solve_symmetric(hess, np.eye(hess.shape[0]), ridge)
    return 0.5 * (inv + inv.T)


def run_bfgs(objective, theta0, h0=None, config=None, theta_ref=None) -> SolverTrace:
    """Matrix BFGS with unit step.

    ``h0`` defaults to the exact inverse Hessian at ``theta0``, the choice
    under which the contraction-factor theory is exact; the run updates its
    own copy in place.  The default seed is symmetric to the bit, and the
    update keeps it so (see ``bfgs_update``).  Curvature at or below
    ``CURVATURE_FLOOR * ||s|| ||u||``, or so small that the update's
    coefficients overflow, stops the run with a recorded secant breakdown,
    or as diverged when the new iterate's loss, gradient norm or error is
    non-finite.
    """
    config = config or SolverConfig()
    if h0 is None:
        h = initial_inverse_hessian(objective, np.asarray(theta0, dtype=float))
    else:
        h0 = np.asarray(h0, dtype=float)
        scale = max(1.0, float(np.max(np.abs(h0))))
        if float(np.max(np.abs(h0 - h0.T))) > 1e-10 * scale:
            raise ValueError("h0 must be symmetric")
        h = h0.copy()
    start, theta_ref = _vector_start(objective, theta0, theta_ref)
    residuals = []

    def step(theta, _loss, grad):
        return theta - h @ grad

    def after(theta, grad, theta_next, grad_next):
        s = theta_next - theta
        u = grad_next - grad
        curvature = float(s @ u)
        if not np.isfinite(curvature) or curvature <= CURVATURE_FLOOR * float(
            np.linalg.norm(s) * np.linalg.norm(u)
        ):
            return STOP_SECANT_BREAKDOWN
        try:
            bfgs_update(h, s, u)
        except OverflowError:
            return STOP_SECANT_BREAKDOWN
        residuals.append(float(np.linalg.norm(h @ u - s) / np.linalg.norm(s)))
        return None

    return _iterate(
        objective.value_and_gradient, [start], theta_ref, config, step, after=after,
        step_info={"secant_residual": residuals},
    )


def run_method(
    method, objective, theta0, config, f_star=0.0, theta_ref=None
) -> SolverTrace:
    """Run the vector method named ``method``, one of ``METHODS``.

    ``f_star`` is read by gd-polyak only, and bfgs starts from the exact
    inverse Hessian at ``theta0``.  Each runner is called by its module
    name at call time, so a wrapper bound to that name sees every run.
    """
    if method == "gd-constant":
        return run_gd_constant(objective, theta0, config, theta_ref)
    if method == "gd-polyak":
        return run_gd_polyak(objective, theta0, f_star, config, theta_ref)
    if method == "newton":
        return run_newton(objective, theta0, config, theta_ref)
    if method == "bfgs":
        return run_bfgs(objective, theta0, None, config, theta_ref)
    raise ValueError(f"unknown method {method!r}; choose from {METHODS}")


def run_scalar_bfgs(
    loss, theta0: float, theta_prev: float | None = None, config=None, theta_ref: float = 0.0
) -> SolverTrace:
    """Secant form of BFGS for one-dimensional empirical losses.

    theta <- theta - (theta - prev) / (grad(theta) - grad(prev)) * grad(theta)

    with unit step.  The update needs two points: when ``theta_prev`` is
    omitted, the run starts from the pair (theta0, theta0 - 1e-3 * grad),
    a tiny gradient step that produces a valid ordered secant pair.  Both
    starting points are recorded at the head of the trace.
    """
    config = config or SolverConfig()
    if getattr(loss, "d", 1) != 1:
        raise ValueError("run_scalar_bfgs needs a one-dimensional loss")

    def eval_at(t):
        value, grad = loss.value_and_gradient(np.array([t]))
        return value, float(grad[0])

    if theta_prev is None:
        prev = float(theta0)
        starts = [(prev, *eval_at(prev))]
        g_prev = starts[0][2]
        # a start already within grad_tol is the whole run: the driver's
        # first stop check ends it
        if not abs(g_prev) <= config.grad_tol:
            cur = prev - SCALAR_BOOTSTRAP_STEP * g_prev
            starts.append((cur, *eval_at(cur)))
    else:
        prev, cur = float(theta_prev), float(theta0)
        if cur == prev:
            raise ValueError("the two starting points must differ")
        starts = [(prev, *eval_at(prev)), (cur, *eval_at(cur))]
        g_prev = starts[0][2]
        if starts[1][2] == g_prev:
            raise ValueError("gradients at the two starting points must differ")

    def step(cur, _loss, g_cur):
        nonlocal prev, g_prev
        denom = g_cur - g_prev
        if abs(denom) < SCALAR_SECANT_FLOOR:
            return None
        nxt = cur - (cur - prev) / denom * g_cur
        prev, g_prev = cur, g_cur
        return nxt

    return _iterate(eval_at, starts, float(theta_ref), config, step)


def gd_step_grid_search(objective, theta0, steps, config=None, theta_ref=None):
    """Run gd-constant once per candidate step and pick the best.

    "Best" is the smallest final error, ties broken by the smaller minimum
    error along the trace.  Returns (best_step, {step: trace}) so callers
    can apply their own criterion to the full traces.
    """
    steps = list(steps)
    if not steps:
        raise ValueError("need at least one candidate step")
    config = config or SolverConfig()
    traces = {}
    for step in steps:
        run_config = dataclasses.replace(config, step_size=step)
        traces[step] = run_gd_constant(objective, theta0, run_config, theta_ref)

    def quality(step):
        final = traces[step].errors[-1]
        return (final if np.isfinite(final) else np.inf, traces[step].min_error)

    best = min(traces, key=quality)
    return best, traces
