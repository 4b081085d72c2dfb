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

import math
from dataclasses import dataclass, field

import numpy as np

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

# A run whose error to its reference point exceeds this has diverged.
_DIVERGENCE_CAP = 1e8

# Rows per panel of the in-place BFGS update; its panel buffer takes at
# most 65 * d doubles, 0.5 MB at d = 1000.
BFGS_PANEL_ROWS = 64
SQRT_HALF = math.sqrt(0.5)
SIGNS = np.array([[1.0], [-1.0]])


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

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.grad_tol < 0:
            raise ValueError("grad_tol must be non-negative")


@dataclass
class SolverTrace:
    """Per-iteration record of a run.

    ``iterates`` has shape (K+1, d) for vector runs and (K+1,) for scalar
    runs; ``errors``, ``grad_norms`` and ``losses`` all have length K+1.
    ``step_info`` carries method-specific per-step metadata (Polyak step
    sizes, the curvature ``s'u`` of each applied BFGS update).
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


def _norm(v) -> float:
    """Euclidean norm of a 1-d float array or a scalar as ``sqrt(v.v)``:
    the same bits as ``np.linalg.norm`` (so 0 where the square underflows,
    unlike ``abs``) at less overhead per call."""
    if isinstance(v, np.ndarray):
        return math.sqrt(v.dot(v))
    return math.sqrt(v * v)


def _iterate(evaluate, starts, theta_ref, config, step, check=None, after=None,
             step_info=None) -> SolverTrace:
    """The iteration shared by every solver: record the starting points,
    then stop check, step, evaluate and record until a stop.

    ``starts`` lists evaluated ``(theta, loss, grad)`` triples, recorded in
    order; the loop continues from the last.  Before each step, ``check``
    (when given) sees the last recorded loss and gradient norm and may
    return a stop reason; then the run stops as diverged at a non-finite
    loss, gradient norm or error, as converged at a gradient norm within
    ``grad_tol``, and as diverged at an error above ``_DIVERGENCE_CAP``.
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
        errors[count] = _norm(theta - theta_ref)
        grad_norms[count] = _norm(grad)
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
        if errors[count - 1] > _DIVERGENCE_CAP:
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


def _vector_start(objective, theta0, theta_ref, evaluate=None):
    """Evaluated starting triple and reference point of a vector run; the
    start is evaluated by ``evaluate`` (default the objective's
    ``value_and_gradient``) under the driver's errstate, like every step."""
    theta = np.asarray(theta0, dtype=float).copy()
    if theta_ref is None:
        theta_ref = objective.theta_opt
    evaluate = evaluate or objective.value_and_gradient
    with np.errstate(all="ignore"):
        return (theta, *evaluate(theta)), theta_ref


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
    """Solve a symmetric system, definite or not, by one LU solve; on an
    exactly singular matrix retry with ``ridge * I`` added, and fall back to
    least squares when that is singular too."""
    try:
        return np.linalg.solve(matrix, rhs)
    except np.linalg.LinAlgError:
        pass
    try:
        return np.linalg.solve(matrix + ridge * np.eye(matrix.shape[0]), rhs)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(matrix, rhs, rcond=None)[0]


def run_newton(objective, theta0, config=None, theta_ref=None) -> SolverTrace:
    """Newton's method with unit step.

    Uses the objective's ``value_gradient_and_newton_direction`` when it
    provides one (the pow-norm family's cancelled closed form, from the
    ``e`` and ``G e`` its loss and gradient take), keeping the direction
    at the last evaluated point for the step from it; otherwise an LU
    solve with the exact Hessian (see ``_solve_symmetric``).
    """
    config = config or SolverConfig()
    with_direction = getattr(objective, "value_gradient_and_newton_direction", None)
    if with_direction is None:
        start, theta_ref = _vector_start(objective, theta0, theta_ref)

        def solve_step(theta, _loss, grad):
            return theta - _solve_symmetric(objective.hessian(theta), grad, NEWTON_RIDGE)

        return _iterate(objective.value_and_gradient, [start], theta_ref, config, solve_step)

    direction = None

    def evaluate(theta):
        nonlocal direction
        loss, grad, direction = with_direction(theta)
        return loss, grad

    def step(theta, _loss, _grad):
        # the direction is None only at r = 0, where the gradient is exactly
        # zero, so the driver has stopped the run at grad-tol before this
        return theta - direction

    start, theta_ref = _vector_start(objective, theta0, theta_ref, evaluate)
    return _iterate(evaluate, [start], theta_ref, config, step)


def bfgs_update(h, s, u) -> np.ndarray:
    """Double-projection rank-two update of the inverse-Hessian approximation,
    in place.

    Overwrites ``h`` with ``(I - s u'/(s'u)) H (I - u s'/(s'u)) + s s'/(s'u)``
    and returns it.  With ``rho = 1/s'u``, ``w = H u`` and
    ``coeff = rho + rho^2 u'w``, that is ``H + s a' + a s'`` for
    ``a = coeff/2 s - rho w``, and in balanced form ``H + p p' - m m'``
    for ``p, m = (lam s +- a/lam) / sqrt(2)`` with ``lam^2 = ||a||/||s||``,
    so ``p`` and ``m`` are of one size and their difference does not
    cancel.  Each panel of ``BFGS_PANEL_ROWS`` rows gets ``[p m] [p; -m]``
    from one BLAS product into a reused panel buffer, so the update
    allocates no d-by-d temporary.  Entry ``(i, j)`` is
    ``p_i p_j - m_i m_j`` and ``(j, i)`` the same products in the same
    order, so a bit-symmetric ``h`` stays bit-symmetric, fused
    multiply-add or not; a one-row panel would be a matrix-vector product
    with other rounding, so a last panel of one row joins the one before.
    Raises ``ZeroDivisionError`` at zero curvature ``s'u`` and
    ``OverflowError`` when ``1/s'u``, the ``s s'`` coefficient or ``lam``
    is not finite (or ``lam`` is zero); ``h`` is left untouched in both
    cases.
    """
    curvature = float(s.dot(u))
    if curvature == 0.0:
        raise ZeroDivisionError("curvature s'u is zero")
    rho = 1.0 / curvature
    w = h.dot(u)
    coeff = rho + rho * rho * float(u.dot(w))
    if not (math.isfinite(rho) and math.isfinite(coeff)):
        raise OverflowError(f"update coefficients overflow at s'u = {curvature:.3e}")
    a = 0.5 * coeff * s - rho * w
    norm_a = math.sqrt(a.dot(a))
    if norm_a == 0.0:
        return h
    lam = math.sqrt(norm_a / math.sqrt(s.dot(s)))
    if not (math.isfinite(lam) and lam > 0.0):
        raise OverflowError(f"update scale overflows at s'u = {curvature:.3e}")
    scaled_s = (lam * SQRT_HALF) * s
    scaled_a = (SQRT_HALF / lam) * a
    factors = np.array((scaled_s + scaled_a, scaled_s - scaled_a))  # rows p, m
    right = factors * SIGNS  # rows p, -m
    size = len(s)
    starts = list(range(0, size, BFGS_PANEL_ROWS))
    if len(starts) > 1 and size - starts[-1] == 1:
        starts.pop()
    panel = np.empty((min(size, BFGS_PANEL_ROWS + 1), size))
    for start, stop in zip(starts, starts[1:] + [size]):
        out = panel[: stop - start]
        np.matmul(factors[:, start:stop].T, right, out=out)
        h[start:stop] += out
    return h


def initial_inverse_hessian(objective, theta, ridge: float = NEWTON_RIDGE) -> np.ndarray:
    """Exact inverse Hessian at ``theta`` (closed form when available).

    Otherwise ``_solve_symmetric`` inverts the Hessian, indefinite or not
    (empirical ones are under noise), with ``ridge`` for its retry; the
    result is symmetrized so it is a valid BFGS seed.
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
    non-finite.  ``step_info["curvature"]`` holds the ``s'u`` of each
    applied update, in order; replaying the updates from the trace's
    iterates reproduces the matrices (criterion 2 checks their secant
    condition and symmetry that way).
    """
    config = config or SolverConfig()
    if h0 is None:
        with np.errstate(all="ignore"):  # as the start is: see _vector_start
            h = initial_inverse_hessian(objective, np.asarray(theta0, dtype=float))
    else:
        h0 = np.asarray(h0, dtype=float)
        scale = max(1.0, float(np.max(np.abs(h0))))
        if float(np.max(np.abs(h0 - h0.T))) > 1e-10 * scale:
            raise ValueError("h0 must be symmetric")
        h = h0.copy()
    start, theta_ref = _vector_start(objective, theta0, theta_ref)
    curvatures = []

    def step(theta, _loss, grad):
        return theta - h @ grad

    def after(theta, grad, theta_next, grad_next):
        s = theta_next - theta
        u = grad_next - grad
        curvature = float(s @ u)
        if not math.isfinite(curvature) or curvature <= CURVATURE_FLOOR * (
            _norm(s) * _norm(u)
        ):
            return STOP_SECANT_BREAKDOWN
        try:
            bfgs_update(h, s, u)
        except OverflowError:
            return STOP_SECANT_BREAKDOWN
        curvatures.append(curvature)
        return None

    return _iterate(
        objective.value_and_gradient, [start], theta_ref, config, step, after=after,
        step_info={"curvature": curvatures},
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

