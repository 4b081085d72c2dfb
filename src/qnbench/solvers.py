"""Iterative solvers with full per-iteration traces.

Four methods at desk scale: gradient descent with a constant step, gradient
descent with the Polyak step (f(theta) - f_star) / ||grad||**2, Newton with
unit step, and BFGS with unit step.  BFGS has one iteration; for scalar
empirical losses ``run_scalar_bfgs`` seeds it from two starting points, and
at d = 1 it is then the secant method.  Newton and BFGS deliberately take
no line search: the point of the rate theory they are checked against is
unit steps throughout.

Each run owns its mutable state; traces are built once and treated as
immutable afterwards.  Runs on a shared objective may proceed concurrently.

A run that carries no state from step to step (gd-constant, gd-polyak and
Newton; not BFGS, which carries its inverse-Hessian approximation) is
periodic from the first record whose iterate repeats an earlier one bit for
bit, since every evaluation is a pure function of theta.  The driver then
copies that period through the rest of the budget instead of computing it
again; see ``_iterate``.
"""

import itertools
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

NEWTON_RIDGE = 1e-12

# A run whose error to its reference point exceeds this has diverged.
_DIVERGENCE_CAP = 1e8

# Rows per panel of the in-place BFGS update; its panel buffer takes at
# most 65 * d doubles, 0.5 MB at d = 1000.
BFGS_PANEL_ROWS = 64
# Updates a BFGS run holds as factor pairs before one panel pass adds them
# to its dense approximation; the pairs take 2 * 16 * d doubles, 0.25 MB at
# d = 1000.
BFGS_PENDING_PAIRS = 16
SQRT_HALF = math.sqrt(0.5)
# The signs of the terms p p' and m m' of each update pair.
SIGNS = np.tile([1.0, -1.0], BFGS_PENDING_PAIRS)


# Records a memoryless run looks back over for an exact repeat of its
# iterate, so the longest period ``_iterate`` fills.  glm-empirical's
# longest period at seed 11 is 16 (a Newton run).  Tests set it to 0 for
# the computed reference run.
CYCLE_WINDOW = 16

# The vector methods ``run_method`` accepts, in report order.
METHODS = ("gd-constant", "gd-polyak", "newton", "bfgs")


@dataclass(frozen=True)
class SolverConfig:
    """Run limits shared by all methods.

    ``step_size`` is read by gd-constant only, which needs it positive and
    finite; Newton and BFGS always take unit steps.  ``max_iters``, the
    budget of steps, is an integer of at least 1 (Python's or numpy's, not
    a ``bool``), checked here since a run sizes its trace from it.
    """

    step_size: float = 0.1
    max_iters: int = 10_000

    def __post_init__(self):
        if isinstance(self.max_iters, bool) or not isinstance(
            self.max_iters, (int, np.integer)
        ):
            raise ValueError(f"max_iters must be an integer, got {self.max_iters!r}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


@dataclass
class SolverTrace:
    """Per-iteration record of a run.

    ``iterates`` has shape (K+1, d), also at d = 1; ``errors``,
    ``grad_norms`` and ``losses`` all have length K+1.
    ``step_info`` carries method-specific per-step metadata (Polyak step
    sizes, the curvature ``s'u`` of each applied BFGS update), and one
    run-level entry: a run whose tail ``_iterate`` filled by copy has
    ``step_info["cycle"] = [first copied record, period]``; any other run
    has no ``"cycle"`` key.
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

    def _finite_errors(self) -> np.ndarray:
        """``errors`` with each non-finite entry (a diverged tail) as inf."""
        return np.where(np.isfinite(self.errors), self.errors, np.inf)

    @property
    def min_error(self) -> float:
        """Smallest finite error along the trace (diverged tails excluded)."""
        return float(np.min(self._finite_errors()))

    @property
    def iters_to_min(self) -> int:
        """Index of the first record with the smallest finite error."""
        return int(np.argmin(self._finite_errors()))


def _norm(v) -> float:
    """Euclidean norm of a 1-d float array as ``sqrt(v.v)``: the same bits
    as ``np.linalg.norm`` (so 0 where the square underflows) at less
    overhead per call."""
    return math.sqrt(v.dot(v))


def _iterate(evaluate, starts, theta_ref, config, step, check=None, after=None,
             step_info=None) -> SolverTrace:
    """The iteration shared by every solver: record the starting points,
    then step, evaluate and record until a record stops the run.

    ``starts`` lists evaluated ``(theta, loss, grad)`` triples, recorded in
    order; the loop continues from the last.  ``step(theta, loss, grad)``
    returns the next iterate, and ``after(theta, grad, theta_next,
    grad_next)`` (when given) may return a stop reason for that step.
    ``step_info`` maps names to lists that the callbacks fill, one entry
    per step or update.

    ``record`` decides every stop from the values it has just recorded,
    the record after the last allowed step included (a run with two
    starts takes its second start's stop), in this order:

    1. a non-finite loss, gradient norm or error is diverged;
    2. the stop that ``after`` returned for the step;
    3. a zero gradient norm is grad-tol;
    4. an error above ``_DIVERGENCE_CAP`` is diverged;
    5. the stop reason that ``check(loss)`` (when given) returns;
    6. the record after ``max_iters`` steps is max-iters.

    A run without ``after`` carries no state between steps, so its next
    record is a pure function of its current iterate, and the stop rules
    read only that record.  Before each step such a run compares the
    iterate's bytes (not its values, so ``-0.0`` and ``0.0`` stay apart)
    with those of its last ``CYCLE_WINDOW`` records.  On a repeat with
    period ``p`` the run would recompute its last ``p`` records until its
    budget ran out, so they are copied periodically through the trace
    arrays up to the budget instead, each ``step_info`` list is extended
    the same way, ``step_info["cycle"]`` is set to ``[first copied
    record, p]``, and the run stops at max-iters, as its last copy would.
    """
    size = config.max_iters + len(starts)
    iterates = np.empty((size, len(starts[0][0])))
    errors = np.empty(size)
    grad_norms = np.empty(size)
    losses = np.empty(size)
    theta_ref = np.asarray(theta_ref, dtype=float)
    count = 0

    def record(theta, loss, grad, pending=None):
        nonlocal count
        iterates[count] = theta
        errors[count] = error = _norm(theta - theta_ref)
        grad_norms[count] = grad_norm = _norm(grad)
        losses[count] = loss
        count += 1
        if not (math.isfinite(loss) and math.isfinite(grad_norm) and math.isfinite(error)):
            return STOP_DIVERGED
        if pending is not None:
            return pending
        if grad_norm == 0.0:
            return STOP_GRAD_TOL
        if error > _DIVERGENCE_CAP:
            return STOP_DIVERGED
        stop = check(loss) if check else None
        if stop is None and count == size:
            return STOP_MAX_ITERS
        return stop

    step_info = step_info if step_info is not None else {}
    # iterate bytes -> record index, for the last CYCLE_WINDOW records
    seen = {} if after is None and CYCLE_WINDOW > 0 else None
    with np.errstate(all="ignore"):
        for start in starts:
            stop = record(*start)
        theta, loss, grad = starts[-1]
        while stop is None:
            if seen is not None:
                first = seen.setdefault(theta.tobytes(), count - 1)
                if first < count - 1:
                    period = count - 1 - first
                    for values in (iterates, errors, grad_norms, losses):
                        _fill_periodic(values, count, size, period)
                    for values in step_info.values():
                        tail = itertools.cycle(values[-period:])
                        values.extend(itertools.islice(tail, size - count))
                    step_info["cycle"] = [count, period]
                    count, stop = size, STOP_MAX_ITERS
                    break
                if len(seen) > CYCLE_WINDOW:
                    del seen[next(iter(seen))]
            theta_next = step(theta, loss, grad)
            loss, grad_next = evaluate(theta_next)
            pending = after(theta, grad, theta_next, grad_next) if after else None
            stop = record(theta_next, loss, grad_next, pending)
            theta, grad = theta_next, grad_next
    return SolverTrace(
        iterates=iterates[:count],
        errors=errors[:count],
        grad_norms=grad_norms[:count],
        losses=losses[:count],
        stop_reason=stop,
        step_info={key: np.asarray(value) for key, value in step_info.items()},
    )


def _fill_periodic(values, start, stop, period):
    """Set ``values[k] = values[k - period]`` for ``start <= k < stop``, in
    place, by copying slices that double in length: no temporary of the
    filled length, and no copy whose source overlaps its destination."""
    length = period
    while start < stop:
        count = min(length, stop - start)
        values[start : start + count] = values[start - length : start - length + count]
        start += count
        length *= 2


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
    if not 0.0 < config.step_size < math.inf:
        raise ValueError("gd-constant needs a positive finite step_size")
    start, theta_ref = _vector_start(objective, theta0, theta_ref)

    def step(theta, _loss, grad):
        return theta - config.step_size * grad

    return _iterate(objective.value_and_gradient, [start], theta_ref, config, step)


def run_gd_polyak(objective, theta0, f_star, config=None, theta_ref=None) -> SolverTrace:
    """Gradient descent with the Polyak step (f - f_star) / ||grad||**2.

    ``f_star`` is the known optimal value (zero for the realizable pow-norm
    objective), and a record with f <= f_star, the start included, stops
    the run as converged.
    """
    config = config or SolverConfig()
    start, theta_ref = _vector_start(objective, theta0, theta_ref)
    step_sizes = []

    def check(loss):
        return STOP_GRAD_TOL if loss - f_star <= 0.0 else None

    def step(theta, loss, grad):
        step_size = (loss - f_star) / float(grad @ grad)
        step_sizes.append(step_size)
        return theta - step_size * grad

    return _iterate(
        objective.value_and_gradient, [start], theta_ref, config, step, check=check,
        step_info={"step_size": step_sizes},
    )


def _solve_symmetric(matrix, rhs):
    """Solve a symmetric system, definite or not, by one LU solve; on an
    exactly singular matrix retry with ``NEWTON_RIDGE * I`` added, and fall
    back to least squares when that is singular too."""
    try:
        return np.linalg.solve(matrix, rhs)
    except np.linalg.LinAlgError:
        pass
    try:
        return np.linalg.solve(matrix + NEWTON_RIDGE * np.eye(matrix.shape[0]), rhs)
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
        evaluate = objective.value_and_gradient

        def step(theta, _loss, grad):
            return theta - _solve_symmetric(objective.hessian(theta), grad)
    else:
        direction = None

        def evaluate(theta):
            nonlocal direction
            loss, grad, direction = with_direction(theta)
            return loss, grad

        def step(theta, _loss, _grad):
            # the direction is None only at r = 0, where the gradient is
            # exactly zero, so the driver has stopped the run at grad-tol
            return theta - direction

    start, theta_ref = _vector_start(objective, theta0, theta_ref, evaluate)
    return _iterate(evaluate, [start], theta_ref, config, step)


def _secant_terms(s, u):
    """``(s'u, ||s||)``: the reductions a BFGS update reads; a run takes
    them once per step, from ``_curvature``."""
    return float(s @ u), _norm(s)


def _update_factors(s, u, w, terms, out) -> bool:
    """Write the balanced factors of one BFGS update, given ``w = H u`` and
    ``terms = _secant_terms(s, u)``, to the rows ``p, m`` of the ``(2, d)``
    array ``out``, with ``H_new = H + p p' - m m'``; return ``False``, with
    ``out`` untouched, when the update changes nothing (``a = 0``).  See
    ``bfgs_update`` for the formulas and what it raises; ``out`` is
    untouched when it raises."""
    curvature, s_norm = terms
    if curvature == 0.0:
        raise ZeroDivisionError("curvature s'u is zero")
    rho = 1.0 / curvature
    coeff = rho + rho * rho * float(u.dot(w))
    if not (math.isfinite(rho) and math.isfinite(coeff)):
        raise OverflowError(f"update coefficients overflow at s'u = {curvature:.3e}")
    a = 0.5 * coeff * s - rho * w
    norm_a = math.sqrt(a.dot(a))
    if norm_a == 0.0:
        return False
    lam = math.sqrt(norm_a / s_norm)
    if not (math.isfinite(lam) and lam > 0.0):
        raise OverflowError(f"update scale overflows at s'u = {curvature:.3e}")
    scaled_s = (lam * SQRT_HALF) * s
    scaled_a = (SQRT_HALF / lam) * a
    np.add(scaled_s, scaled_a, out=out[0])
    np.subtract(scaled_s, scaled_a, out=out[1])
    return True


def flush_pairs(h, pairs) -> np.ndarray:
    """Add ``sum(p p' - m m')`` over the rows ``p_1, m_1, p_2, m_2, ...``
    of ``pairs`` to ``h`` in place, and return ``h``.

    Each panel of ``BFGS_PANEL_ROWS`` rows gets ``pairs' right``, with
    ``right`` the rows with each ``m`` negated, from one BLAS product
    (inner dimension the number of rows) into one reused panel buffer, so
    the flush allocates no d-by-d temporary.  Entry ``(i, j)`` sums
    ``sign_r l_ri l_rj`` over the rows ``l_r`` and ``(j, i)`` the same
    products in the same order, so a bit-symmetric ``h`` stays
    bit-symmetric, fused multiply-add or not; a one-row panel would be a
    matrix-vector product with other rounding, so a last panel of one row
    joins the one before.
    """
    right = pairs * SIGNS[: len(pairs), None]
    size = len(h)
    starts = list(range(0, size, BFGS_PANEL_ROWS))
    if len(starts) > 1 and size - starts[-1] == 1:
        starts.pop()
    panel = np.empty((min(size, BFGS_PANEL_ROWS + 1), size))
    for start, stop in zip(starts, starts[1:] + [size]):
        out = panel[: stop - start]
        np.matmul(pairs[:, start:stop].T, right, out=out)
        h[start:stop] += out
    return h


def bfgs_update(h, s, u) -> np.ndarray:
    """Double-projection rank-two update of the inverse-Hessian approximation,
    in place.

    Overwrites ``h`` with ``(I - s u'/(s'u)) H (I - u s'/(s'u)) + s s'/(s'u)``
    and returns it.  With ``rho = 1/s'u``, ``w = H u`` and
    ``coeff = rho + rho^2 u'w``, that is ``H + s a' + a s'`` for
    ``a = coeff/2 s - rho w``, and in balanced form ``H + p p' - m m'``
    for ``p, m = (lam s +- a/lam) / sqrt(2)`` with ``lam^2 = ||a||/||s||``,
    so ``p`` and ``m`` are of one size and their difference does not
    cancel.  ``flush_pairs`` adds the pair, so a bit-symmetric ``h`` stays
    bit-symmetric.  ``run_bfgs`` makes the same update from the same
    factors, but holds up to ``BFGS_PENDING_PAIRS`` of them before it
    adds them.  Raises ``ZeroDivisionError`` at zero curvature ``s'u`` and
    ``OverflowError`` when ``1/s'u``, the ``s s'`` coefficient or ``lam``
    is not finite (or ``lam`` is zero); ``h`` is left untouched in both
    cases.
    """
    factors = np.empty((2, len(s)))
    if _update_factors(s, u, h.dot(u), _secant_terms(s, u), factors):
        flush_pairs(h, factors)
    return h


class _InverseHessian:
    """A BFGS run's inverse-Hessian approximation ``H = h + sum(p p' - m m')``:
    a dense matrix ``h`` and up to ``BFGS_PENDING_PAIRS`` updates pending as
    the rows ``p, m`` of ``pairs``.

    A step makes one pass over ``h``: ``times`` forms ``H g`` from it and
    the pending pairs, and ``update`` derives ``H u`` and the next
    direction from that one product.  Every ``BFGS_PENDING_PAIRS`` updates
    ``flush_pairs`` adds the pending pairs to ``h`` in one pass.
    """

    def __init__(self, h):
        self.h = h
        self.pairs = np.empty((len(SIGNS), len(h)))
        self.pending = 0  # rows of pairs in use

    def times(self, g) -> np.ndarray:
        """``H g``."""
        out = self.h.dot(g)
        if self.pending:
            pairs = self.pairs[: self.pending]
            out += pairs.T.dot(SIGNS[: self.pending] * pairs.dot(g))
        return out

    def update(self, s, u, direction, g, terms=None) -> np.ndarray:
        """Apply the update for step ``s`` and gradient change ``u``, given
        the last direction ``H g_prev`` and the new gradient
        ``g = g_prev + u``, and return the new direction ``H_new g``.

        With ``v = H g``, ``H u = v - direction`` and
        ``H_new g = v + p (p'g) - m (m'g)``, so ``v`` is the update's only
        product with ``h``.  ``terms`` is ``_secant_terms(s, u)`` when the
        caller has it already.  The factors are written straight into the
        next rows of ``pairs``.  Raises as ``bfgs_update`` does and then
        leaves the state untouched; an update that changes nothing
        returns ``v``.
        """
        v = self.times(g)
        factors = self.pairs[self.pending : self.pending + 2]
        if terms is None:
            terms = _secant_terms(s, u)
        if not _update_factors(s, u, v - direction, terms, factors):
            return v
        v += factors.T.dot(SIGNS[:2] * factors.dot(g))
        self.pending += 2
        if self.pending == len(self.pairs):
            flush_pairs(self.h, self.pairs)
            self.pending = 0
        return v


def initial_inverse_hessian(objective, theta) -> np.ndarray:
    """Exact inverse Hessian at ``theta`` (closed form when available).

    Otherwise ``_solve_symmetric`` inverts the Hessian, indefinite or not
    (empirical ones are under noise); the result is symmetrized so it is a
    valid BFGS seed.
    """
    if hasattr(objective, "hessian_inverse"):
        return objective.hessian_inverse(theta)
    hess = objective.hessian(theta)
    inv = _solve_symmetric(hess, np.eye(hess.shape[0]))
    return 0.5 * (inv + inv.T)


def run_bfgs(objective, theta0, config=None, theta_ref=None) -> SolverTrace:
    """Matrix BFGS with unit step, seeded with the exact inverse Hessian at
    ``theta0``: the seed under which the contraction-factor theory is
    exact.  The seed is symmetric to the bit, and the updates, made in
    place, keep it so (see ``flush_pairs``).  A start with a zero gradient
    (a minimizer, where the Hessian may be singular) stops at grad-tol
    before any step, so it builds no seed.  The iteration itself is
    ``_run_bfgs``.
    """
    config = config or SolverConfig()
    start, theta_ref = _vector_start(objective, theta0, theta_ref)
    # Build the seed before _iterate runs: built in the first step instead,
    # flat-d1000's peak_rss_mb read 89.9-90.0 MiB against 82.2-82.4 (3 runs
    # each, 2-core host, bench/run.py --workload flat-d1000 --seed 11 --seconds 0).
    h = None
    with np.errstate(all="ignore"):  # as the start is: see _vector_start
        if _norm(start[2]) != 0.0:
            h = initial_inverse_hessian(objective, start[0])
    return _run_bfgs(objective.value_and_gradient, [start], h, config, theta_ref)


def _curvature(s, u):
    """``_secant_terms(s, u)``, or ``None`` where BFGS breaks down: where
    ``s'u`` is non-finite or at most ``CURVATURE_FLOOR * ||s|| ||u||``."""
    terms = curvature, s_norm = _secant_terms(s, u)
    floor = CURVATURE_FLOOR * (s_norm * _norm(u))
    return terms if math.isfinite(curvature) and not curvature <= floor else None


def _run_bfgs(evaluate, starts, h, config, theta_ref) -> SolverTrace:
    """The BFGS iteration from the evaluated ``starts`` (see ``_iterate``)
    and the seed ``h``, updated in place, or ``None`` when there is none:
    the run then stops at its first record, at grad-tol from a zero start
    gradient and as a secant breakdown from a broken-down starting pair.

    The run holds ``h`` as a ``_InverseHessian``: one product with the
    dense matrix per step, and the pending updates added to it every
    ``BFGS_PENDING_PAIRS`` steps.  Curvature that fails ``_curvature``, or
    so small that the update's coefficients overflow, stops the run with a
    recorded secant breakdown, or as diverged when the new iterate's loss,
    gradient norm or error is non-finite.  ``step_info["curvature"]`` holds
    the ``s'u`` of each applied update, in order; replaying the updates
    from the trace's iterates reproduces the matrices (criterion 2 checks
    their secant condition and symmetry that way).
    """
    inverse = None if h is None else _InverseHessian(h)
    with np.errstate(all="ignore"):  # a non-finite start: _iterate stops the run
        direction = None if h is None else inverse.times(starts[-1][2])
    curvatures = []

    def no_seed(_loss):
        # reached past the generic rules only, so at a nonzero gradient
        return STOP_SECANT_BREAKDOWN

    def step(theta, _loss, _grad):
        return theta - direction

    def after(theta, grad, theta_next, grad_next):
        nonlocal direction
        s, u = theta_next - theta, grad_next - grad
        terms = _curvature(s, u)
        if terms is None:
            return STOP_SECANT_BREAKDOWN
        try:
            direction = inverse.update(s, u, direction, grad_next, terms)
        except OverflowError:
            return STOP_SECANT_BREAKDOWN
        curvatures.append(terms[0])
        return None

    return _iterate(
        evaluate, starts, theta_ref, config, step,
        check=no_seed if h is None else None, after=after,
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
        return run_bfgs(objective, theta0, config, theta_ref)
    raise ValueError(f"unknown method {method!r}; choose from {METHODS}")


def run_scalar_bfgs(
    loss, theta0: float, theta_prev: float, config=None, theta_ref: float = 0.0
) -> SolverTrace:
    """BFGS on a one-dimensional loss, seeded with ``H = s/u`` from the
    starting pair (theta_prev, theta0).  At d = 1 every update gives
    ``H = s/u`` again, so this is the secant method

        theta <- theta - (theta - prev) / (grad(theta) - grad(prev)) * grad(theta)

    Both starting points head the trace, ``theta_prev`` first; a pair whose
    curvature fails ``_curvature`` stops the run as a secant breakdown at
    its first step.  Equal points, or equal gradients at them, are a
    ``ValueError``.
    """
    config = config or SolverConfig()
    if getattr(loss, "d", 1) != 1:
        raise ValueError("run_scalar_bfgs needs a one-dimensional loss")
    if float(theta0) == float(theta_prev):
        raise ValueError("the two starting points must differ")
    starts = [_vector_start(loss, [float(t)], theta_ref)[0] for t in (theta_prev, theta0)]
    if starts[1][2][0] == starts[0][2][0]:
        raise ValueError("gradients at the two starting points must differ")
    with np.errstate(all="ignore"):  # a non-finite start: _iterate stops the run
        s, u = starts[-1][0] - starts[0][0], starts[-1][2] - starts[0][2]
        h = None if _curvature(s, u) is None else (s / u).reshape(1, 1)
    return _run_bfgs(loss.value_and_gradient, starts, h, config, [theta_ref])
