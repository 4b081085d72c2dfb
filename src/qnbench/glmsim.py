"""Seeded synthetic GLM data and statistical-radius sweeps.

Data follow ``y_i = (x_i' theta_star)**p + noise``, with Gaussian features
of diagonal covariance and standard Gaussian noise (variance ``NOISE_VAR``)
drawn from the package's own deterministic streams, so identical
(config, n, seed) triples reproduce datasets bit-for-bit.  theta_star
alone sets the regime: high signal-to-noise (theta_star on the unit
sphere), where the loss is locally strongly convex, or low signal-to-noise
(theta_star = 0), where it is flat at the optimum and first-order methods
slow to a crawl.

At low SNR the population loss, ``(2p-1)!! ||S theta||**(2p)`` plus
``NOISE_VAR``, is a pow-norm objective plus a constant, so
``low_snr_population_objective`` builds it as one and the solvers run on
it with exact derivatives.

``run_trials`` is the one trial loop behind ``empirical`` and ``radius``:
per (n, data seed) it draws the trial once and runs each method on its
training part.  The trials are drawn in a forked worker process, which
sends each part that evaluates through its moment statistics as those
statistics alone, down a one-way pipe grown to ``_PIPE_BYTES``, while the
solvers run in the calling process on the trials before; patches made
before the loop starts reach the worker, but their side effects stay
there.  The radius sweep feeds it every (size, trial) pair and records the
best error along each trace against theta_star.  It computes the radius
CSV's table once, under the CSV's column names, and fits the log-log slope
to the per-size medians that table holds — the empirical statistical
radius.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .objectives import EmpiricalGlmLoss, PowNormObjective, design_gram
from .solvers import METHODS, STOPS_INTERRUPTED, SolverConfig, run_method, run_scalar_bfgs

# Variance of the label noise; the population loss at the truth.
NOISE_VAR = 1.0

_STREAM_FEATURES = 0
_STREAM_NOISE = 1
_STREAM_INIT = 2

# A one-dimensional BFGS run starts at theta0, then at the point this
# share of the way from theta_ref to theta0: a secant pair close together,
# on the side of theta_ref that theta0 is on.
_SCALAR_PULL = 0.999

# Share of a dataset that ``split_train_validation`` keeps for training.
_TRAIN_FRACTION = 0.9

# Sample sizes of the radius command's default sweep and of acceptance
# criterion 9; a list, which the manifest writes comma-joined.
RADIUS_N_GRID = [100, 316, 1000, 3162, 10000]


def default_covariance_diagonal(d: int) -> np.ndarray:
    """Variances (0.25)**k for k = 1..d (feature std devs halve per axis)."""
    return 0.25 ** np.arange(1, d + 1)


@dataclass
class GlmModelConfig:
    """Generative model: dimensions, link power, truth, feature variances.

    ``theta_star`` fixes the regime: all zeros is low SNR, a finite
    unit-norm vector (within 1e-9) high SNR; anything else is a
    ``ValueError``.  ``cov`` is a length-d vector of positive, finite
    feature variances (a diagonal covariance); ``None`` selects
    ``default_covariance_diagonal``.  The noise has variance ``NOISE_VAR``.
    """

    d: int
    p: int
    theta_star: np.ndarray
    cov: np.ndarray | None = None

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be positive")
        if not (isinstance(self.p, (int, np.integer)) and self.p >= 2):
            raise ValueError(f"link power p must be an integer >= 2, got {self.p!r}")
        self.p = int(self.p)
        self.theta_star = np.asarray(self.theta_star, dtype=float)
        if self.theta_star.shape != (self.d,):
            raise ValueError("theta_star must have length d")
        # stated positively, so a NaN or infinite entry fails both tests
        low_snr = np.all(self.theta_star == 0.0)
        high_snr = abs(np.linalg.norm(self.theta_star) - 1.0) <= 1e-9
        if not (low_snr or high_snr):
            raise ValueError(
                "theta_star must be zero (low SNR) or finite with unit norm (high SNR)"
            )
        cov = default_covariance_diagonal(self.d) if self.cov is None else np.asarray(
            self.cov, dtype=float
        )
        if cov.shape != (self.d,) or not np.all((cov > 0.0) & np.isfinite(cov)):
            raise ValueError("cov must be d positive, finite variances")
        self.cov = cov


def low_snr_config(d: int, p: int, cov=None) -> GlmModelConfig:
    return GlmModelConfig(d=d, p=p, theta_star=np.zeros(d), cov=cov)


def high_snr_config(d: int, p: int, seed: int, cov=None) -> GlmModelConfig:
    """High-SNR model with theta_star drawn uniformly from the unit sphere."""
    return GlmModelConfig(
        d=d, p=p, theta_star=rng.unit_vector(d, rng.derive_seed(seed, 17)), cov=cov
    )


def low_snr_population_objective(config: GlmModelConfig) -> PowNormObjective:
    """The population least-square loss of a low-SNR model, less its noise
    variance, as a pow-norm objective.

    With theta_star = 0, ``E (y - (x' theta)**p)**2 = (2p-1)!! ||S theta||**(2p)
    + NOISE_VAR`` for S the diagonal covariance square root
    ``diag(sqrt(config.cov))``: the pow-norm objective with
    ``A = ((2p-1)!!)**(1/(2p)) S``, ``theta_opt = 0`` and ``q = 2p``.  Add
    ``NOISE_VAR`` to its ``value`` for the loss.

    A nonzero theta_star (high SNR) is a ``ValueError``: that population
    loss is not a power of a norm.  ``PowNormObjective``'s Gram floor
    applies, so a badly conditioned S (the default decaying covariance from
    d = 18 on) raises ``AssumptionViolationError``.
    """
    if np.any(config.theta_star != 0.0):
        raise ValueError("the population loss is a pow-norm only at low SNR")
    # (2p-1)!!, the 2p-th moment of a standard normal
    moment = math.prod(range(1, 2 * config.p, 2))
    scale = moment ** (1.0 / (2 * config.p))
    design = np.diag(scale * np.sqrt(config.cov))
    return PowNormObjective(design_gram(design), np.zeros(config.d), 2 * config.p)


def generate_dataset(config: GlmModelConfig, n: int, seed: int) -> EmpiricalGlmLoss:
    """Draw n samples from the model; bit-identical for identical inputs."""
    if n < 1:
        raise ValueError("need at least one sample")
    z = rng.normals(rng.derive_seed(seed, _STREAM_FEATURES), n * config.d)
    x = z.reshape(n, config.d) * np.sqrt(config.cov)
    noise = rng.normals(rng.derive_seed(seed, _STREAM_NOISE), n)
    y = (x @ config.theta_star) ** config.p + noise
    return EmpiricalGlmLoss(x, y, config.p)


def split_train_validation(loss: EmpiricalGlmLoss):
    """Contiguous train/validation split, ``_TRAIN_FRACTION`` of the rows
    for training (data are i.i.d., no shuffle needed)."""
    if loss.n < 2:
        raise ValueError("need at least two samples to split")
    x, y = loss.samples()
    n_train = int(round(_TRAIN_FRACTION * loss.n))
    n_train = min(max(n_train, 1), loss.n - 1)
    train = EmpiricalGlmLoss(x[:n_train], y[:n_train], loss.p)
    val = EmpiricalGlmLoss(x[n_train:], y[n_train:], loss.p)
    return train, val


def _check_init_radius(init_radius):
    if not 0.0 < init_radius < math.inf:
        raise ValueError("init_radius must be positive and finite")


def draw_trial(config: GlmModelConfig, n: int, data_seed: int, init_radius: float):
    """One GLM trial: ``(train, val, theta0)``.

    The n samples drawn at ``data_seed`` are split by
    ``split_train_validation``, and the start is theta_star + init_radius *
    u for u a uniform unit vector from its own stream of ``data_seed``.
    When theta_star is nonzero, u is turned into the hemisphere facing
    theta_star: an even link power cannot tell +-theta_star apart, and a
    start in the mirror basin converges to the sign the error metric scores
    as failure.  A negative ``init_radius`` would undo that, so anything
    but a positive, finite one is a ``ValueError`` before any data are drawn.
    """
    _check_init_radius(init_radius)
    train, val = split_train_validation(generate_dataset(config, n, data_seed))
    direction = rng.unit_vector(config.d, rng.derive_seed(data_seed, _STREAM_INIT))
    if float(direction @ config.theta_star) < 0:
        direction = -direction
    return train, val, config.theta_star + init_radius * direction


def scalar_moment_ratio(loss: EmpiricalGlmLoss) -> float:
    """sum(y x**p) / sum(x**2p) for d = 1: the p-th power of the nonzero
    stationary point of the scalar loss (may be negative under noise)."""
    if loss.d != 1:
        raise ValueError("scalar_moment_ratio needs a one-dimensional loss")
    x, y = loss.samples()
    x = x[:, 0]
    denom = float(np.sum(x ** (2 * loss.p)))
    if denom <= 0.0:
        raise ValueError("all features are zero; the loss is constant")
    return float(np.sum(y * x ** loss.p)) / denom


@dataclass(frozen=True)
class EarlyStopChoice:
    """The chosen trace index, its validation loss, and the validation loss
    at every iterate (the raw value at a finite iterate, NaN at a
    non-finite one)."""

    index: int
    val_loss: float
    losses: np.ndarray


def early_stop_by_validation(trace, validation_loss) -> EarlyStopChoice:
    """Trace index minimizing validation loss over every recorded iterate.

    The finite iterates are evaluated in one ``values`` call.  Ties break
    toward the smallest index; non-finite losses never win, and
    ``val_loss`` is inf when no iterate has a finite one.
    """
    if len(trace) == 0:
        raise ValueError("trace is empty")
    points = np.asarray(trace.iterates, dtype=float)
    finite = np.all(np.isfinite(points), axis=1)
    losses = np.full(len(trace), np.nan)
    with np.errstate(all="ignore"):
        losses[finite] = validation_loss.values(points[finite])
    candidates = np.where(np.isfinite(losses), losses, np.inf)
    idx = int(np.argmin(candidates))
    return EarlyStopChoice(index=idx, val_loss=float(candidates[idx]), losses=losses)


def fit_loglog_slope(xs, ys):
    """Least-squares slope of log(y) against log(x), with its standard error.

    Each x and y must be positive and finite; a ``ValueError`` names the
    first point that is not.  All-equal x leave the slope undefined, also
    a ``ValueError``.
    """
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    if xs.size != ys.size or xs.size < 2:
        raise ValueError("need at least two points to fit a slope")
    for x, y in zip(xs.tolist(), ys.tolist()):
        if not (0.0 < x < math.inf and 0.0 < y < math.inf):
            raise ValueError(
                f"cannot fit a log-log slope through ({x!r}, {y!r}): "
                "each coordinate must be positive and finite"
            )
    x, y = np.log(xs), np.log(ys)
    xc = x - x.mean()
    sxx = float(xc @ xc)
    if sxx == 0.0:
        raise ValueError("cannot fit a log-log slope: all x are equal")
    slope = float(xc @ y) / sxx
    resid = y - (y.mean() + slope * xc)
    dof = x.size - 2
    stderr = float(np.sqrt((resid @ resid) / dof / sxx)) if dof > 0 else float("nan")
    return slope, stderr


@dataclass
class RadiusSweepResult:
    """The radius CSV's table: each column name, in CSV order, mapped to one
    value per size in grid order.  The slope is fitted to its
    ``median_min_error``; ``flagged_trials`` counts the runs that stopped
    in ``STOPS_INTERRUPTED``."""

    table: dict
    fitted_slope: float
    slope_stderr: float
    flagged_trials: int


def run_glm_method(
    method: str,
    loss: EmpiricalGlmLoss,
    theta0,
    config: SolverConfig,
    theta_ref,
):
    """Run one of ``METHODS`` on an empirical loss from ``theta0``.

    ``bfgs`` on a one-dimensional loss runs ``run_scalar_bfgs`` from the
    ordered pair theta0, then theta_ref + 0.999 (theta0 - theta_ref); the
    Polyak step uses ``NOISE_VAR``, the population loss at the truth, as
    the stand-in for the unknown empirical optimum, so a start below it
    stops at grad-tol.  Every other case goes to ``run_method``.
    """
    theta_ref = np.atleast_1d(np.asarray(theta_ref, dtype=float))
    if method == "bfgs" and loss.d == 1:
        start, ref = float(np.atleast_1d(theta0)[0]), float(theta_ref[0])
        return run_scalar_bfgs(
            loss, ref + _SCALAR_PULL * (start - ref), start, config, ref
        )
    return run_method(method, loss, theta0, config, NOISE_VAR, theta_ref)


# Capacity asked of the pipe that carries ``run_trials``'s trials (Linux's
# F_SETPIPE_SZ; the default is 64 KiB).  The worker runs ahead of the
# solvers until this many bytes wait unread: about 200 trials sent as
# statistics at d = 4, p = 2, and about one trial where a trial (a large
# per-sample one, say) outgrows the pipe.  1 MiB is also Linux's default
# cap for an unprivileged process (/proc/sys/fs/pipe-max-size).
_PIPE_BYTES = 1 << 20


def _grow_pipe(connection):
    """Ask for a ``_PIPE_BYTES`` pipe behind ``connection``; where the call is
    missing (not Linux) or refused, the pipe keeps its size."""
    import fcntl  # here, not at the top: POSIX only

    try:
        fcntl.fcntl(connection.fileno(), fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
    except (AttributeError, OSError):
        pass


def _draw_trials(receiver, sender, config: GlmModelConfig, plan, init_radius):
    """The body of ``run_trials``'s worker process: per plan entry, in order,
    ``draw_trial``, then ``(train, val, theta0)`` down ``sender``, each part
    that evaluates through its moment statistics sent as those statistics
    alone (``EmpiricalGlmLoss.from_moments``).  An error is sent in place of
    its trial and ends the worker."""
    receiver.close()  # the parent's end; a copy held here would keep the pipe open
    for n, data_seed in plan:
        try:
            *parts, theta0 = draw_trial(config, n, data_seed, init_radius)
            trial = [
                EmpiricalGlmLoss.from_moments(part.n, part.d, part.p, part.moments())
                if part.uses_moments else part
                for part in parts
            ] + [theta0]
        except Exception as err:
            sender.send(err)
            return
        sender.send(trial)


def run_trials(config: GlmModelConfig, solver: SolverConfig, plan, methods, init_radius):
    """Run ``methods`` on the GLM trials of ``plan``, a list of (n, data_seed).

    Per entry, in order, ``draw_trial`` draws the trial once; then each
    method, in order, runs on its training part from its start through
    ``run_glm_method``, scored against theta_star.  Yields ``(n, data_seed,
    method, trace, val)`` per run, ``val`` being the trial's validation
    part.  An empty plan, a method not in ``METHODS`` or an ``init_radius``
    that is not positive and finite is a ``ValueError`` before any data are
    drawn.

    The trials are drawn in one worker process, forked on the first
    ``next``, while the solvers run here on the trials before.  The worker
    sends each trial down a one-way pipe, each part that evaluates through
    its moment statistics as those alone (``EmpiricalGlmLoss.from_moments``;
    its ``x`` and ``y`` are None, and ``val`` may be such a part), the rest
    with their samples.  It runs ahead until the pipe is full: the pipe is
    grown to ``_PIPE_BYTES`` where the system allows (about 200 trials of
    statistics at d = 4, p = 2, about one trial where a trial outgrows it)
    and keeps its default 64 KiB elsewhere.
    Patches made before that ``next`` are inherited by the worker, but what
    they record there stays there.  An error raised while drawing a trial
    is raised here, with its type and message, once the runs of the trials
    before it are done.  A consumer that stops early kills the worker;
    either way it is joined before the generator ends.
    """
    if not plan:
        raise ValueError("need at least one trial")
    for method in methods:
        if method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    _check_init_radius(init_radius)
    import multiprocessing  # here, not at the top: it slows ``import qnbench``

    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)
    _grow_pipe(receiver)
    # daemonic: an exiting interpreter ends it rather than waits on a worker
    # blocked in ``send`` for a generator that was never closed
    worker = context.Process(
        target=_draw_trials, args=(receiver, sender, config, plan, init_radius), daemon=True
    )
    worker.start()
    sender.close()
    finished = False
    try:
        for n, data_seed in plan:
            try:
                trial = receiver.recv()
            except EOFError:
                worker.join()
                raise RuntimeError(
                    f"the trial worker exited with code {worker.exitcode} before "
                    f"sending the trial n={n}, data_seed={data_seed}"
                ) from None
            if isinstance(trial, Exception):
                raise trial
            train, val, theta0 = trial
            for method in methods:
                trace = run_glm_method(method, train, theta0, solver, config.theta_star)
                yield n, data_seed, method, trace, val
        finished = True
    finally:
        if not finished:
            # killed, not left to meet a broken pipe: a worker forked for
            # another live generator holds a copy of this pipe's read end
            worker.kill()
        receiver.close()
        worker.join()


def run_radius_sweep(
    config: GlmModelConfig,
    solver: SolverConfig,
    n_grid,
    trials: int,
    seed0: int,
    init_radius: float = 1.0,
    method: str = "bfgs",
) -> RadiusSweepResult:
    """Sweep sample sizes: run ``method`` on each (n, trial) through
    ``run_trials``, record the minimum error to theta_star of each training
    run, and fit the log-log slope of the table's per-size medians.

    ``n_grid`` needs at least three sizes, strictly increasing; anything
    else is a ``ValueError`` before any data are drawn.
    """
    n_grid = [int(n) for n in n_grid]
    if len(n_grid) < 3:
        raise ValueError("need at least three sample sizes")
    if any(later <= earlier for earlier, later in zip(n_grid, n_grid[1:])):
        raise ValueError("n_grid must be strictly increasing")
    plan = [(n, rng.derive_seed(seed0, i_n, trial))
            for i_n, n in enumerate(n_grid) for trial in range(trials)]
    errors, iters = {n: [] for n in n_grid}, {n: [] for n in n_grid}
    flagged = 0
    # the radius is measured on the training nine tenths alone
    runs = run_trials(config, solver, plan, [method], init_radius)
    for n, _seed, _method, trace, _val in runs:
        errors[n].append(trace.min_error)
        iters[n].append(trace.iters_to_min)
        flagged += trace.stop_reason in STOPS_INTERRUPTED
    quartiles = [np.percentile(errors[n], [25, 50, 75]).tolist() for n in n_grid]
    q25, q50, q75 = map(list, zip(*quartiles))
    table = {"n": n_grid, "median_min_error": q50, "q25": q25, "q75": q75,
             "median_iters_to_min": [float(np.median(iters[n])) for n in n_grid]}
    slope, stderr = fit_loglog_slope(n_grid, q50)
    return RadiusSweepResult(table, slope, stderr, flagged)
