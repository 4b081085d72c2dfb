"""Seeded synthetic GLM data and statistical-radius sweeps.

Data follow ``y_i = (x_i' theta_star)**p + noise``, with Gaussian features
and Gaussian noise drawn from the package's own deterministic streams, so
identical (config, n, seed) triples reproduce datasets bit-for-bit.  Two
regimes matter: high signal-to-noise (theta_star on the unit sphere), where
the loss is locally strongly convex, and low signal-to-noise
(theta_star = 0), where it is flat at the optimum and first-order methods
slow to a crawl.

At low SNR the population loss, ``(2p-1)!! ||S theta||**(2p)`` plus the
noise variance, is a pow-norm objective plus a constant, so
``low_snr_population_objective`` builds it as one and the solvers run on
it with exact derivatives.

The sweep machinery reruns a solver across sample sizes and trials,
records the best error along each trace against theta_star, and fits the
log-log slope of the per-size medians — the empirical statistical radius.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .objectives import EmpiricalGlmLoss, PowNormObjective
from .solvers import METHODS, STOPS_INTERRUPTED, SolverConfig, run_method, run_scalar_bfgs

REGIME_LOW_SNR = "low-snr"
REGIME_HIGH_SNR = "high-snr"

_STREAM_FEATURES = 0
_STREAM_NOISE = 1
_STREAM_INIT = 2

# Fixed starting pair for one-dimensional secant runs: ordered, positive,
# and well above any desk-scale statistical radius.
SCALAR_START = (1.0, 0.999)

# Share of a dataset that ``split_train_validation`` keeps for training.
_TRAIN_FRACTION = 0.9

# The methods ``run_glm_method`` accepts: the vector methods and, on
# one-dimensional losses, the secant form.
GLM_METHODS = (*METHODS, "scalar-bfgs")


def default_covariance_diagonal(d: int) -> np.ndarray:
    """Variances (0.25)**k for k = 1..d (feature std devs halve per axis)."""
    return 0.25 ** np.arange(1, d + 1)


@dataclass
class GlmModelConfig:
    """Generative model: dimensions, link power, truth, covariance, noise.

    ``cov`` may be a length-d vector of positive variances (diagonal
    covariance) or a full SPD matrix; ``None`` selects the default
    diagonal.  The low-SNR regime requires theta_star = 0 exactly, the
    high-SNR regime a unit-norm theta_star.
    """

    d: int
    p: int
    theta_star: np.ndarray
    cov: np.ndarray | None = None
    noise_std: float = 1.0
    regime: str = REGIME_LOW_SNR

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be positive")
        if not (isinstance(self.p, (int, np.integer)) and self.p >= 2):
            raise ValueError(f"link power p must be an integer >= 2, got {self.p!r}")
        self.p = int(self.p)
        if self.noise_std < 0:
            raise ValueError("noise_std must be non-negative")
        self.theta_star = np.asarray(self.theta_star, dtype=float)
        if self.theta_star.shape != (self.d,):
            raise ValueError("theta_star must have length d")
        if self.regime == REGIME_LOW_SNR:
            if np.any(self.theta_star != 0.0):
                raise ValueError("low-snr regime requires theta_star = 0")
        elif self.regime == REGIME_HIGH_SNR:
            if abs(np.linalg.norm(self.theta_star) - 1.0) > 1e-9:
                raise ValueError("high-snr regime requires unit-norm theta_star")
        else:
            raise ValueError(f"unknown regime {self.regime!r}")
        cov = default_covariance_diagonal(self.d) if self.cov is None else np.asarray(
            self.cov, dtype=float
        )
        if cov.ndim == 1:
            if cov.shape != (self.d,) or np.any(cov <= 0):
                raise ValueError("diagonal covariance needs d positive variances")
            self.cov_sqrt = np.diag(np.sqrt(cov))
        elif cov.ndim == 2 and cov.shape == (self.d, self.d):
            if np.max(np.abs(cov - cov.T)) > 1e-12 * max(1.0, np.max(np.abs(cov))):
                raise ValueError("covariance matrix must be symmetric")
            eigvals, eigvecs = np.linalg.eigh(cov)
            if np.min(eigvals) <= 0:
                raise ValueError("covariance matrix must be positive definite")
            self.cov_sqrt = (eigvecs * np.sqrt(eigvals)) @ eigvecs.T
        else:
            raise ValueError("cov must be a length-d vector or a d x d matrix")
        self.cov = cov

    @property
    def noise_var(self) -> float:
        return self.noise_std ** 2


def low_snr_config(d: int, p: int, cov=None, noise_std: float = 1.0) -> GlmModelConfig:
    return GlmModelConfig(
        d=d, p=p, theta_star=np.zeros(d), cov=cov, noise_std=noise_std,
        regime=REGIME_LOW_SNR,
    )


def high_snr_config(
    d: int, p: int, seed: int, cov=None, noise_std: float = 1.0
) -> GlmModelConfig:
    """High-SNR model with theta_star drawn uniformly from the unit sphere."""
    return GlmModelConfig(
        d=d, p=p, theta_star=rng.unit_vector(d, rng.derive_seed(seed, 17)),
        cov=cov, noise_std=noise_std, regime=REGIME_HIGH_SNR,
    )


def low_snr_population_objective(config: GlmModelConfig) -> PowNormObjective:
    """The population least-square loss of a low-SNR model, less its noise
    variance, as a pow-norm objective.

    With theta_star = 0, ``E (y - (x' theta)**p)**2 = (2p-1)!! ||S theta||**(2p)
    + noise_var`` for S the symmetric covariance square root
    ``config.cov_sqrt``: the pow-norm objective with
    ``A = ((2p-1)!!)**(1/(2p)) S``, ``theta_opt = 0`` and ``q = 2p``.  Add
    ``config.noise_var`` to its ``value`` for the loss.

    A high-SNR config is a ``ValueError``: its population loss is not a
    power of a norm.  ``PowNormObjective``'s Gram floor applies, so a
    badly conditioned S (the default decaying covariance from d = 18 on)
    raises ``AssumptionViolationError``.
    """
    if config.regime != REGIME_LOW_SNR:
        raise ValueError("the population loss is a pow-norm only at low SNR")
    # (2p-1)!!, the 2p-th moment of a standard normal
    moment = math.prod(range(1, 2 * config.p, 2))
    scale = moment ** (1.0 / (2 * config.p))
    return PowNormObjective(scale * config.cov_sqrt, np.zeros(config.d), 2 * config.p)


def generate_dataset(config: GlmModelConfig, n: int, seed: int) -> EmpiricalGlmLoss:
    """Draw n samples from the model; bit-identical for identical inputs."""
    if n < 1:
        raise ValueError("need at least one sample")
    z = rng.normals(rng.derive_seed(seed, _STREAM_FEATURES), n * config.d)
    x = z.reshape(n, config.d) @ config.cov_sqrt.T
    noise = rng.normals(rng.derive_seed(seed, _STREAM_NOISE), n)
    y = (x @ config.theta_star) ** config.p + config.noise_std * noise
    return EmpiricalGlmLoss(x, y, config.p)


def split_train_validation(loss: EmpiricalGlmLoss):
    """Contiguous train/validation split, ``_TRAIN_FRACTION`` of the rows
    for training (data are i.i.d., no shuffle needed)."""
    if loss.n < 2:
        raise ValueError("need at least two samples to split")
    n_train = int(round(_TRAIN_FRACTION * loss.n))
    n_train = min(max(n_train, 1), loss.n - 1)
    train = EmpiricalGlmLoss(loss.x[:n_train], loss.y[:n_train], loss.p)
    val = EmpiricalGlmLoss(loss.x[n_train:], loss.y[n_train:], loss.p)
    return train, val


def scalar_moment_ratio(loss: EmpiricalGlmLoss) -> float:
    """sum(y x**p) / sum(x**2p) for d = 1: the p-th power of the nonzero
    stationary point of the scalar loss (may be negative under noise)."""
    if loss.d != 1:
        raise ValueError("scalar_moment_ratio needs a one-dimensional loss")
    x = loss.x[:, 0]
    denom = float(np.sum(x ** (2 * loss.p)))
    if denom <= 0.0:
        raise ValueError("all features are zero; the loss is constant")
    return float(np.sum(loss.y * x ** loss.p)) / denom


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
    points = np.asarray(trace.iterates, dtype=float).reshape(len(trace), -1)
    finite = np.all(np.isfinite(points), axis=1)
    losses = np.full(len(trace), np.nan)
    with np.errstate(all="ignore"):
        losses[finite] = validation_loss.values(points[finite])
    candidates = np.where(np.isfinite(losses), losses, np.inf)
    idx = int(np.argmin(candidates))
    return EarlyStopChoice(index=idx, val_loss=float(candidates[idx]), losses=losses)


def fit_loglog_slope(xs, ys):
    """Least-squares slope of log(y) against log(x), with its standard error."""
    x = np.log(np.asarray(xs, dtype=float))
    y = np.log(np.asarray(ys, dtype=float))
    if x.size != y.size or x.size < 2:
        raise ValueError("need at least two points to fit a slope")
    xc = x - x.mean()
    sxx = float(xc @ xc)
    slope = float(xc @ y) / sxx
    resid = y - (y.mean() + slope * xc)
    dof = x.size - 2
    stderr = float(np.sqrt((resid @ resid) / dof / sxx)) if dof > 0 else float("nan")
    return slope, stderr


@dataclass(frozen=True)
class RadiusTrialRow:
    n: int
    seed: int
    min_error: float
    iters_to_min: int
    flagged: bool


@dataclass
class RadiusSweepResult:
    """Per-trial rows (sorted by n) plus the fitted log-log slope of the
    per-size median minimum errors."""

    rows: list
    fitted_slope: float
    slope_stderr: float

    def summaries(self):
        """Rows (n, median_min_error, q25, q75, median_iters_to_min)."""
        out = []
        for n in sorted({row.n for row in self.rows}):
            errs = [row.min_error for row in self.rows if row.n == n]
            iters = [row.iters_to_min for row in self.rows if row.n == n]
            q25, q50, q75 = np.percentile(errs, [25, 50, 75])
            out.append((n, float(q50), float(q25), float(q75), float(np.median(iters))))
        return out


def run_glm_method(
    method: str,
    loss: EmpiricalGlmLoss,
    theta0,
    config: SolverConfig,
    theta_ref,
    noise_var: float = 1.0,
):
    """Run one of ``GLM_METHODS`` on an empirical loss.

    ``bfgs`` on a one-dimensional loss runs the secant form from the fixed
    ordered pair; the Polyak step uses the model noise variance as the
    known optimal value (the population loss at the truth).  Every other
    case goes to ``run_method``.
    """
    theta_ref = np.atleast_1d(np.asarray(theta_ref, dtype=float))
    if method == "scalar-bfgs" and loss.d != 1:
        raise ValueError("scalar-bfgs needs a one-dimensional loss")
    if method in ("bfgs", "scalar-bfgs") and loss.d == 1:
        theta0_s, prev_s = (
            (float(np.atleast_1d(theta0)[0]), None)
            if method == "scalar-bfgs"
            else (SCALAR_START[1], SCALAR_START[0])
        )
        return run_scalar_bfgs(
            loss, theta0_s, prev_s, config, theta_ref=float(theta_ref[0])
        )
    f_star = 0.0
    if method == "gd-polyak":
        # the population loss at the truth equals the noise variance, the
        # best available stand-in for the unknown empirical optimum; small
        # samples can start below it, so clamp to keep steps non-negative
        f_star = min(noise_var, loss.value(np.atleast_1d(theta0)))
    return run_method(method, loss, theta0, config, f_star, theta_ref)


def run_radius_sweep(
    config: GlmModelConfig,
    solver: SolverConfig,
    n_grid,
    trials: int,
    seed0: int,
    init_radius: float = 1.0,
    method: str = "bfgs",
) -> RadiusSweepResult:
    """Sweep sample sizes: per (n, trial), generate data, run ``method``
    through ``run_glm_method``, record the minimum error to theta_star, and
    fit the log-log slope of the per-size medians.

    Vector runs start at theta_star + init_radius * (uniform unit vector);
    when theta_star is nonzero the direction is drawn from the hemisphere
    facing theta_star, since an even link power cannot tell +-theta_star
    apart and starts in the mirror basin converge to the sign the error
    metric scores as failure.  One-dimensional runs start at the fixed
    ordered pair.  Trials are independent given their derived seeds; rows
    come out sorted by n, then trial, regardless of evaluation order.
    """
    n_grid = [int(n) for n in n_grid]
    if any(later <= earlier for earlier, later in zip(n_grid, n_grid[1:])):
        raise ValueError("n_grid must be strictly increasing")
    if trials < 1:
        raise ValueError("need at least one trial")
    if method not in GLM_METHODS:
        raise ValueError(f"method must be one of {GLM_METHODS}, got {method!r}")
    rows = []
    for i_n, n in enumerate(n_grid):
        for trial in range(trials):
            data_seed = rng.derive_seed(seed0, i_n, trial)
            full = generate_dataset(config, n, data_seed)
            # the radius is measured on the training nine tenths alone
            train, _val = split_train_validation(full)
            direction = rng.unit_vector(
                config.d, rng.derive_seed(data_seed, _STREAM_INIT)
            )
            if float(direction @ config.theta_star) < 0:
                direction = -direction
            theta0 = config.theta_star + init_radius * direction
            trace = run_glm_method(
                method, train, theta0, solver, config.theta_star, config.noise_var
            )
            rows.append(
                RadiusTrialRow(
                    n=n,
                    seed=data_seed,
                    min_error=trace.min_error,
                    iters_to_min=trace.iters_to_min,
                    flagged=trace.stop_reason in STOPS_INTERRUPTED,
                )
            )
    medians = [
        float(np.median([row.min_error for row in rows if row.n == n])) for n in n_grid
    ]
    slope, stderr = fit_loglog_slope(n_grid, medians)
    return RadiusSweepResult(rows=rows, fitted_slope=slope, slope_stderr=stderr)
