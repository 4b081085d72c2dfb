"""Quasi-Newton convergence rates on flat objectives, at desk scale.

The package bundles the pieces needed to study unit-step BFGS and Newton
on the power-of-norm objective ||A theta - b||**q and on least-square
losses of polynomial-link GLMs: exact objectives and derivatives
(:mod:`qnbench.objectives`), the contraction-factor theory they obey
(:mod:`qnbench.rates`), trace-producing solvers (:mod:`qnbench.solvers`),
seeded synthetic-data experiments (:mod:`qnbench.glmsim`), and a benchmark
CLI writing CSV/SVG artifacts (:mod:`qnbench.cli`).
"""

__version__ = "0.1.0"

from .objectives import (
    AssumptionViolationError,
    EmpiricalGlmLoss,
    PowNormObjective,
    SingularHessianError,
    central_difference_gradient,
    central_difference_jacobian,
    random_pow_norm_objective,
)
from .rates import (
    ContractionSequence,
    contraction_gap_table,
    contraction_map,
    contraction_map_derivative_bound,
    contraction_sequence,
    envelope_holds,
    fixed_point,
    newton_factor,
    scalar_secant_contraction_bound,
)
from .solvers import (
    METHODS,
    SolverConfig,
    SolverTrace,
    bfgs_update,
    initial_inverse_hessian,
    run_method,
    run_scalar_bfgs,
)
from .glmsim import (
    GlmModelConfig,
    RadiusSweepResult,
    RadiusTrialRow,
    early_stop_by_validation,
    fit_loglog_slope,
    generate_dataset,
    high_snr_config,
    low_snr_config,
    low_snr_population_objective,
    run_glm_method,
    run_radius_sweep,
    scalar_moment_ratio,
    split_train_validation,
)
