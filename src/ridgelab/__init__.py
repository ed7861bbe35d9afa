"""Asymptotic risk theory and Monte Carlo tooling for generalized ridge
regression in the proportional regime (p/n -> gamma).

The package centers on a deterministic fixed-point solver for the
resolvent transform of the sample Gram spectrum, exact limiting
bias/variance formulas built on it, penalty optimization (including the
negative-ridge regime), principal component regression limits, weighted
(generalized) penalties, and a seeded Monte Carlo harness that validates
the limits at finite (n, p).
"""

from .errors import DomainError, RegimeError, SolverError
from .montecarlo import (
    IllConditionedDraw,
    MatrixEnsemble,
    MonteCarloConfig,
    conditional_risk,
    conditional_risk_curve,
    estimator_risk_empirical,
    pcr_estimator_risk,
    replicate_rng,
    sample_design,
    simulate,
)
from .optimize import (
    TwoPointSpec,
    classify_sign,
    conditional_means,
    lambda_opt_closed_form,
    lambda_opt_search,
    monotonicity_sweep,
    negative_ridge_threshold,
    regime_guard,
    select_weighting,
    weighted_lambda_opt,
)
from .recipes import (
    GENERIC_RECIPES,
    RECIPE_NAMES,
    REPRODUCE_KEYS,
    recipe_ensemble,
    recipe_spectrum,
    reproduce_table,
)
from .risk import (
    RiskEvaluation,
    alpha_path_risk,
    asymptotic_risk,
    interpolate_penalty,
    pcr_curve,
    pcr_risk,
    risk_curve,
    risk_derivative,
    weighted_model,
    weighted_risk,
)
from .spectra import (
    ClippedSquareNormal,
    JointSpectrum,
    ModelSpec,
    ShiftedAbsNormal,
    ShiftedInvAbsNormal,
    Uniform,
    WeightedSpectrum,
    discretize,
    independent_product,
    point_mass,
    relate,
    split_top_mass,
    spectrum_from_json,
)
from .stieltjes import (
    find_edge,
    lambda_of_m,
    solve_m,
    solve_m_theta,
)

__version__ = "0.1.0"

__all__ = [
    "ClippedSquareNormal",
    "DomainError",
    "GENERIC_RECIPES",
    "IllConditionedDraw",
    "JointSpectrum",
    "MatrixEnsemble",
    "ModelSpec",
    "MonteCarloConfig",
    "RECIPE_NAMES",
    "REPRODUCE_KEYS",
    "RegimeError",
    "RiskEvaluation",
    "ShiftedAbsNormal",
    "ShiftedInvAbsNormal",
    "SolverError",
    "TwoPointSpec",
    "Uniform",
    "WeightedSpectrum",
    "alpha_path_risk",
    "asymptotic_risk",
    "classify_sign",
    "conditional_means",
    "conditional_risk",
    "conditional_risk_curve",
    "discretize",
    "estimator_risk_empirical",
    "find_edge",
    "independent_product",
    "interpolate_penalty",
    "lambda_of_m",
    "lambda_opt_closed_form",
    "lambda_opt_search",
    "monotonicity_sweep",
    "negative_ridge_threshold",
    "pcr_curve",
    "pcr_estimator_risk",
    "pcr_risk",
    "point_mass",
    "recipe_ensemble",
    "recipe_spectrum",
    "regime_guard",
    "relate",
    "replicate_rng",
    "reproduce_table",
    "risk_curve",
    "risk_derivative",
    "sample_design",
    "select_weighting",
    "simulate",
    "solve_m",
    "solve_m_theta",
    "spectrum_from_json",
    "split_top_mass",
    "weighted_lambda_opt",
    "weighted_model",
    "weighted_risk",
]
