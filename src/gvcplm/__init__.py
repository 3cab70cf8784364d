"""Profile quasi-likelihood estimation and inference for generalized
varying-coefficient partially linear models.

The model is g(E[y | u, x, z]) = x' alpha(u) + z' beta with unknown
coefficient functions alpha of a scalar index u and a parametric vector
beta.  The package provides local polynomial fitting of the coefficient
functions, three Newton-type profile maximizers for beta (backfitting,
accelerated, full) started from a difference-based estimate, sandwich
standard errors, likelihood ratio tests of linear hypotheses, K-fold
bandwidth selection and a reproducible Monte Carlo study harness.
"""

from .crossval import CvReport, cross_validate, default_h_grid, default_smoothing_grid
from .data import Dataset
from .dbe import DbeResult, difference_weights, fit_dbe
from .errors import (
    ConditioningError,
    CrossValidationError,
    DataError,
    DomainError,
    EffectiveSampleError,
    GvcplmError,
    ParameterError,
    RankError,
    SingularityError,
    StudyError,
)
from .families import (
    BERNOULLI,
    GAUSSIAN,
    POISSON,
    FamilySpec,
    eval_q,
    eval_quasi_loglik,
    get_family,
    transform_response,
)
from .inference import (
    ConstraintSpec,
    GlrtResult,
    SandwichCov,
    chi2_upper_tail,
    glrt,
    make_constraint,
    sandwich_covariance,
)
from .kernels import EPANECHNIKOV, KernelSpec, kernel_weight
from .metrics import MetricSummary, ar1_moment, gmse, rase, sd_mad
from .profile import (
    FitConfig,
    FitResult,
    ProfileEngine,
    fit,
    modified_hessian,
    profile_gradient,
    profile_objective,
)
from .simulate import (
    SimDesign,
    bernoulli_design,
    design_moment,
    generate,
    make_design,
    parametric_dimension,
    poisson_design,
    preset_smoothing,
    replicate_seed,
    with_beta,
)
from .smoothing import (
    CurveEstimate,
    CurveFitter,
    LocalFit,
    SmoothingParams,
    default_grid,
    estimate_alpha_prime,
    fit_curve,
    fit_local,
)
from .studies import run_table

__version__ = "0.1.0"

__all__ = [
    "BERNOULLI",
    "ConditioningError",
    "ConstraintSpec",
    "CrossValidationError",
    "CurveEstimate",
    "CurveFitter",
    "CvReport",
    "DataError",
    "Dataset",
    "DbeResult",
    "DomainError",
    "EPANECHNIKOV",
    "EffectiveSampleError",
    "FamilySpec",
    "FitConfig",
    "FitResult",
    "GAUSSIAN",
    "GlrtResult",
    "GvcplmError",
    "KernelSpec",
    "LocalFit",
    "MetricSummary",
    "POISSON",
    "ParameterError",
    "ProfileEngine",
    "RankError",
    "SandwichCov",
    "SimDesign",
    "SingularityError",
    "SmoothingParams",
    "StudyError",
    "ar1_moment",
    "bernoulli_design",
    "chi2_upper_tail",
    "cross_validate",
    "default_grid",
    "default_h_grid",
    "default_smoothing_grid",
    "design_moment",
    "difference_weights",
    "estimate_alpha_prime",
    "eval_q",
    "eval_quasi_loglik",
    "fit",
    "fit_curve",
    "fit_dbe",
    "fit_local",
    "generate",
    "get_family",
    "glrt",
    "gmse",
    "kernel_weight",
    "make_constraint",
    "make_design",
    "metrics",
    "modified_hessian",
    "parametric_dimension",
    "poisson_design",
    "preset_smoothing",
    "profile_gradient",
    "profile_objective",
    "rase",
    "replicate_seed",
    "run_table",
    "sandwich_covariance",
    "sd_mad",
    "transform_response",
    "with_beta",
]
