"""Profile quasi-likelihood estimation and inference for generalized
varying-coefficient partially linear models.

The model is g(E[y | u, x, z]) = x' alpha(u) + z' beta with unknown
coefficient functions alpha of a scalar index u and a parametric vector
beta.  The package provides local polynomial fitting of the coefficient
functions, three Newton-type profile maximizers for beta (backfitting,
accelerated, full) started from a difference-based estimate, sandwich
standard errors, likelihood ratio tests of linear hypotheses, K-fold
bandwidth selection and a reproducible Monte Carlo study harness.

The smoothing machinery is built once per dataset: ``CurveFitter`` solves
the local fits, and their derivative in beta, at fixed points, and
``ProfileEngine`` evaluates the profile objective, gradient and Hessian at
any beta from one fitter at the observations.  ``fit_curve`` gives the
coefficient functions on a display grid.

Importing the package changes two process-wide parameters of glibc's
malloc, ``M_MMAP_THRESHOLD`` (to 32 MiB) and ``M_TRIM_THRESHOLD`` (to 64
MiB), so that the local solver's freed temporaries stay mapped between
passes; nothing changes off glibc or where ``GLIBC_TUNABLES`` or a
``MALLOC_*`` variable is set (``gvcplm.smoothing``).
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
    get_family,
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
from .metrics import MetricSummary, ar1_moment, gmse, rase, sd_mad
from .profile import (
    FitConfig,
    FitResult,
    ProfileEngine,
    fit,
)
from .simulate import (
    SimDesign,
    design_moment,
    generate,
    make_design,
    parametric_dimension,
    preset_smoothing,
    replicate_seed,
    with_beta,
)
from .smoothing import (
    CurveEstimate,
    CurveFitter,
    SmoothingParams,
    default_grid,
    fit_curve,
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
    "EffectiveSampleError",
    "FamilySpec",
    "FitConfig",
    "FitResult",
    "GAUSSIAN",
    "GlrtResult",
    "GvcplmError",
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
    "chi2_upper_tail",
    "cross_validate",
    "default_grid",
    "default_h_grid",
    "default_smoothing_grid",
    "design_moment",
    "difference_weights",
    "fit",
    "fit_curve",
    "fit_dbe",
    "generate",
    "get_family",
    "glrt",
    "gmse",
    "make_constraint",
    "make_design",
    "metrics",
    "parametric_dimension",
    "preset_smoothing",
    "rase",
    "replicate_seed",
    "run_table",
    "sandwich_covariance",
    "sd_mad",
    "with_beta",
]
