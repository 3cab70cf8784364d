"""Sandwich covariance and likelihood ratio tests for the parametric part.

The covariance of the profile estimate beta_hat is estimated by the sandwich
bread^{-1} . (n . meat) . bread^{-1}, where bread is the outer-product profile
curvature at beta_hat and meat is the centered sample covariance of the
per-observation profile scores psi_i = q_1i (z_i + alpha' x_i).  Scaled this
way, sigma estimates the covariance matrix of beta_hat itself, so standard
errors are sqrt(diag(sigma)).

Linear hypotheses A beta = 0 (A with orthonormal rows) are tested with the
likelihood ratio statistic

    T = 2 ( sup Qp(beta) - sup_{A beta = 0} Qp(beta) ),

whose null distribution is chi-square with l = rank(A) degrees of freedom,
free of the nuisance curves.  The constrained maximization is an ordinary
profile fit in the reduced coordinates gamma, beta = B' gamma, where B (k, p)
spans the orthogonal complement of the rows of A: its linear covariates are
z B', so it differentiates the local fits in k = p - l directions, not p.

The module needs numpy and the standard library only: the chi-square tail at
the integer df = rank(A) has the closed form of Abramowitz & Stegun (1964)
26.4.4-26.4.5, and B comes from numpy's SVD.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import Dataset
from .errors import ConditioningError, ParameterError, RankError
from .families import get_family
from .profile import FitConfig, FitResult, _newton_fit, fit as profile_fit
from .smoothing import _is_real


@dataclass(frozen=True)
class ConstraintSpec:
    """Orthonormalized linear hypothesis A beta = 0.

    a has orthonormal rows spanning the user's hypothesis space; b completes
    the orthonormal basis (b b' = I, a b' = 0), so the null parameter space
    is { b' gamma }.
    """

    a: np.ndarray
    b: np.ndarray

    @property
    def df(self) -> int:
        return self.a.shape[0]


def make_constraint(rows) -> ConstraintSpec:
    """Build a ConstraintSpec from user hypothesis rows.

    a spans the rows, so the tested hypothesis is unchanged: it is their QR
    factor Q with the diagonal of R made positive, so each row of a keeps the
    direction of its own row, which the df = 1 signed root reads.  b is the
    null space of the rows, scipy.linalg.null_space(rows).T: their trailing
    p - l right singular vectors.  No rows, p rows or more and non-finite
    rows raise ParameterError, dependent rows RankError.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    l, p = rows.shape
    if not 0 < l < p:
        raise ParameterError(f"hypothesis has {l} rows, but beta has {p} coordinates "
                             "and a test needs 1 to p - 1 rows")
    if not np.all(np.isfinite(rows)):
        raise ParameterError("hypothesis rows must be finite")
    if np.linalg.matrix_rank(rows) < l:
        raise RankError("hypothesis rows are linearly dependent")
    qmat, rmat = np.linalg.qr(rows.T)
    a = (qmat * np.sign(np.diag(rmat))).T
    return ConstraintSpec(a=a, b=np.linalg.svd(rows)[2][l:])


@dataclass(frozen=True)
class SandwichCov:
    """Sandwich covariance estimate of beta_hat.

    sigma is the covariance of beta_hat (standard errors are
    sqrt(diag(sigma))); bread is the outer-product profile curvature and meat
    the centered per-observation score covariance entering the sandwich.
    """

    sigma: np.ndarray
    bread: np.ndarray
    meat: np.ndarray

    @property
    def se(self) -> np.ndarray:
        return np.sqrt(np.clip(np.diag(self.sigma), 0.0, None))


def sandwich_covariance(fit_result: FitResult) -> SandwichCov:
    """Sandwich covariance of the fitted parametric coefficients.

    The per-observation scores and the curvature are read from
    fit_result.differentiated_state, the fit's final state at its beta with
    the curve's derivative, on the engine that produced it.
    """
    engine = fit_result.engine
    state = fit_result.differentiated_state
    psi = engine.score_vectors(state)                    # (n, p)
    n = engine.data.n
    mean_psi = psi.mean(axis=0)
    meat = psi.T @ psi / n - np.outer(mean_psi, mean_psi)
    bread = engine.hessian(state, "accelerated")
    cond = np.linalg.cond(bread)
    if not np.isfinite(cond) or cond > 1e12:
        raise ConditioningError(
            f"profile curvature matrix is singular (condition number {cond:.3e})"
        )
    inv_bread = np.linalg.solve(bread, np.eye(bread.shape[0]))
    sigma = n * inv_bread @ meat @ inv_bread.T
    sigma = 0.5 * (sigma + sigma.T)
    return SandwichCov(sigma=sigma, bread=bread, meat=meat)


@dataclass(frozen=True)
class GlrtResult:
    """Likelihood ratio test of A beta = 0."""

    statistic: float
    df: int
    p_value: float
    beta_null: np.ndarray
    beta_alt: np.ndarray
    statistic_raw: float
    loglik_alt: float
    loglik_null: float
    signed_root: Optional[float] = None       # only for single-row hypotheses
    p_value_one_sided: Optional[float] = None


def chi2_upper_tail(x: float, df: int) -> float:
    """P(chi2_df > x) for an integer df >= 1, in closed form.

    With y = x / 2 this is the regularized upper incomplete gamma Q(df/2, y),
    which Abramowitz & Stegun (1964) 26.4.4-26.4.5 write as the finite sum
    of y^a e^{-y} / Gamma(a + 1) over a = 0, 1, ..., df/2 - 1 for even df,
    and over a = 1/2, 3/2, ..., df/2 - 1 plus erfc(sqrt(y)) for odd df.
    Each term is evaluated as exp(a log y - y - lgamma(a + 1)), so none
    overflows.  Below the mode (y < df/2, df > 2) the tail is 1 - P instead,
    with P the lower series, which keeps it at most 1 and nonincreasing in x.
    Each term's exponent is rounded at its own magnitude, which grows with
    df, and so does the relative error.  Against
    scipy.special.gammaincc(df/2, x/2) over x in [df/2, 5 df/2] the largest
    measured is 3.7e-14 at df = 100 (under 1e-13 for every df <= 100),
    4.4e-13 at df = 1000 and 1.9e-12 at df = 3000.  No hypothesis the package
    builds has df above p, the number of linear coefficients.  x <= 0 gives
    1.0 and NaN gives NaN; an x that is not a real number, or a df that is
    not a whole real number, a bool included in both, raises ParameterError.
    """
    if not _is_real(x):
        raise ParameterError(f"statistic must be a real number, got {x!r}")
    if not _is_real(df) or not float(df).is_integer() or df < 1:
        raise ParameterError(f"degrees of freedom must be an integer >= 1, got {df}")
    y = 0.5 * float(x)
    if math.isnan(y):
        return y
    if y <= 0.0:                  # also for the least positive x, which halves to 0
        return 1.0
    if math.isinf(y):
        return 0.0
    df = int(df)
    a = 0.5 * df
    log_y = math.log(y)
    if df > 2 and y < a:
        # Q is near 1 here, where the rounding of the upper sum's terms would
        # carry it past 1 and out of order in x; 1 - P, with the lower series
        # P = sum_k y^(a+k) e^{-y} / Gamma(a+k+1), stays at or below 1
        term = math.exp(a * log_y - y - math.lgamma(a + 1.0))
        terms = [term]
        while term > 1e-17 * terms[0]:
            term *= y / (a + len(terms))
            terms.append(term)
        return 1.0 - math.fsum(terms)
    shift = 0.5 * (df % 2)
    terms = [math.exp((k + shift) * log_y - y - math.lgamma(k + shift + 1.0))
             for k in range(df // 2)]
    if shift:
        terms.append(math.erfc(math.sqrt(y)))
    return math.fsum(terms)


def glrt(
    family,
    data: Dataset,
    constraint: ConstraintSpec,
    config: FitConfig,
    fit_alt: Optional[FitResult] = None,
) -> GlrtResult:
    """Generalized likelihood ratio test of the hypothesis A beta = 0.

    The unconstrained fit may be supplied to avoid refitting; it must have
    been fitted to this data, family and config.smoothing.  The constrained
    fit runs the same Newton configuration on the unconstrained fit's
    smoother, reparametrized to gamma (``ProfileEngine.reparametrized``), so
    its states carry (n, k, d) derivatives, except the trials of its last
    allowed step: only beta_null and the objective are kept, so nothing
    reads their derivative (``differentiate_last=False``).  It starts from
    gamma0 = B beta_hat, the projection of the estimate onto the null space,
    with the local fits warm-started from
    tangent_start(fit_alt.differentiated_state, B' gamma0); beta_null is B'
    gamma_hat.  A constraint on another number of coefficients than the
    data's p raises ParameterError before any fit.
    """
    if constraint.b.shape[1] != data.n_linear:
        raise ParameterError(f"constraint is on {constraint.b.shape[1]} coefficients, "
                             f"but the data has p = {data.n_linear}")
    if fit_alt is None:
        fit_alt = profile_fit(family, data, config)
    engine = fit_alt.engine
    if not (engine.data is data and engine.family == get_family(family)
            and engine.smoothing == config.smoothing):
        raise ParameterError("fit_alt was fitted to other data, family or smoothing "
                             "than given to glrt")
    b = constraint.b
    gamma0 = b @ fit_alt.beta
    warm = engine.tangent_start(fit_alt.differentiated_state, b.T @ gamma0)
    state_null, _, _, _ = _newton_fit(engine.reparametrized(b), config, gamma0, warm=warm,
                                      differentiate_last=False)
    beta_null = b.T @ state_null.beta
    raw = 2.0 * (fit_alt.profile_loglik - state_null.loglik)
    statistic = max(raw, 0.0)
    df = constraint.df
    p_value = chi2_upper_tail(statistic, df)
    signed_root = None
    p_one = None
    if df == 1:
        direction = float((constraint.a @ fit_alt.beta)[0])
        signed_root = float(np.sign(direction) * np.sqrt(statistic))
        # one-sided tail on the side indicated by the point estimate
        p_one = 0.5 * p_value
    return GlrtResult(
        statistic=float(statistic),
        df=df,
        p_value=p_value,
        beta_null=beta_null,
        beta_alt=fit_alt.beta.copy(),
        statistic_raw=float(raw),
        loglik_alt=fit_alt.profile_loglik,
        loglik_null=state_null.loglik,
        signed_root=signed_root,
        p_value_one_sided=p_one,
    )
