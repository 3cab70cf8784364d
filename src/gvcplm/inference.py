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
free of the nuisance curves.  The constrained maximization runs in the
reduced coordinates beta = B' gamma, where B spans the orthogonal complement
of the rows of A.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import linalg as sla
from scipy import special

from .data import Dataset
from .errors import ConditioningError, ParameterError, RankError
from .profile import FitConfig, FitResult, _newton_fit, fit as profile_fit


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


def make_constraint(rows, p_dim: Optional[int] = None) -> ConstraintSpec:
    """Build a ConstraintSpec from user hypothesis rows.

    Rows are orthonormalized without changing their span, so the tested
    hypothesis is unchanged.  Rows that are already orthonormal are kept
    as-is.  Dependent rows raise RankError.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    l, p = rows.shape
    if p_dim is not None and p != p_dim:
        raise ParameterError(f"hypothesis rows have length {p}, expected {p_dim}")
    if l >= p:
        raise ParameterError(
            f"hypothesis has {l} rows but beta has only {p} coordinates"
        )
    if np.linalg.matrix_rank(rows) < l:
        raise RankError("hypothesis rows are linearly dependent")
    gram = rows @ rows.T
    if np.max(np.abs(gram - np.eye(l))) < 1e-12:
        a = rows
    else:
        qmat, rmat = np.linalg.qr(rows.T)
        signs = np.sign(np.diag(rmat))
        signs[signs == 0] = 1.0
        a = (qmat * signs[None, :]).T
    b = sla.null_space(a).T
    return ConstraintSpec(a=a, b=b)


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

    The per-observation scores and the curvature are read from the fit's
    final state at fit_result.beta, on the engine that produced it.
    """
    engine, state = fit_result.engine, fit_result.state
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
    """P(chi2_df > x) via the regularized upper incomplete gamma function."""
    if df < 1:
        raise ParameterError(f"degrees of freedom must be >= 1, got {df}")
    x = max(float(x), 0.0)
    return float(special.gammaincc(df / 2.0, x / 2.0))


def glrt(
    family,
    data: Dataset,
    constraint: ConstraintSpec,
    config: FitConfig,
    fit_alt: Optional[FitResult] = None,
) -> GlrtResult:
    """Generalized likelihood ratio test of the hypothesis A beta = 0.

    The unconstrained fit may be supplied to avoid refitting.  The
    constrained fit runs on the unconstrained fit's engine, starts from the
    projection of its estimate onto the null space, warm-starts the local
    fits from its final local coefficients, and runs the same Newton
    configuration in the reduced coordinates.
    """
    if fit_alt is None:
        fit_alt = profile_fit(family, data, config, curve_grid=False)
    engine = fit_alt.engine
    if engine.smoothing != config.smoothing:
        raise ParameterError("fit_alt was fitted with other smoothing parameters "
                             "than config.smoothing")
    # the null fit must not depend on what ran on this engine before
    engine._warm = fit_alt.state.solution.coefficients
    gamma0 = constraint.b @ fit_alt.beta
    state_null, _, _, _ = _newton_fit(engine, config, gamma0, basis=constraint.b)
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
        beta_null=np.asarray(state_null.beta, dtype=float).copy(),
        beta_alt=fit_alt.beta.copy(),
        statistic_raw=float(raw),
        loglik_alt=fit_alt.profile_loglik,
        loglik_null=state_null.loglik,
        signed_root=signed_root,
        p_value_one_sided=p_one,
    )
