"""Profile quasi-likelihood estimation of the parametric coefficients.

The objective is the quasi-likelihood with the coefficient functions
replaced, at each candidate beta, by their local polynomial fit at every
observation point:

    Qp(beta) = sum_i Q( alpha_hat_beta(u_i)' x_i + z_i' beta, y_i ).

Three damped Newton variants maximize it, differing only in how much of the
curve's dependence on beta they keep:

* ``backfitting``     treats the fitted curve as fixed within each update
                      (its beta-derivative is taken as zero),
* ``accelerated``     keeps the first derivative of the curve both in the
                      gradient and in the Hessian outer-product term, which
                      stays negative definite because q_2 < 0 (the default),
* ``full``            additionally includes the curve's second derivative
                      in the Hessian, obtained by central finite differences
                      of the closed-form first derivative; this is the
                      expensive, occasionally fragile variant.

With the gradient written per observation as

    psi_i = q_1(mhat_i, y_i) * (z_i + alpha_prime(u_i) x_i),

the gradient is sum_i psi_i and the outer-product Hessian term is
sum_i q_2(mhat_i, y_i) (z_i + alpha_prime(u_i) x_i) (same)'.  Every accepted
outer step recomputes the curve, and a step is halved until the objective
does not decrease, so the accepted trace of Qp values is nondecreasing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .data import Dataset
from .dbe import fit_dbe
from .errors import ConditioningError, ParameterError
from .families import get_family
from .smoothing import (
    MAX_HALVINGS,
    CurveEstimate,
    CurveFitter,
    SmoothingParams,
    default_grid,
)

_ALGORITHMS = {
    "backfitting": "backfitting",
    "backfit": "backfitting",
    "accelerated": "accelerated",
    "accel": "accelerated",
    "full": "full",
}
_FD_EPS = 1e-4  # central-difference step for the curve's second derivative


@dataclass(frozen=True)
class FitConfig:
    """Configuration of the outer Newton iteration."""

    smoothing: SmoothingParams
    algorithm: str = "accelerated"
    max_steps: int = 3
    step_tol: float = 1e-6

    def __post_init__(self):
        if self.algorithm not in _ALGORITHMS:
            raise ParameterError(
                f"unknown algorithm {self.algorithm!r}; choose from "
                f"backfitting, accelerated, full"
            )
        object.__setattr__(self, "algorithm", _ALGORITHMS[self.algorithm])
        if self.max_steps < 1:
            raise ParameterError(f"max_steps must be >= 1, got {self.max_steps}")
        if not self.step_tol > 0:
            raise ParameterError(f"step_tol must be positive, got {self.step_tol}")


@dataclass(frozen=True)
class FitResult:
    """Converged (or capped) profile fit.

    fitted is the (n,) linear predictor at beta.  The result also carries the
    engine and the final state that produced it, so inference at beta reuses
    the fit's smoother instead of rebuilding it.  Both pin O(n^2) arrays:
    code that needs only beta should keep beta and drop the result.
    """

    beta: np.ndarray
    curve: Optional[CurveEstimate]
    profile_loglik: float
    trace: tuple          # per accepted step: (step norm, objective value)
    converged: bool
    algorithm_used: str
    n_steps: int
    fitted: np.ndarray
    engine: ProfileEngine = field(repr=False, compare=False)
    state: _State = field(repr=False, compare=False)


class _State:
    """Curve fit and derived quantities at one beta."""

    __slots__ = ("beta", "offsets", "solution", "fitted", "loglik", "_alpha_prime")

    def __init__(self, beta, offsets, solution, fitted, loglik):
        self.beta = beta
        self.offsets = offsets
        self.solution = solution
        self.fitted = fitted
        self.loglik = loglik
        self._alpha_prime = None


class ProfileEngine:
    """Caches the per-observation smoothing machinery across beta values."""

    def __init__(self, family, data: Dataset, smoothing: SmoothingParams):
        self.family = get_family(family)
        data.validate_response(self.family)
        self.data = data
        self.smoothing = smoothing
        self.fitter = CurveFitter(
            self.family, data.x, data.y, data.u, smoothing, points=data.u
        )
        self._warm = None

    def state(self, beta) -> _State:
        beta = np.asarray(beta, dtype=float)
        offsets = self.data.z @ beta
        sol = self.fitter.solve(offsets, warm=self._warm)
        self._warm = sol.coefficients
        a0 = sol.coefficients[:, : self.data.n_curves]
        fitted = np.einsum("iq,iq->i", a0, self.data.x) + offsets
        loglik = float(np.sum(self.family.quasi_loglik(fitted, self.data.y)))
        return _State(beta, offsets, sol, fitted, loglik)

    def alpha_prime(self, state: _State) -> np.ndarray:
        """(n, p, q) derivative of the fitted curve at each observation."""
        if state._alpha_prime is None:
            state._alpha_prime = self.fitter.alpha_prime(state.solution, self.data.z)
        return state._alpha_prime

    def effective_covariates(self, state: _State, algorithm: str) -> np.ndarray:
        """z_i + alpha_prime(u_i) x_i, or plain z for backfitting."""
        if algorithm == "backfitting":
            return self.data.z
        ap = self.alpha_prime(state)
        return self.data.z + np.einsum("ipq,iq->ip", ap, self.data.x)

    def score_vectors(self, state: _State, algorithm: str = "accelerated") -> np.ndarray:
        """Per-observation profile score contributions psi_i, shape (n, p)."""
        q1 = self.family.q(1, state.fitted, self.data.y)
        return self.effective_covariates(state, algorithm) * q1[:, None]

    def gradient(self, state: _State, algorithm: str = "accelerated") -> np.ndarray:
        return self.score_vectors(state, algorithm).sum(axis=0)

    def hessian(self, state: _State, algorithm: str = "accelerated") -> np.ndarray:
        q2 = self.family.q(2, state.fitted, self.data.y)
        eff = self.effective_covariates(state, algorithm)
        hess = (eff * q2[:, None]).T @ eff
        if algorithm == "full":
            hess = hess + self._curve_curvature_term(state)
        return hess

    def _curve_curvature_term(self, state: _State) -> np.ndarray:
        """Finite-difference estimate of the Hessian term carrying the
        curve's second derivative in beta.

        Each coordinate costs two full curve refits plus two closed-form
        derivative evaluations, which is what makes the full variant slow.
        """
        p = self.data.n_linear
        q1 = self.family.q(1, state.fitted, self.data.y)
        term = np.empty((p, p))
        warm_center = state.solution.coefficients
        for j in range(p):
            shift = np.zeros(p)
            shift[j] = _FD_EPS
            self._warm = warm_center
            ap_plus = self.alpha_prime(self.state(state.beta + shift))
            self._warm = warm_center
            ap_minus = self.alpha_prime(self.state(state.beta - shift))
            dj = (ap_plus - ap_minus) / (2.0 * _FD_EPS)   # (n, p, q)
            term[j] = np.einsum("i,ikr,ir->k", q1, dj, self.data.x)
        self._warm = warm_center
        return 0.5 * (term + term.T)


def _solve_descent(hess: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Newton step -H^{-1} g for a negative-definite H, ridging if needed."""
    neg = -hess
    scale = max(float(np.max(np.diag(neg))), 1e-300)
    ev = np.linalg.eigvalsh(neg)
    for lam in (0.0, 1e-10, 1e-8, 1e-6):
        lo, hi = ev[0] + lam * scale, ev[-1] + lam * scale
        if lo <= 0 or hi > 1e12 * max(lo, 1e-300):
            continue
        return np.linalg.solve(neg + lam * scale * np.eye(neg.shape[0]), grad)
    raise ConditioningError(
        "profile Hessian is not usable even after ridge escalation "
        f"(eigenvalue range {ev[0]:.3e} .. {ev[-1]:.3e})"
    )


def _newton_fit(engine: ProfileEngine, config: FitConfig, init, basis=None):
    """Damped Newton ascent of the profile objective.

    With ``basis`` B (rows orthonormal), the iteration runs in the reduced
    coordinates gamma with beta = B' gamma, which is how linear null
    hypotheses are fitted.

    Returns (final state, trace, converged flag, accepted step count).
    """
    if basis is None:
        current = np.asarray(init, dtype=float).copy()
        to_beta = lambda v: v
    else:
        basis = np.asarray(basis, dtype=float)
        current = np.asarray(init, dtype=float).copy()
        to_beta = lambda v: basis.T @ v
    state = engine.state(to_beta(current))
    trace = [(0.0, state.loglik)]
    converged = False
    n_steps = 0
    for _ in range(config.max_steps):
        grad = engine.gradient(state, config.algorithm)
        hess = engine.hessian(state, config.algorithm)
        if basis is not None:
            grad = basis @ grad
            hess = basis @ hess @ basis.T
        step = _solve_descent(hess, grad)
        scale = 1.0
        accepted = None
        for _ in range(MAX_HALVINGS + 1):
            candidate = current + scale * step
            trial = engine.state(to_beta(candidate))
            if trial.loglik >= state.loglik - 1e-9 * (1.0 + abs(state.loglik)):
                accepted = (candidate, trial)
                break
            scale *= 0.5
        if accepted is None:
            # no ascent direction survived the halvings; keep the best iterate
            break
        step_norm = float(np.linalg.norm(scale * step))
        current, state = accepted
        n_steps += 1
        trace.append((step_norm, state.loglik))
        if step_norm < config.step_tol * (1.0 + float(np.linalg.norm(current))):
            converged = True
            break
    return state, tuple(trace), converged, n_steps


def profile_objective(family, data: Dataset, beta, smoothing: SmoothingParams) -> float:
    """Profile quasi-likelihood at beta (curves refitted at every call)."""
    engine = ProfileEngine(family, data, smoothing)
    return engine.state(beta).loglik


def profile_gradient(family, data: Dataset, beta, smoothing: SmoothingParams) -> np.ndarray:
    """Gradient of the profile objective, using the closed-form curve derivative."""
    engine = ProfileEngine(family, data, smoothing)
    return engine.gradient(engine.state(beta))


def modified_hessian(family, data: Dataset, beta, smoothing: SmoothingParams) -> np.ndarray:
    """Outer-product curvature sum_i q2_i (z_i + alpha'x_i)(z_i + alpha'x_i)'.

    This drops the term carrying the curve's second derivative; q_2 < 0 makes
    it negative definite, which is asserted before returning.
    """
    engine = ProfileEngine(family, data, smoothing)
    hess = engine.hessian(engine.state(beta), "accelerated")
    ev = np.linalg.eigvalsh(hess)
    if ev[-1] >= 0:
        raise ConditioningError(
            f"modified Hessian is not negative definite (max eigenvalue {ev[-1]:.3e})"
        )
    return hess


def fit(
    family,
    data: Dataset,
    config: FitConfig,
    init=None,
    curve_grid=None,
    with_dbeta: bool = False,
) -> FitResult:
    """Maximize the profile quasi-likelihood over beta.

    init defaults to the difference-based estimate.  curve_grid selects the
    display grid for the fitted coefficient functions: None for the default
    200-point grid, an integer for an equally spaced grid of that size, an
    array for explicit points, or False to skip curve evaluation.
    """
    fam = get_family(family)
    engine = ProfileEngine(fam, data, config.smoothing)
    if init is None:
        init = fit_dbe(fam, data, config.smoothing.delta).beta0
    state, trace, converged, n_steps = _newton_fit(engine, config, init)

    curve = None
    if curve_grid is not False:
        if curve_grid is None:
            grid = default_grid(data)
        elif np.isscalar(curve_grid):
            grid = default_grid(data, int(curve_grid))
        else:
            grid = np.asarray(curve_grid, dtype=float)
        grid_fitter = CurveFitter(fam, data.x, data.y, data.u, config.smoothing, grid)
        sol = grid_fitter.solve(state.offsets)
        dbeta = grid_fitter.alpha_prime(sol, data.z) if with_dbeta else None
        curve = CurveEstimate(grid=grid, values=grid_fitter.curve_values(sol).copy(),
                              dbeta=dbeta)
    return FitResult(
        beta=state.beta.copy(),
        curve=curve,
        profile_loglik=state.loglik,
        trace=trace,
        converged=converged,
        algorithm_used=config.algorithm,
        n_steps=n_steps,
        fitted=state.fitted,
        engine=engine,
        state=state,
    )
