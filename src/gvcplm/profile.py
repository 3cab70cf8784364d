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

Each trial's local fits, halvings included, start from the accepted iterate:
``accelerated`` and ``full`` from its tangent prediction (predictor-corrector
continuation), since their gradient already holds every local coefficient's
beta-derivative, and ``backfitting`` from its local coefficients.

``ProfileEngine`` builds the smoother of one dataset once.  The objective,
its gradient and the accelerated Hessian at any beta are then
``state(beta, differentiate=False).loglik``, ``gradient(state(beta))`` and
``hessian(state(beta), "accelerated")``.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .data import Dataset
from .dbe import fit_dbe
from .errors import ConditioningError, ParameterError, SingularityError
from .families import get_family
from .smoothing import (
    MAX_HALVINGS,
    BatchSolution,
    CurveFitter,
    SmoothingParams,
    _ridged_solve,
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
    """Converged (or capped) profile fit: the estimate of beta, not of the
    coefficient functions on a display grid (``fit_curve`` at beta).

    fitted is the (n,) linear predictor at beta.  The result also carries the
    engine and the final state that produced it, so inference at beta reuses
    the fit's smoother instead of rebuilding it (the GLRT null fit starts its
    local fits from the state's tangent_start).  The engine pins O(n*w)
    arrays, w the kernel window width: its fitter holds the kernel weights of
    each group of tiles, at most n (w + 32) values in all.  The state pins
    the (n, p, d) derivative of the local coefficients, except after a
    backfitting fit, whose states are not differentiated; inference reads
    ``differentiated_state`` instead.  Code that needs only beta should drop
    the result.
    """

    beta: np.ndarray
    profile_loglik: float
    trace: tuple          # per accepted step: (step norm, objective value)
    converged: bool
    algorithm_used: str
    n_steps: int
    fitted: np.ndarray
    engine: ProfileEngine = field(repr=False, compare=False)
    state: _State = field(repr=False, compare=False)

    @functools.cached_property
    def differentiated_state(self) -> _State:
        """The final state with its derivative: the state itself, or, after a
        backfitting fit, its one re-solve (``ProfileEngine.differentiated``),
        made on first use and kept for every later reader."""
        return self.engine.differentiated(self.state)


@dataclass(frozen=True, eq=False, slots=True)
class _State:
    """Curve fit and derived quantities at one beta (q1, q2 at fitted).

    solution.derivative is the (n, p, d) beta-derivative of the local
    coefficients, or None for a state evaluated without it
    (``ProfileEngine.state``).
    """

    beta: np.ndarray
    solution: BatchSolution
    fitted: np.ndarray
    loglik: float
    q1: np.ndarray
    q2: np.ndarray


class ProfileEngine:
    """The smoothing machinery of (family, data, smoothing), built once and
    reused across beta values.  It keeps nothing between calls: a state
    depends on beta and the warm start passed with it, not on call history."""

    def __init__(self, family, data: Dataset, smoothing: SmoothingParams):
        self.family = get_family(family)
        data.validate_response(self.family)
        self.data = data
        self.smoothing = smoothing
        self.fitter = CurveFitter(
            self.family, data.x, data.y, data.u, smoothing, points=data.u
        )

    def with_delta(self, delta) -> ProfileEngine:
        """Engine for offset delta sharing this one's bands (same h)."""
        other = copy.copy(self)
        other.fitter = self.fitter.with_delta(delta)
        other.smoothing = other.fitter.smoothing
        return other

    def state(self, beta, warm=None, differentiate=True) -> _State:
        """Profile state at beta; the local fits start from warm, (m, d)
        coefficients such as tangent_start's, or cold when warm is None.
        With differentiate the solve also returns the local coefficients'
        beta-derivative, which alpha_prime and tangent_start read; the
        backfitting ascent and the bare objective go without it."""
        beta = np.asarray(beta, dtype=float)
        offsets = self.data.z @ beta
        sol = self.fitter.solve(offsets, warm=warm, z=self.data.z if differentiate else None)
        a0 = sol.coefficients[:, : self.data.n_curves]
        fitted = np.einsum("iq,iq->i", a0, self.data.x) + offsets
        q, q1, q2 = self.family.q012(fitted, self.data.y)
        return _State(beta, sol, fitted, float(np.sum(q)), q1, q2)

    def differentiated(self, state: _State) -> _State:
        """state when it has its derivative; otherwise (a backfitting fit's
        state) the state re-solved at its beta from its own local
        coefficients, with the derivative."""
        if state.solution.derivative is not None:
            return state
        return self.state(state.beta, state.solution.coefficients)

    def alpha_prime(self, state: _State) -> np.ndarray:
        """(n, p, q) derivative of the fitted curve at each observation."""
        return self.fitter.alpha_prime(state.solution)

    def tangent_start(self, near: _State, beta) -> np.ndarray:
        """Local coefficients at beta predicted to first order from the
        differentiated state near; depends on (near, beta) only."""
        move = np.asarray(beta, dtype=float) - near.beta
        return near.solution.coefficients + np.einsum(
            "epd,p->ed", near.solution.derivative, move)

    def effective_covariates(self, state: _State, algorithm: str) -> np.ndarray:
        """z_i + alpha_prime(u_i) x_i, or plain z for backfitting."""
        if algorithm == "backfitting":
            return self.data.z
        ap = self.alpha_prime(state)
        return self.data.z + np.einsum("ipq,iq->ip", ap, self.data.x)

    def score_vectors(self, state: _State, algorithm: str = "accelerated") -> np.ndarray:
        """Per-observation profile score contributions psi_i, shape (n, p)."""
        return self.effective_covariates(state, algorithm) * state.q1[:, None]

    def gradient(self, state: _State, algorithm: str = "accelerated") -> np.ndarray:
        return self.score_vectors(state, algorithm).sum(axis=0)

    def hessian(self, state: _State, algorithm: str = "accelerated") -> np.ndarray:
        eff = self.effective_covariates(state, algorithm)
        hess = (eff * state.q2[:, None]).T @ eff
        if algorithm == "full":
            hess = hess + self._curve_curvature_term(state)
        return hess

    def _curve_curvature_term(self, state: _State) -> np.ndarray:
        """Finite-difference estimate of the Hessian term carrying the
        curve's second derivative in beta.

        Each coordinate costs two full curve refits, both warm-started from
        the centre's local coefficients, plus two closed-form derivative
        evaluations, which is what makes the full variant slow.
        """
        p = self.data.n_linear
        term = np.empty((p, p))
        warm = state.solution.coefficients
        for j in range(p):
            shift = np.zeros(p)
            shift[j] = _FD_EPS
            ap_plus = self.alpha_prime(self.state(state.beta + shift, warm))
            ap_minus = self.alpha_prime(self.state(state.beta - shift, warm))
            dj = (ap_plus - ap_minus) / (2.0 * _FD_EPS)   # (n, p, q)
            term[j] = np.einsum("i,ikr,ir->k", state.q1, dj, self.data.x)
        return 0.5 * (term + term.T)


def _solve_descent(hess: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Newton step -H^{-1} g for a negative-definite H, ridging if needed."""
    try:
        return _ridged_solve(-hess[None], grad[None], "profile Hessian")[0]
    except SingularityError as exc:
        raise ConditioningError("profile Hessian is not negative definite, or stays "
                                "ill-conditioned after ridge escalation") from exc


def _newton_fit(engine: ProfileEngine, config: FitConfig, init, basis=None, warm=None):
    """Damped Newton ascent of the profile objective.

    With ``basis`` B (rows orthonormal), the iteration runs in the reduced
    coordinates gamma with beta = B' gamma, which is how linear null
    hypotheses are fitted.  The first state's local fits start from warm (cold
    when None), every trial's from the accepted iterate (module docstring).
    Every state is differentiated, except in the backfitting ascent, which
    never reads the curve's derivative.

    Returns (final state, trace, converged flag, accepted step count).
    """
    current = np.asarray(init, dtype=float).copy()
    if basis is None:
        to_beta = lambda v: v
    else:
        basis = np.asarray(basis, dtype=float)
        to_beta = lambda v: basis.T @ v
    differentiate = config.algorithm != "backfitting"
    state = engine.state(to_beta(current), warm, differentiate)
    trace = [(0.0, state.loglik)]
    converged = False
    for _ in range(config.max_steps):
        grad = engine.gradient(state, config.algorithm)
        hess = engine.hessian(state, config.algorithm)
        if basis is not None:
            grad = basis @ grad
            hess = basis @ hess @ basis.T
        step = _solve_descent(hess, grad)
        scale = 1.0
        for _ in range(MAX_HALVINGS + 1):
            candidate = current + scale * step
            beta = to_beta(candidate)
            trial = engine.state(beta, engine.tangent_start(state, beta)
                                 if differentiate else state.solution.coefficients,
                                 differentiate)
            if trial.loglik >= state.loglik - 1e-9 * (1.0 + abs(state.loglik)):
                break
            scale *= 0.5
        else:
            break  # no ascent direction survived the halvings; keep the best iterate
        step_norm = float(np.linalg.norm(scale * step))
        current, state = candidate, trial
        trace.append((step_norm, state.loglik))
        if step_norm < config.step_tol * (1.0 + float(np.linalg.norm(current))):
            converged = True
            break
    return state, tuple(trace), converged, len(trace) - 1


def fit(
    family,
    data: Dataset,
    config: FitConfig,
    init=None,
    engine: Optional[ProfileEngine] = None,
) -> FitResult:
    """Maximize the profile quasi-likelihood over beta.

    init defaults to the difference-based estimate.  engine, a ProfileEngine
    for (family, data, config.smoothing), is reused; the local fits still
    start cold, so the result is the one a new engine gives.  The coefficient
    functions on a display grid are a separate fit: ``fit_curve`` at the
    returned beta.
    """
    fam = get_family(family)
    if engine is None:
        engine = ProfileEngine(fam, data, config.smoothing)
    elif not (engine.data is data and engine.family == fam
              and engine.smoothing == config.smoothing):
        raise ParameterError("engine was built for other data, family or smoothing")
    if init is None:
        init = fit_dbe(fam, data, config.smoothing.delta).beta0
    state, trace, converged, n_steps = _newton_fit(engine, config, init)
    return FitResult(
        beta=state.beta.copy(),
        profile_loglik=state.loglik,
        trace=trace,
        converged=converged,
        algorithm_used=config.algorithm,
        n_steps=n_steps,
        fitted=state.fitted,
        engine=engine,
        state=state,
    )
