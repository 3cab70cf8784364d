"""Local polynomial quasi-likelihood fitting of the coefficient functions.

For a fixed parametric vector beta, the coefficient functions alpha(.) are
estimated at a point u by maximizing the kernel-weighted quasi-likelihood of
the polynomial expansion

    sum_i Q( sum_r a_r' x_i (u_i - u)^r / r!  +  z_i' beta, y_i ) K_h(u_i - u)

over the coefficient blocks a_0 .. a_p.  The maximizer's leading block a_0 is
the fitted curve value at u.

The solver is batched: all evaluation points are advanced together through a
damped Newton iteration on stacked per-point problems.  Concavity of the
local objective (q_2 < 0) makes the maximizer unique, so batching changes
cost, not results.  ``CurveFitter`` precomputes the kernel weights and the
polynomial design tensor once per (data, bandwidth, points) triple; repeated
solves at nearby beta values (the inner loop of profile estimation) then
reuse them and warm-start from nearby coefficients.

The kernel has compact support, so only observations with
|u_i - u| <= support_radius * h carry weight at u.  With the observations
sorted by u, that window is a contiguous band.  ``CurveFitter`` stores, per
evaluation point, the band's observation indices, kernel weights and design
columns, padded to the widest band w: O(m w) memory and work for m points
instead of O(m n).  Padding entries get a kernel weight of exactly zero, so
the estimator is the one defined by the full kernel sums above.

``CurveFitter.coefficient_derivative`` returns the derivative of the local
coefficients with respect to beta, obtained in closed form by differentiating
the local score equation: with W the kernel weights, D the local design and
q2 the local curvature that ``solve`` returns, evaluated at the local fitted
values,

    d a / d beta' = -[sum_i q2_i D_i D_i' W_i]^{-1} [sum_i q2_i D_i z_i' W_i],

summed over each window as a contiguous run of the u-sorted rows of z.  Its
leading q rows (``alpha_prime``) give d alpha(u) / d beta, which the profile
gradient and Hessian need; all rows predict the local fit at a nearby beta.
For degree 0 this is the familiar ratio of kernel-weighted moment matrices;
for degree >= 1 it is the exact implicit derivative of the implemented fit.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np

from .data import Dataset
from .errors import EffectiveSampleError, ParameterError, SingularityError
from .families import FamilySpec, get_family
from .kernels import EPANECHNIKOV, KernelSpec, kernel_weight

MAX_LOCAL_ITERS = 50
LOCAL_TOL = 1e-8
MAX_HALVINGS = 20
_RIDGE_LADDER = (0.0, 1e-10, 1e-8, 1e-6)
_CONDITION_LIMIT = 1e12
DEFAULT_GRID_SIZE = 200


@dataclass(frozen=True)
class SmoothingParams:
    """Smoothing configuration: bandwidth, transform offset, kernel, degree."""

    h: float
    delta: Optional[float] = None
    kernel: KernelSpec = EPANECHNIKOV
    degree: int = 1

    def __post_init__(self):
        if not self.h > 0:
            raise ParameterError(f"bandwidth must be positive, got {self.h}")
        if self.degree < 0:
            raise ParameterError(f"polynomial degree must be >= 0, got {self.degree}")
        if self.delta is not None and not self.delta > 0:
            raise ParameterError(f"offset delta must be positive, got {self.delta}")


@dataclass(frozen=True)
class LocalFit:
    """Solution of one local polynomial problem.

    a0 is the fitted coefficient-function value; higher_coefs stacks the
    derivative blocks a_1 .. a_p (already including the 1/r! scaling of the
    design, so row r estimates the r-th derivative of alpha at u).
    """

    a0: np.ndarray
    higher_coefs: np.ndarray
    converged: bool
    newton_iters: int

    @property
    def coefficients(self) -> np.ndarray:
        return np.concatenate([self.a0, self.higher_coefs.ravel()])


@dataclass(frozen=True)
class CurveEstimate:
    """Fitted coefficient functions on a grid.

    values[k] is alpha_hat(grid[k]) (length q); dbeta, when present, stacks
    the (p x q) derivative of the fitted curve with respect to beta at each
    grid point.
    """

    grid: np.ndarray
    values: np.ndarray
    dbeta: Optional[np.ndarray] = None


class BatchSolution(NamedTuple):
    coefficients: np.ndarray      # (m, d)
    curvature: np.ndarray         # (m, w) q_2 at the local fitted predictors
    gradient_norm: np.ndarray     # (m,)
    converged: np.ndarray         # (m,) bool
    iterations: np.ndarray        # (m,) int


def _ridged_solve(mats: np.ndarray, rhs: np.ndarray, context: str) -> np.ndarray:
    """Solve batched SPD systems, escalating a relative ridge when needed.

    mats has shape (m, d, d) and is expected symmetric positive definite;
    rhs is (m, d) or (m, d, r).  Raises SingularityError when the ridge
    ladder cannot bring the condition number under the limit.
    """
    mats = np.ascontiguousarray(mats)
    d = mats.shape[-1]
    eye = np.eye(d)
    scale = np.maximum(mats.diagonal(axis1=-2, axis2=-1).max(axis=-1), 1e-300)
    lam = np.zeros(mats.shape[0])
    for step, next_lam in enumerate(_RIDGE_LADDER):
        ridged = mats + (lam * scale)[:, None, None] * eye
        ev = np.linalg.eigvalsh(ridged)
        bad = (ev[:, 0] <= 0) | (
            ev[:, -1] > _CONDITION_LIMIT * np.maximum(ev[:, 0], 1e-300)
        )
        if not bad.any():
            break
        if step == len(_RIDGE_LADDER) - 1:
            worst = int(np.flatnonzero(bad)[0])
            raise SingularityError(
                f"{context}: information matrix at point index {worst} stayed "
                f"ill-conditioned after ridge escalation"
            )
        lam[bad] = _RIDGE_LADDER[step + 1]
    else:  # pragma: no cover - ladder always breaks or raises
        ridged = mats + (lam * scale)[:, None, None] * eye
    if rhs.ndim == mats.ndim - 1:
        return np.linalg.solve(ridged, rhs[..., None])[..., 0]
    return np.linalg.solve(ridged, rhs)


def _kernel_windows(u: np.ndarray, points: np.ndarray, reach: float):
    """Each point's kernel window as a run of the u-sorted observations.

    Returns (order, start, w): order sorts u (stable), and point e's window
    order[start[e] : start[e] + w] holds the observations with
    |u_i - points[e]| <= reach, padded with neighbours to the widest window
    w (start is clamped to n - w).  The search is widened by a relative 1e-9,
    so every observation whose kernel weight is nonzero is inside.
    """
    order = np.argsort(u, kind="stable")
    sorted_u = u[order]
    n = sorted_u.size
    reach = reach + 1e-9 * (reach + np.abs(points))
    lo = np.searchsorted(sorted_u, points - reach, side="left")
    hi = np.searchsorted(sorted_u, points + reach, side="right")
    w = int((hi - lo).max(initial=0))
    return order, np.minimum(lo, n - w), w


class CurveFitter:
    """Batched local polynomial quasi-likelihood solver at fixed points.

    The constructor finds each point's kernel window, a band of w
    observations that holds every nonzero kernel weight, and stores the
    band's indices ``index`` (m, w) (rows order[start : start + w]), kernel
    ``weights`` (m, w), responses and polynomial ``design`` (m, d, w).  solve() then runs the damped Newton
    iteration for a given offset vector (z_i' beta) over the bands only.  One
    instance is reused for every beta the profile optimizer visits.
    """

    def __init__(self, family: FamilySpec, x, y, u, smoothing: SmoothingParams, points):
        self.family = get_family(family)
        self.smoothing = smoothing
        self.x = np.asarray(x, dtype=float)
        self.y = np.asarray(y, dtype=float)
        u = np.asarray(u, dtype=float)
        self.points = np.atleast_1d(np.asarray(points, dtype=float))
        q = self.x.shape[1]
        m = self.points.shape[0]
        degree = smoothing.degree
        self.n_curves = q
        self.n_coef = (degree + 1) * q

        self.order, self.start, w = _kernel_windows(
            u, self.points, smoothing.kernel.support_radius * smoothing.h
        )
        self.index = self.order[self.start[:, None] + np.arange(w)]
        t = u[self.index] - self.points[:, None]                   # (m, w)
        self.weights = kernel_weight(smoothing.kernel, t, smoothing.h)
        counts = np.count_nonzero(self.weights, axis=1)
        if np.any(counts < self.n_coef):
            k = int(np.argmin(counts))
            raise EffectiveSampleError(
                f"only {counts[k]} observations carry kernel weight at "
                f"u = {self.points[k]:.6g}; need at least {self.n_coef} "
                f"(bandwidth {smoothing.h} too small)"
            )
        self.y_local = self.y[self.index]
        powers = np.ones((m, degree + 1, w))
        for r in range(1, degree + 1):
            powers[:, r] = powers[:, r - 1] * t / r
        # design[e, r*q + j, k] = (u_i - u_e)^r / r! * x_ij with i = index[e, k]
        x_local = np.moveaxis(self.x[self.index], 2, 1)           # (m, q, w)
        self.design = (powers[:, :, None, :] * x_local[:, None, :, :]).reshape(
            m, self.n_coef, w
        )

    def with_delta(self, delta) -> CurveFitter:
        """Copy sharing the bands; delta enters only initial_coefficients."""
        other = copy.copy(self)
        other.smoothing = replace(self.smoothing, delta=delta)
        return other

    # -- elementary pieces -------------------------------------------------

    def _linpred(self, coefs, offsets, rows=slice(None)):
        """Local predictors (rows, w) from local offsets (rows, w)."""
        return np.einsum("edi,ed->ei", self.design[rows], coefs) + offsets

    def _objectives(self, linpred, rows=slice(None)):
        """Local objectives (rows,) with q_1 and q_2 (rows, w), one family pass."""
        q, q1, q2 = self.family.q012(linpred, self.y_local[rows])
        return np.einsum("ei,ei->e", self.weights[rows], q), q1, q2

    def _weighted_gram(self, weights, rows=slice(None)):
        """sum_i weights_ei D_ei D_ei' per point, shape (rows, d, d)."""
        design = self.design[rows]
        return (design * weights[:, None, :]) @ np.swapaxes(design, 1, 2)

    def initial_coefficients(self, offsets) -> np.ndarray:
        """Weighted least squares on the transformed response (cold start)."""
        fam = self.family
        if fam.needs_delta and self.smoothing.delta is None:
            raise ParameterError(
                f"smoothing delta is required for the {fam.name} family"
            )
        gy = fam.transform(self.y, self.smoothing.delta)
        resid = (gy - offsets)[self.index]
        mats = self._weighted_gram(self.weights)
        rhs = np.einsum("edi,ei->ed", self.design, self.weights * resid)
        return _ridged_solve(mats, rhs, "local initializer")

    # -- Newton iteration ---------------------------------------------------

    def solve(self, offsets, warm=None, one_step: bool = False) -> BatchSolution:
        """Maximize every local objective for the given offsets.

        Each trial predictor gets one family pass (``_objectives``); an
        accepted trial's q_1 and q_2 serve the next iterate, and the last q_2
        is returned as the curvature.  Bands are views until a point converges
        or stalls; then only active rows are gathered.

        Args:
            offsets: z_i' beta per observation, shape (n,).
            warm: optional (m, d) starting coefficients.
            one_step: stop after a single damped Newton update.
        """
        offsets = np.asarray(offsets, dtype=float)
        w, G = self.weights, self.design
        coefs = np.array(warm, dtype=float, copy=True) if warm is not None \
            else self.initial_coefficients(offsets)
        offsets = offsets[self.index]
        obj, q1, q2 = self._objectives(self._linpred(coefs, offsets))
        curvature = q2

        m = coefs.shape[0]
        converged = np.zeros(m, dtype=bool)
        iters = np.zeros(m, dtype=int)
        gnorm = np.full(m, np.inf)
        active = np.arange(m)
        budget = 1 if one_step else MAX_LOCAL_ITERS

        while True:
            # q1 and q2 hold the active rows
            sel = slice(None) if active.size == m else active
            grad = np.einsum("ei,edi->ed", w[sel] * q1, G[sel])
            gn = np.abs(grad).max(axis=1)
            gnorm[sel] = gn
            done = gn < LOCAL_TOL
            converged[active[done]] = True
            if done.any():
                active, grad, q2 = active[~done], grad[~done], q2[~done]
                sel = active
            if active.size == 0 or iters[sel].min() >= budget:
                # points that exhausted the budget stay converged=False
                break

            hess = self._weighted_gram(w[sel] * q2, rows=sel)
            step = _ridged_solve(-hess, grad, "local Newton")

            lam = np.ones(active.size)
            trial_c = coefs[sel] + step
            trial_obj, trial_q1, trial_q2 = self._objectives(
                self._linpred(trial_c, offsets[sel], rows=sel), rows=sel)
            tol_obj = 1e-10 * (1.0 + np.abs(obj[sel]))
            bad = ~(trial_obj >= obj[sel] - tol_obj)   # a NaN objective is no ascent
            for _ in range(MAX_HALVINGS):
                if not bad.any():
                    break
                lam[bad] *= 0.5
                rows = active[bad]
                trial_c[bad] = coefs[rows] + lam[bad, None] * step[bad]
                trial_obj[bad], trial_q1[bad], trial_q2[bad] = self._objectives(
                    self._linpred(trial_c[bad], offsets[rows], rows=rows), rows=rows)
                bad = ~(trial_obj >= obj[sel] - tol_obj)
            if bad.any():
                # stalled points (no ascent after max halvings) are abandoned
                active, trial_c, trial_obj, trial_q1, trial_q2 = (a[~bad] for a in (
                    active, trial_c, trial_obj, trial_q1, trial_q2))
                sel = active
            coefs[sel], obj[sel] = trial_c, trial_obj
            if active.size == m:   # rebound, not copied: frees the last q_2
                curvature = trial_q2
            else:
                curvature[sel] = trial_q2
            q1, q2 = trial_q1, trial_q2
            iters[sel] += 1

        return BatchSolution(coefs, curvature, gnorm, converged, iters)

    # -- derived quantities ---------------------------------------------------

    def curve_values(self, solution: BatchSolution) -> np.ndarray:
        """alpha_hat at each evaluation point, shape (m, q)."""
        return solution.coefficients[:, : self.n_curves]

    def coefficient_derivative(self, solution: BatchSolution, z) -> np.ndarray:
        """Derivative of every local coefficient with respect to beta, (m, p, d).

        Entry [e, j, k] is d a_k(points[e]) / d beta_j, the closed-form
        implicit derivative -S1^{-1} S2 of the local score equation with the
        solution's curvature q2 (no family evaluation).  S2 is built point by
        point from the window's contiguous slice of the u-sorted z, a view,
        so no rows of z are gathered.
        """
        zs = np.asarray(z, dtype=float)[self.order]
        wq2_design = self.design * (self.weights * solution.curvature)[:, None, :]
        s1 = -(wq2_design @ np.swapaxes(self.design, 1, 2))
        s2 = np.empty(s1.shape[:2] + (zs.shape[1],))
        w = self.design.shape[2]
        for rows, s, out in zip(wq2_design, self.start.tolist(), s2):
            np.dot(rows, zs[s:s + w], out=out)   # out=: no temporary per point
        return np.swapaxes(_ridged_solve(s1, s2, "curve derivative"), 1, 2)

    def alpha_prime(self, solution: BatchSolution, z) -> np.ndarray:
        """(m, p, q) derivative of the fitted curve with respect to beta: the
        leading q coefficients of coefficient_derivative."""
        return self.coefficient_derivative(solution, z)[:, :, : self.n_curves]


# ---------------------------------------------------------------------------
# convenience wrappers


def _offsets(data: Dataset, beta) -> np.ndarray:
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (data.n_linear,):
        raise ParameterError(
            f"beta has shape {beta.shape}, expected ({data.n_linear},)"
        )
    if not np.all(np.isfinite(beta)):
        raise ParameterError("beta must be finite")
    return data.z @ beta


def fit_local(
    family,
    data: Dataset,
    beta,
    u: float,
    smoothing: SmoothingParams,
    warm_start: Optional[LocalFit] = None,
) -> LocalFit:
    """Fit the local polynomial coefficients at a single point u."""
    fam = get_family(family)
    data.validate_response(fam)
    fitter = CurveFitter(fam, data.x, data.y, data.u, smoothing, [u])
    warm = None
    if warm_start is not None:
        warm = warm_start.coefficients[None, :]
    sol = fitter.solve(_offsets(data, beta), warm=warm)
    q = data.n_curves
    return LocalFit(
        a0=sol.coefficients[0, :q].copy(),
        higher_coefs=sol.coefficients[0, q:].reshape(smoothing.degree, q).copy(),
        converged=bool(sol.converged[0]),
        newton_iters=int(sol.iterations[0]),
    )


def default_grid(data: Dataset, size: int = DEFAULT_GRID_SIZE) -> np.ndarray:
    return np.linspace(data.u.min(), data.u.max(), size)


def fit_curve(
    family,
    data: Dataset,
    beta,
    smoothing: SmoothingParams,
    grid=None,
    one_step: bool = False,
    with_dbeta: bool = False,
) -> CurveEstimate:
    """Fit the coefficient functions on a grid for fixed beta.

    grid defaults to 200 equally spaced points spanning the observed u
    range.  With one_step=True each point takes a single damped Newton step
    from the transformed-response least squares start instead of iterating
    to convergence.
    """
    fam = get_family(family)
    data.validate_response(fam)
    if grid is None:
        grid = default_grid(data)
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    fitter = CurveFitter(fam, data.x, data.y, data.u, smoothing, grid)
    sol = fitter.solve(_offsets(data, beta), one_step=one_step)
    dbeta = fitter.alpha_prime(sol, data.z) if with_dbeta else None
    return CurveEstimate(grid=grid, values=fitter.curve_values(sol).copy(), dbeta=dbeta)


def estimate_alpha_prime(
    family,
    data: Dataset,
    beta,
    u: float,
    smoothing: SmoothingParams,
    local_fit: Optional[LocalFit] = None,
) -> np.ndarray:
    """Closed-form derivative of the fitted curve at u with respect to beta.

    Returns a (p, q) matrix whose (j, r) entry is d alpha_hat_r(u) / d beta_j.
    A previously computed LocalFit at u may be passed to skip the Newton
    iterations.
    """
    fam = get_family(family)
    data.validate_response(fam)
    fitter = CurveFitter(fam, data.x, data.y, data.u, smoothing, [u])
    warm = local_fit.coefficients[None, :] if local_fit is not None else None
    sol = fitter.solve(_offsets(data, beta), warm=warm)
    return fitter.alpha_prime(sol, data.z)[0]
