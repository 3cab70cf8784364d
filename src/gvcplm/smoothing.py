"""Local polynomial quasi-likelihood fitting of the coefficient functions.

For a fixed parametric vector beta, the coefficient functions alpha(.) are
estimated at a point u by maximizing the kernel-weighted quasi-likelihood of
the polynomial expansion

    sum_i Q( sum_r a_r' x_i (u_i - u)^r / r!  +  z_i' beta, y_i ) K_h(u_i - u)

over the coefficient blocks a_0 .. a_p.  The maximizer's leading block a_0 is
the fitted curve value at u.

The solver is batched: the evaluation points of a block are advanced
together through a damped Newton iteration on stacked per-point problems.
Concavity of the local objective (q_2 < 0) makes the maximizer unique, and
every point's iteration, ridge and step halvings are its own, so batching
changes cost, not results.  ``CurveFitter`` precomputes the kernel weights
and the polynomial design tensor once per (data, bandwidth, points) triple;
repeated solves at nearby beta values (the inner loop of profile estimation)
then reuse them and warm-start from nearby coefficients.

The kernel has compact support, so only observations with
|u_i - u| <= support_radius * h carry weight at u.  With the observations
sorted by u, that window is a contiguous band.  ``CurveFitter`` stores, per
evaluation point, the band's kernel weights and design columns, padded to
the widest band w: O(m w) memory and work for m points instead of O(m n).
Padding entries get a kernel weight of exactly zero, so the estimator is the
one defined by the full kernel sums above.  A band's responses and offsets
are not stored: they are read, when needed, from the point's window of the
u-sorted arrays (a strided view, one row per window start).

Every stage (construction, the cold start, the Newton iteration and the
curve derivative) runs over consecutive blocks of points, so its (rows, w)
and (rows, d, w) temporaries are bounded by _BLOCK_ELEMENTS = 2^15 (point,
window) pairs whatever m is.  The blocks are balanced: the fewest that keep
to that bound, with sizes that differ by at most one point, so none is a
small remainder whose fixed per-call costs are not spread over many points.
Blocks depend on (m, w) only, and within a block the arithmetic is that of
one batch of all points, so every result is bit for bit the same for any
partition into blocks.

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

Every batch of small SPD systems (the cold start, each Newton step, the
derivative, the profile Hessian) goes through ``_ridged_solve``, which ridges
a row only when its eigenvalues show a condition number over 1e12.  Most rows
are cleared without eigenvalues, by one batched Cholesky: with A = L L' and
eigenvalues l_1 >= .. >= l_d > 0, l_1 <= tr(A), and AM-GM on the d - 1
largest gives det A / l_d <= (tr(A) / (d - 1))^(d - 1), so

    kappa(A) = l_1 / l_d <= tr(A)^d / (det A (d - 1)^(d - 1)),
    det A = prod_k L_kk^2,

and a row whose bound is at most 1e10 is cleared.  Cholesky is backward
stable (Higham, Accuracy and Stability of Numerical Algorithms, ch. 10), and
the factor 100 of headroom is far beyond both its rounding and that of the
eigenvalues, so a cleared row is one the eigenvalue test would pass at zero
ridge: the clearance changes cost, never a ridge or a result.  A row with a
NaN or infinite entry is rejected first, with a ``SingularityError`` that
names its evaluation point.
"""

from __future__ import annotations

import copy
import logging
import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .data import Dataset
from .errors import EffectiveSampleError, ParameterError, SingularityError
from .families import FamilySpec, get_family
from .kernels import EPANECHNIKOV, KernelSpec, kernel_weight

MAX_LOCAL_ITERS = 50
LOCAL_TOL = 1e-8
MAX_HALVINGS = 20
_RIDGE_LADDER = (0.0, 1e-10, 1e-8, 1e-6)
_CONDITION_LIMIT = 1e12
_LOG_CLEARED = math.log(1e-2 * _CONDITION_LIMIT)
DEFAULT_GRID_SIZE = 200
_BLOCK_ELEMENTS = 1 << 15   # most (point, window) pairs in a block of points

_log = logging.getLogger("gvcplm")


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
    """Fitted coefficient functions on a grid: values[k] is alpha_hat(grid[k])
    (length q)."""

    grid: np.ndarray
    values: np.ndarray


class BatchSolution(NamedTuple):
    coefficients: np.ndarray      # (m, d)
    # (m, w) q_2 at the local fitted predictors, which coefficient_derivative
    # reads; None in a profile state once its derivative is cached
    curvature: Optional[np.ndarray]
    gradient_norm: np.ndarray     # (m,)
    converged: np.ndarray         # (m,) bool
    iterations: np.ndarray        # (m,) int


def _log_condition_bound(mats: np.ndarray) -> np.ndarray:
    """(m,) upper bound on log kappa_2 of each row from its Cholesky factor
    (module docstring); +inf on every row when some row is not positive
    definite."""
    d = mats.shape[-1]
    try:
        chol_diag = np.linalg.cholesky(mats).diagonal(axis1=-2, axis2=-1)
    except np.linalg.LinAlgError:
        return np.full(mats.shape[0], np.inf)
    log_bound = d * np.log(np.trace(mats, axis1=-2, axis2=-1)) \
        - 2.0 * np.log(chol_diag).sum(axis=-1)
    if d > 1:
        log_bound -= (d - 1) * math.log(d - 1)
    return log_bound


def _ridged_solve(mats: np.ndarray, rhs: np.ndarray, context: str,
                  points=None) -> np.ndarray:
    """Solve batched SPD systems, escalating a relative ridge when needed.

    mats has shape (m, d, d) and is expected symmetric positive definite;
    rhs is (m, d) or (m, d, r).  A row climbs the ridge ladder
    ``_RIDGE_LADDER`` (relative to its largest diagonal entry) until its
    eigenvalues show a condition number under ``_CONDITION_LIMIT``.  Rows
    whose Cholesky factor already proves that bound with 100-fold headroom
    skip the eigenvalues and keep a zero ridge, the level the ladder would
    give them, so every ridge and every result is the ladder's own.  Raises
    SingularityError, naming the first such row, when a row has a NaN or
    infinite entry (checked before anything else) or when the ladder cannot
    bring a row under the limit.  Errors name row k as points[k], the
    evaluation point's index in the caller's numbering (k itself when points
    is None).  A batch that needed any ridge is reported by one debug record
    on the ``gvcplm`` logger.
    """
    mats = np.ascontiguousarray(mats)
    if points is None:
        points = range(mats.shape[0])
    if not np.isfinite(mats).all():
        finite = np.isfinite(mats).all(axis=(1, 2))
        raise SingularityError(
            f"{context}: information matrix at point index "
            f"{points[np.argmin(finite)]} has a non-finite entry"
        )
    eye = np.eye(mats.shape[-1])
    scale = np.maximum(mats.diagonal(axis1=-2, axis2=-1).max(axis=-1), 1e-300)
    lam = np.zeros(mats.shape[0])
    rows = np.flatnonzero(~(_log_condition_bound(mats) <= _LOG_CLEARED))
    level = 0
    while rows.size:
        ridge = (lam[rows] * scale[rows])[:, None, None]
        ev = np.linalg.eigvalsh(mats[rows] + ridge * eye)
        bad = (ev[:, 0] <= 0) | (
            ev[:, -1] > _CONDITION_LIMIT * np.maximum(ev[:, 0], 1e-300)
        )
        rows = rows[bad]
        if not rows.size:
            break
        if level == len(_RIDGE_LADDER) - 1:
            raise SingularityError(
                f"{context}: information matrix at point index {points[rows[0]]} "
                f"stayed ill-conditioned after ridge escalation"
            )
        level += 1
        lam[rows] = _RIDGE_LADDER[level]
    if level and _log.isEnabledFor(logging.DEBUG):
        _log.debug("%s: ridged %d of %d systems, up to ladder level %d (ridge %g)",
                   context, np.count_nonzero(lam), lam.size, level, _RIDGE_LADDER[level])
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


def _blocks(m: int, w: int) -> list:
    """Consecutive slices of m points: the fewest blocks of at most cap =
    max(1, _BLOCK_ELEMENTS // w) points, ceil(m / cap), with sizes that
    differ by at most one, so no block is a small remainder; one empty slice
    when m is 0."""
    count = max(1, -(-m // max(1, _BLOCK_ELEMENTS // max(w, 1))))
    bounds = [m * k // count for k in range(count + 1)]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def _stacked(blocks, compute) -> np.ndarray:
    """compute(rows) of every block, stacked along the first axis; a single
    block's result is returned as it is, not copied."""
    first = compute(blocks[0])
    if len(blocks) == 1:
        return first
    out = np.empty((blocks[-1].stop,) + first.shape[1:])
    out[blocks[0]] = first
    for rows in blocks[1:]:
        out[rows] = compute(rows)
    return out


class CurveFitter:
    """Batched local polynomial quasi-likelihood solver at fixed points.

    The constructor finds each point's kernel window, the w consecutive
    u-sorted observations order[start : start + w] that hold every nonzero
    kernel weight, and stores the kernel ``weights`` (m, w) and polynomial
    ``design`` (m, d, w); beyond those it keeps O(n) arrays only (``order``,
    ``start``, the u-sorted responses).  Every method runs block by block
    (module docstring), gathering a block's responses, offsets and cold-start
    residuals from the windows of the u-sorted arrays.  One instance is
    reused for every beta the profile optimizer visits.
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
        self.weights = np.empty((m, w))
        self._y_windows = self._windows(self.y)
        u_windows = self._windows(u)
        x_windows = self._windows(self.x)   # (n - w + 1, q, w)
        design = np.empty((m, degree + 1, q, w))   # C order: the reshape is a view
        for rows in _blocks(m, w):
            s = self.start[rows]
            t = u_windows[s] - self.points[rows, None]
            self.weights[rows] = kernel_weight(smoothing.kernel, t, smoothing.h)
            powers = np.ones((t.shape[0], degree + 1, w))
            for r in range(1, degree + 1):
                powers[:, r] = powers[:, r - 1] * t / r
            # design[e, r*q + j, k] = (u_i - u_e)^r / r! * x_ij, i = order[start[e] + k]
            np.multiply(powers[:, :, None, :], x_windows[s][:, None, :, :],
                        out=design[rows])
        counts = np.count_nonzero(self.weights, axis=1)
        if np.any(counts < self.n_coef):
            k = int(np.argmin(counts))
            raise EffectiveSampleError(
                f"only {counts[k]} observations carry kernel weight at "
                f"u = {self.points[k]:.6g}; need at least {self.n_coef} "
                f"(bandwidth {smoothing.h} too small)"
            )
        self.design = design.reshape(m, self.n_coef, w)

    def with_delta(self, delta) -> CurveFitter:
        """Copy sharing the bands; delta enters only initial_coefficients."""
        other = copy.copy(self)
        other.smoothing = replace(self.smoothing, delta=delta)
        return other

    def _windows(self, values) -> np.ndarray:
        """Windows of w consecutive u-sorted rows of values, a view of shape
        (n - w + 1, ..., w): row s holds observations order[s : s + w], so
        row start[e] is point e's band."""
        return sliding_window_view(values[self.order], self.weights.shape[1], axis=0)

    # -- elementary pieces, on one block's rows -------------------------------

    def _objectives(self, linpred, y, weights):
        """Local objectives (rows,) with q_1 and q_2 (rows, w), one family pass."""
        q, q1, q2 = self.family.q012(linpred, y)
        return np.einsum("ei,ei->e", weights, q), q1, q2

    @staticmethod
    def _linpred(design, coefs, offsets):
        """Local predictors (rows, w) from local offsets (rows, w)."""
        return np.einsum("edi,ed->ei", design, coefs) + offsets

    @staticmethod
    def _weighted_gram(design, weights):
        """sum_i weights_ei D_ei D_ei' per point, shape (rows, d, d)."""
        return (design * weights[:, None, :]) @ np.swapaxes(design, 1, 2)

    def initial_coefficients(self, offsets) -> np.ndarray:
        """Weighted least squares on the transformed response (cold start)."""
        fam = self.family
        if fam.needs_delta and self.smoothing.delta is None:
            raise ParameterError(
                f"smoothing delta is required for the {fam.name} family"
            )
        gy = fam.transform(self.y, self.smoothing.delta)
        resid_windows = self._windows(gy - offsets)

        def cold(rows):
            design, weights = self.design[rows], self.weights[rows]
            mats = self._weighted_gram(design, weights)
            rhs = np.einsum("edi,ei->ed", design,
                            weights * resid_windows[self.start[rows]])
            return _ridged_solve(mats, rhs, "local initializer",
                                 range(rows.start, rows.stop))

        return _stacked(_blocks(*self.weights.shape), cold)

    # -- Newton iteration ---------------------------------------------------

    def solve(self, offsets, warm=None) -> BatchSolution:
        """Maximize every local objective for the given offsets.

        The blocks of points are solved one after another (``_solve_block``).
        A solve that leaves points unconverged reports them in one debug
        record on the ``gvcplm`` logger.

        Args:
            offsets: z_i' beta per observation, shape (n,).
            warm: optional (m, d) starting coefficients.
        """
        offsets = np.asarray(offsets, dtype=float)
        coefs = np.array(warm, dtype=float, copy=True) if warm is not None \
            else self.initial_coefficients(offsets)
        offset_windows = self._windows(offsets)
        m = coefs.shape[0]
        converged = np.zeros(m, dtype=bool)
        iters = np.zeros(m, dtype=int)
        gnorm = np.full(m, np.inf)
        curvature = _stacked(_blocks(*self.weights.shape), lambda rows: self._solve_block(
            rows, offset_windows[self.start[rows]],
            coefs[rows], gnorm[rows], converged[rows], iters[rows]))
        if _log.isEnabledFor(logging.DEBUG) and not converged.all():
            # an active point has iterations left, so one that stopped short
            # of the budget unconverged was abandoned
            abandoned = np.count_nonzero(~converged & (iters < MAX_LOCAL_ITERS))
            unconverged = m - np.count_nonzero(converged)
            _log.debug("local Newton: %d of %d points unconverged (%d abandoned after "
                       "%d step halvings, %d out of the %d-iteration budget); "
                       "largest gradient norm %.3g", unconverged, m, abandoned,
                       MAX_HALVINGS, unconverged - abandoned, MAX_LOCAL_ITERS,
                       gnorm[~converged].max())
        return BatchSolution(coefs, curvature, gnorm, converged, iters)

    def _solve_block(self, rows, offsets, coefs, gnorm, converged, iters):
        """Damped Newton iteration of one block of points, in place.

        offsets are the block's local offsets (rows, w); coefs, gnorm,
        converged and iters are its views of the solution arrays, updated in
        place.  Each trial predictor gets one family pass (``_objectives``);
        an accepted trial's q_1 and q_2 serve the next iterate, and the last
        q_2 (rows, w), the block's curvature, is returned.  Bands are views
        until a point converges or stalls; then only active rows are
        gathered.
        """
        w, G = self.weights[rows], self.design[rows]
        y = self._y_windows[self.start[rows]]
        obj, q1, q2 = self._objectives(self._linpred(G, coefs, offsets), y, w)
        curvature = q2

        m = coefs.shape[0]
        active = np.arange(m)
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
            if active.size == 0 or iters[sel].min() >= MAX_LOCAL_ITERS:
                # points that exhausted the budget stay converged=False
                break

            hess = self._weighted_gram(G[sel], w[sel] * q2)
            step = _ridged_solve(-hess, grad, "local Newton", rows.start + active)

            lam = np.ones(active.size)
            trial_c = coefs[sel] + step
            trial_obj, trial_q1, trial_q2 = self._objectives(
                self._linpred(G[sel], trial_c, offsets[sel]), y[sel], w[sel])
            tol_obj = 1e-10 * (1.0 + np.abs(obj[sel]))
            bad = ~(trial_obj >= obj[sel] - tol_obj)   # a NaN objective is no ascent
            for _ in range(MAX_HALVINGS):
                if not bad.any():
                    break
                lam[bad] *= 0.5
                idx = active[bad]
                trial_c[bad] = coefs[idx] + lam[bad, None] * step[bad]
                trial_obj[bad], trial_q1[bad], trial_q2[bad] = self._objectives(
                    self._linpred(G[idx], trial_c[bad], offsets[idx]), y[idx], w[idx])
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

        return curvature

    # -- derived quantities ---------------------------------------------------

    def curve_values(self, solution: BatchSolution) -> np.ndarray:
        """alpha_hat at each evaluation point, shape (m, q)."""
        return solution.coefficients[:, : self.n_curves]

    def coefficient_derivative(self, solution: BatchSolution, z) -> np.ndarray:
        """Derivative of every local coefficient with respect to beta, (m, p, d).

        Entry [e, j, k] is d a_k(points[e]) / d beta_j, the closed-form
        implicit derivative -S1^{-1} S2 of the local score equation with the
        solution's curvature q2 (no family evaluation), one block of points
        at a time.  S2 is built point by point from the window's contiguous
        slice of the u-sorted z, a view, so no rows of z are gathered.  The
        result is a transposed view of a C-contiguous (m, d, p) array.
        """
        zs = np.asarray(z, dtype=float)[self.order]
        w = self.weights.shape[1]

        def derivative(rows):
            design = self.design[rows]
            wq2_design = design * (self.weights[rows] * solution.curvature[rows])[:, None, :]
            s1 = -(wq2_design @ np.swapaxes(design, 1, 2))
            s2 = np.empty(s1.shape[:2] + (zs.shape[1],))
            for band, s, out in zip(wq2_design, self.start[rows].tolist(), s2):
                np.dot(band, zs[s:s + w], out=out)   # out=: no temporary per point
            return _ridged_solve(s1, s2, "curve derivative", range(rows.start, rows.stop))

        return np.swapaxes(_stacked(_blocks(*self.weights.shape), derivative), 1, 2)

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
) -> LocalFit:
    """Fit the local polynomial coefficients at a single point u."""
    fam = get_family(family)
    data.validate_response(fam)
    fitter = CurveFitter(fam, data.x, data.y, data.u, smoothing, [u])
    sol = fitter.solve(_offsets(data, beta))
    q = data.n_curves
    return LocalFit(
        a0=sol.coefficients[0, :q].copy(),
        higher_coefs=sol.coefficients[0, q:].reshape(smoothing.degree, q).copy(),
        converged=bool(sol.converged[0]),
        newton_iters=int(sol.iterations[0]),
    )


def default_grid(data: Dataset) -> np.ndarray:
    return np.linspace(data.u.min(), data.u.max(), DEFAULT_GRID_SIZE)


def fit_curve(
    family,
    data: Dataset,
    beta,
    smoothing: SmoothingParams,
    grid=None,
) -> CurveEstimate:
    """Fit the coefficient functions on a grid for fixed beta.

    grid defaults to 200 equally spaced points spanning the observed u
    range.
    """
    fam = get_family(family)
    data.validate_response(fam)
    if grid is None:
        grid = default_grid(data)
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    fitter = CurveFitter(fam, data.x, data.y, data.u, smoothing, grid)
    sol = fitter.solve(_offsets(data, beta))
    return CurveEstimate(grid=grid, values=fitter.curve_values(sol).copy())


def estimate_alpha_prime(
    family,
    data: Dataset,
    beta,
    u: float,
    smoothing: SmoothingParams,
) -> np.ndarray:
    """Closed-form derivative of the fitted curve at u with respect to beta.

    Returns a (p, q) matrix whose (j, r) entry is d alpha_hat_r(u) / d beta_j.
    """
    fam = get_family(family)
    data.validate_response(fam)
    fitter = CurveFitter(fam, data.x, data.y, data.u, smoothing, [u])
    sol = fitter.solve(_offsets(data, beta))
    return fitter.alpha_prime(sol, data.z)[0]
