"""Local polynomial quasi-likelihood fitting of the coefficient functions.

For a fixed parametric vector beta, the coefficient functions alpha(.) are
estimated at a point u by maximizing the kernel-weighted quasi-likelihood of
the polynomial expansion

    sum_i Q( sum_r a_r' x_i (u_i - u)^r / r!  +  z_i' beta, y_i ) K_h(u_i - u)

over the coefficient blocks a_0 .. a_p.  The maximizer's leading block a_0 is
the fitted curve value at u.

The solver is batched: the evaluation points of a group are advanced
together through a damped Newton iteration on stacked per-point problems.
Concavity of the local objective (q_2 < 0) makes the maximizer unique, and
every point's iteration, ridge and step halvings are its own, so batching
changes cost, not results beyond rounding.  ``CurveFitter`` precomputes the
kernel weights once per (data, bandwidth, points) triple; repeated solves at
nearby beta values (the inner loop of profile estimation) then reuse them and
warm-start from nearby coefficients.  A fit at one point u is a fitter with
points [u]; ``fit_curve`` fits the curves on a display grid.

The kernel has compact support, so only observations with
|u_i - u| <= support_radius * h carry weight at u.  With the observations
sorted by u, that window is a contiguous run.  ``CurveFitter`` sorts the
points by u and cuts them into tiles of consecutive points, and the tiles
into groups of consecutive tiles.  A tile's columns are a contiguous run of
the u-sorted observations that holds the union of its points' windows,
padded to the widest union of its group; a group stores its points' kernel
weights over their tiles' columns, (b_g, width), zero outside each point's
own window, so the estimator is the one defined by the full kernel sums
above.  Responses, offsets, x and z are read, when needed, as a tile's
contiguous slice of the u-sorted arrays.

A tile shares one basis across its points (Fan and Gijbels, Local Polynomial
Modelling, 1996, section 3): the Taylor re-expansion of the local polynomial
about the tile's centre c,

    (u_i - u_e)^r / r!  =  sum_{s <= r} (u_i - c)^s / s! * (c - u_e)^(r-s) / (r-s)!,

makes point e's local design D_e = M_e B, with B the (d, width) basis of
rows (u_i - c)^r / r! * x_ij and M_e unit lower triangular, M_e[r, s] =
(-(u_e - c))^(r-s) / (r-s)! (times the q x q identity).  So every kernel sum
of a tile is one matrix product against B: the predictors (M_e' a_e)' B + o,
the score M_e [(W q_1) B']_e, and the Hessian M_e [(W q_2) P]_e M_e' with P
the (width, d^2) products of B's rows, per observation.  Everything else (the
family pass, the ridged Newton steps, halvings and convergence, decided on
each point's own coefficients a_e) runs once per group.

Two bounds size them.  A tile's union may exceed its widest window by at
most _TILE_SPAN = 32 observations, so a point's sums run over few
observations beyond its own window.  A group's (b_g, width) arrays, and a
tile's, hold at most _BLOCK_ELEMENTS = 2^15 (point, observation) pairs
unless a single tile is wider, so the temporaries of every stage stay
bounded whatever m is.  Nothing of size (m, d, w) is stored: the bases and
their products are rebuilt per call from O(n) arrays, at about the cost of
one point's Hessian per tile.

Given z, ``CurveFitter.solve`` also returns the derivative of the local
coefficients with respect to beta, obtained in closed form by differentiating
the local score equation: with W the kernel weights, D the local design and
q2 the local curvature at the returned coefficients,

    d a / d beta' = -[sum_i q2_i D_i D_i' W_i]^{-1} [sum_i q2_i D_i z_i' W_i],

both sums one product per tile against its basis.  Each group is
differentiated right after its Newton loop, from the bases it was solved on
and its last q2, which is then dropped, so no solution holds the (b_g,
width) curvature.  The derivative's leading q rows (``alpha_prime``) give
d alpha(u) / d beta, which the profile gradient and Hessian need; all rows
predict the local fit at a nearby beta.  For degree 0 this is the familiar
ratio of kernel-weighted moment matrices; for degree >= 1 it is the exact
implicit derivative of the implemented fit.

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
_BLOCK_ELEMENTS = 1 << 15   # most (point, observation) pairs in a tile or a group
_TILE_SPAN = 32   # most observations a tile's union may add to its widest window

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
class CurveEstimate:
    """Fitted coefficient functions on a grid: values[k] is alpha_hat(grid[k])
    (length q)."""

    grid: np.ndarray
    values: np.ndarray


class BatchSolution(NamedTuple):
    """Local fits at every evaluation point, in the caller's point order,
    and their derivative with respect to beta when solved with z."""

    coefficients: np.ndarray      # (m, d)
    # (m, p, d) d coefficients / d beta, a transposed view of a C-contiguous
    # (m, d, p) array; None when solved without z
    derivative: Optional[np.ndarray]
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
    eigenvalues show a condition number under ``_CONDITION_LIMIT``; a row
    with no positive diagonal entry, such as an all-zero one, gets no ridge
    at any level, so it ends in the error below.  Rows whose Cholesky factor
    already proves that bound with 100-fold headroom skip the eigenvalues
    and keep a zero ridge, the level the ladder would give them, so every
    ridge and every result is the ladder's own.  Raises
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
    scale = np.maximum(mats.diagonal(axis1=-2, axis2=-1).max(axis=-1), 0.0)
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

    Returns (order, lo, hi): order sorts u (stable), and point e's window
    order[lo[e] : hi[e]] holds the observations with |u_i - points[e]| <=
    reach.  The search is widened by a relative 1e-9, so every observation
    whose kernel weight is nonzero is inside.  lo and hi are nondecreasing in
    the point.
    """
    order = np.argsort(u, kind="stable")
    sorted_u = u[order]
    reach = reach + 1e-9 * (reach + np.abs(points))
    lo = np.searchsorted(sorted_u, points - reach, side="left")
    hi = np.searchsorted(sorted_u, points + reach, side="right")
    return order, lo, hi


def _tiles(lo, hi) -> list:
    """Tiles of the u-sorted points, as (a, b) bounds of consecutive points,
    from their windows [lo[e], hi[e]) (nondecreasing in e).

    A tile's union of windows is [lo[a], hi[b - 1]).  A point joins the tile
    while the union stays within _TILE_SPAN observations of the tile's widest
    window and the tile's (point, observation) pairs within _BLOCK_ELEMENTS.
    """
    lo, hi = lo.tolist(), hi.tolist()
    tiles, a = [], 0
    while a < len(lo):
        b, widest = a + 1, hi[a] - lo[a]
        while b < len(lo):
            union, wider = hi[b] - lo[a], max(widest, hi[b] - lo[b])
            if union > wider + _TILE_SPAN or (b + 1 - a) * union > _BLOCK_ELEMENTS:
                break
            b, widest = b + 1, wider
        tiles.append((a, b))
        a = b
    return tiles


def _groups(tiles, unions) -> list:
    """Groups of consecutive tiles, as (first, stop) bounds into tiles: a tile
    joins while the group's points times its widest union stay within
    _BLOCK_ELEMENTS."""
    groups, first = [], 0
    while first < len(tiles):
        stop, width = first + 1, unions[first]
        while stop < len(tiles):
            wider = max(width, unions[stop])
            if (tiles[stop][1] - tiles[first][0]) * wider > _BLOCK_ELEMENTS:
                break
            stop, width = stop + 1, wider
        groups.append((first, stop))
        first = stop
    return groups


class Tile(NamedTuple):
    """A run of consecutive u-sorted evaluation points sharing one basis."""

    points: slice     # rows of the u-sorted points
    lo: int           # its columns, the u-sorted observations lo .. hi - 1:
    hi: int           # the union of its points' windows, padded to its group's width
    centre: float     # the basis's expansion point


class Group(NamedTuple):
    """Consecutive tiles whose points are solved together."""

    points: slice     # rows of the u-sorted points
    tiles: slice      # into CurveFitter.tiles
    width: int        # hi - lo of each of its tiles


class _Local(NamedTuple):
    """A group's tile bases, built per call from O(n) arrays."""

    bases: np.ndarray    # (tiles, d, width) rows (u_i - centre)^r / r! * x_ij
    pairs: np.ndarray    # (tiles, width, d * d) products of a basis's rows
    bounds: np.ndarray   # (tiles + 1,) the tiles' first rows in the group, then b
    shift: np.ndarray    # (b, d, d) M_e: point e's local design is M_e times its basis
    index: np.ndarray    # (b,) the points' indices in the caller's order


def _shift_matrices(shift, degree: int, q: int) -> np.ndarray:
    """(b, d, d) Taylor re-expansion maps M_e, unit lower triangular, with
    M_e[r q + j, s q + j] = (-shift_e)^(r - s) / (r - s)! for s <= r."""
    d = (degree + 1) * q
    maps = np.zeros((shift.size, d, d))
    term = np.ones_like(shift)
    for k in range(degree + 1):   # term = (-shift)^k / k!
        for r in range(k, degree + 1):
            for j in range(q):
                maps[:, r * q + j, (r - k) * q + j] = term
        term = term * -shift / (k + 1)
    return maps


def _products(local, rows, values, mats) -> np.ndarray:
    """values (k, .) times its row's tile matrix from mats, (k, .): rows is
    slice(None) or the sorted group rows that values holds."""
    cuts = local.bounds if isinstance(rows, slice) else np.searchsorted(rows, local.bounds)
    out = np.empty((values.shape[0], mats[0].shape[1]))
    for a, b, mat in zip(cuts[:-1].tolist(), cuts[1:].tolist(), mats):
        if a < b:
            np.matmul(values[a:b], mat, out=out[a:b])
    return out


class CurveFitter:
    """Batched local polynomial quasi-likelihood solver at fixed points.

    The constructor sorts the points by u (stable), cuts them into tiles
    (``_tiles``) and the tiles into groups (``_groups``).  A tile's columns
    are the u-sorted observations lo .. hi - 1, the union of its points'
    kernel windows padded to its group's width; a group stores its points'
    kernel ``weights`` (b_g, width), zero outside each point's own window.
    Beyond those the fitter keeps O(n) arrays only: ``order``,
    ``point_order``, the tiles and groups, the u-sorted u, x and y, and each
    point's shift from its tile's centre.  Every method runs group by group
    (module docstring), reading a tile's responses, offsets, z and x as
    contiguous slices of the u-sorted arrays.  One instance is reused for
    every beta the profile optimizer visits.
    """

    def __init__(self, family: FamilySpec, x, y, u, smoothing: SmoothingParams, points):
        self.family = get_family(family)
        self.smoothing = smoothing
        self.x = np.asarray(x, dtype=float)
        self.y = np.asarray(y, dtype=float)
        u = np.asarray(u, dtype=float)
        self.points = np.atleast_1d(np.asarray(points, dtype=float))
        q = self.x.shape[1]
        self.n_curves = q
        self.n_coef = (smoothing.degree + 1) * q

        self.order, lo, hi = _kernel_windows(
            u, self.points, smoothing.kernel.support_radius * smoothing.h
        )
        self.point_order = np.argsort(self.points, kind="stable")
        points = self.points[self.point_order]
        lo, hi = lo[self.point_order], hi[self.point_order]
        self._u = u[self.order]
        self._y = self.y[self.order]
        self._xt = np.ascontiguousarray(self.x[self.order].T)   # (q, n)
        self._shift = np.empty(points.size)
        counts = np.empty(points.size, dtype=int)
        tiles = _tiles(lo, hi)
        unions = [int(hi[b - 1] - lo[a]) for a, b in tiles]
        self.tiles, self.groups, self.weights = [], [], []
        for first, stop in _groups(tiles, unions):
            width = max(unions[first:stop])
            rows = slice(tiles[first][0], tiles[stop - 1][1])
            weights = np.empty((rows.stop - rows.start, width))
            for a, b in tiles[first:stop]:
                lo_t = min(int(lo[a]), u.size - width)
                tile = Tile(slice(a, b), lo_t, lo_t + width, 0.5 * (points[a] + points[b - 1]))
                weights[a - rows.start:b - rows.start] = kernel_weight(
                    smoothing.kernel, self._u[tile.lo:tile.hi] - points[a:b, None],
                    smoothing.h)
                self._shift[a:b] = points[a:b] - tile.centre
                self.tiles.append(tile)
            counts[self.point_order[rows]] = np.count_nonzero(weights, axis=1)
            self.groups.append(Group(rows, slice(first, stop), width))
            self.weights.append(weights)
        if np.any(counts < self.n_coef):
            k = int(np.argmin(counts))
            raise EffectiveSampleError(
                f"only {counts[k]} observations carry kernel weight at "
                f"u = {self.points[k]:.6g}; need at least {self.n_coef} "
                f"(bandwidth {smoothing.h} too small)"
            )

    def with_delta(self, delta) -> CurveFitter:
        """Copy sharing the tiles; delta enters only initial_coefficients."""
        other = copy.copy(self)
        other.smoothing = replace(self.smoothing, delta=delta)
        return other

    def _local(self, group: Group) -> _Local:
        """The group's tile bases, their column pair products and its points'
        maps."""
        tiles = self.tiles[group.tiles]
        columns = np.array([t.lo for t in tiles])[:, None] + np.arange(group.width)
        du = self._u[columns] - np.array([t.centre for t in tiles])[:, None]  # (T, width)
        x = self._xt[:, columns].swapaxes(0, 1)                              # (T, q, width)
        degree = self.smoothing.degree
        bases = np.empty((len(tiles), degree + 1) + x.shape[1:])
        bases[:, 0] = x
        power = np.ones_like(du)
        for r in range(1, degree + 1):
            power = power * du / r
            np.multiply(power[:, None, :], x, out=bases[:, r])
        bases = bases.reshape(len(tiles), self.n_coef, group.width)
        pairs = bases.swapaxes(1, 2)[:, :, :, None] * bases.swapaxes(1, 2)[:, :, None, :]
        bounds = [0] + [t.points.stop - group.points.start for t in tiles]
        shift = _shift_matrices(self._shift[group.points], degree, self.n_curves)
        return _Local(bases, pairs.reshape(len(tiles), group.width, -1), np.array(bounds),
                      shift, self.point_order[group.points])

    def _rows(self, group: Group, values) -> np.ndarray:
        """(b_g, width) the u-sorted values over each point's tile columns."""
        tiles = self.tiles[group.tiles]
        return np.repeat(np.stack([values[t.lo:t.hi] for t in tiles]),
                         [t.points.stop - t.points.start for t in tiles], axis=0)

    def _unsorted(self, values: np.ndarray) -> np.ndarray:
        """Rows of the u-sorted points back in the caller's point order."""
        out = np.empty_like(values)
        out[self.point_order] = values
        return out

    # -- elementary pieces, on one group's rows -------------------------------

    def _objectives(self, linpred, y, weights):
        """Local objectives (rows,) with q_1 and q_2 (rows, width), one family pass."""
        q, q1, q2 = self.family.q012(linpred, y)
        return np.einsum("ei,ei->e", weights, q), q1, q2

    @staticmethod
    def _linpred(local, sel, coefs, offsets):
        """Predictors (rows, width) of rows sel: (M_e' a_e)' B + o."""
        out = _products(local, sel, np.einsum("ers,er->es", local.shift[sel], coefs),
                        local.bases)
        out += offsets
        return out

    @staticmethod
    def _score(local, sel, weighted):
        """sum_i weighted_ei D_ei per row, (rows, d): M_e (weighted B')_e."""
        return np.einsum("ers,es->er", local.shift[sel],
                         _products(local, sel, weighted, local.bases.swapaxes(1, 2)))

    @staticmethod
    def _weighted_gram(local, sel, weighted):
        """sum_i weighted_ei D_ei D_ei' per row, (rows, d, d): M_e (weighted P)_e M_e'."""
        shift = local.shift[sel]
        gram = _products(local, sel, weighted, local.pairs).reshape(shift.shape)
        return shift @ gram @ np.swapaxes(shift, 1, 2)

    def _transformed_residuals(self, offsets):
        """u-sorted transformed response minus offsets (the cold start's)."""
        fam = self.family
        if fam.needs_delta and self.smoothing.delta is None:
            raise ParameterError(
                f"smoothing delta is required for the {fam.name} family"
            )
        return (fam.transform(self.y, self.smoothing.delta) - offsets)[self.order]

    def _cold(self, group, local, weights, resid):
        """Weighted least squares on the group's transformed residuals (b_g, d)."""
        every = slice(None)
        return _ridged_solve(self._weighted_gram(local, every, weights),
                             self._score(local, every, weights * self._rows(group, resid)),
                             "local initializer", local.index)

    def initial_coefficients(self, offsets) -> np.ndarray:
        """Weighted least squares on the transformed response (cold start)."""
        resid = self._transformed_residuals(np.asarray(offsets, dtype=float))
        coefs = np.empty((self.points.size, self.n_coef))
        for group, weights in zip(self.groups, self.weights):
            coefs[group.points] = self._cold(group, self._local(group), weights, resid)
        return self._unsorted(coefs)

    # -- Newton iteration ---------------------------------------------------

    def solve(self, offsets, warm=None, z=None) -> BatchSolution:
        """Maximize every local objective for the given offsets.

        The groups are solved one after another (``_solve_group``), each from
        its cold start when warm is None, and, given z, differentiated
        (``_differentiate``) before the next.  A solve that leaves points
        unconverged reports them in one debug record on the ``gvcplm``
        logger.

        Args:
            offsets: z_i' beta per observation, shape (n,).
            warm: optional (m, d) starting coefficients.
            z: optional (n, p) linear covariates, for the derivative.
        """
        offsets = np.asarray(offsets, dtype=float)
        m = self.points.size
        if warm is None:
            coefs = np.empty((m, self.n_coef))
            resid = self._transformed_residuals(offsets)
        else:
            coefs = np.array(warm, dtype=float)[self.point_order]
        offsets = offsets[self.order]
        converged = np.zeros(m, dtype=bool)
        iters = np.zeros(m, dtype=int)
        gnorm = np.full(m, np.inf)
        if z is not None:
            zs = np.asarray(z, dtype=float)[self.order]
            derivative = np.empty((m, self.n_coef, zs.shape[1]))
        for group, weights in zip(self.groups, self.weights):
            local, rows = self._local(group), group.points
            if warm is None:
                coefs[rows] = self._cold(group, local, weights, resid)
            q2 = self._solve_group(
                local, weights, self._rows(group, offsets), self._rows(group, self._y),
                coefs[rows], gnorm[rows], converged[rows], iters[rows])
            if z is not None:
                derivative[local.index] = self._differentiate(group, local, weights * q2, zs)
        coefs, gnorm, converged, iters = (
            self._unsorted(a) for a in (coefs, gnorm, converged, iters))
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
        return BatchSolution(coefs, None if z is None else np.swapaxes(derivative, 1, 2),
                             gnorm, converged, iters)

    def _solve_group(self, local, w, offsets, y, coefs, gnorm, converged, iters):
        """Damped Newton iteration of one group's points, in place.

        offsets and y are the group's (b_g, width) rows; coefs, gnorm,
        converged and iters are its views of the solution arrays, updated in
        place.  Steps, ridges, halvings and convergence are decided on the
        points' own coefficients a_e (the local design D_e = M_e B), as for
        a per-point solve.  Each trial predictor gets one family pass
        (``_objectives``); an accepted trial's q_1 and q_2 serve the next
        iterate, and the last q_2 (b_g, width), the group's curvature, is
        returned for ``_differentiate``.  Once a point converges or stalls
        only active rows are gathered.
        """
        m = coefs.shape[0]
        every = slice(None)
        obj, q1, q2 = self._objectives(self._linpred(local, every, coefs, offsets), y, w)
        curvature = q2

        active = np.arange(m)
        while True:
            # q1 and q2 hold the active rows
            sel = every if active.size == m else active
            grad = self._score(local, sel, w[sel] * q1)
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

            hess = self._weighted_gram(local, sel, w[sel] * q2)
            step = _ridged_solve(-hess, grad, "local Newton", local.index[active])

            lam = np.ones(active.size)
            trial_c = coefs[sel] + step
            trial_obj, trial_q1, trial_q2 = self._objectives(
                self._linpred(local, sel, trial_c, offsets[sel]), y[sel], w[sel])
            tol_obj = 1e-10 * (1.0 + np.abs(obj[sel]))
            bad = ~(trial_obj >= obj[sel] - tol_obj)   # a NaN objective is no ascent
            for _ in range(MAX_HALVINGS):
                if not bad.any():
                    break
                lam[bad] *= 0.5
                idx = active[bad]
                trial_c[bad] = coefs[idx] + lam[bad, None] * step[bad]
                trial_obj[bad], trial_q1[bad], trial_q2[bad] = self._objectives(
                    self._linpred(local, idx, trial_c[bad], offsets[idx]), y[idx], w[idx])
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

    def _differentiate(self, group, local, wq2, zs) -> np.ndarray:
        """(b_g, d, p) derivative of the group's local coefficients with
        respect to beta, from wq2 = W q2 (b_g, width) at its solution.

        It is the closed-form implicit derivative -S1^{-1} S2 of the local
        score equation (module docstring), with no family evaluation.  Both
        sums are one product per tile against its basis: S1 as in the Newton
        Hessian, S2 = M_e [(W q2)(B x z)]_e with B x z the (width, d p)
        products of the basis's columns with the tile's contiguous rows of
        the u-sorted z, zs.
        """
        d, p = self.n_coef, zs.shape[1]
        s1 = -self._weighted_gram(local, slice(None), wq2)
        s2 = np.empty((wq2.shape[0], d * p))
        bounds = local.bounds.tolist()
        for a, b, basis, tile in zip(bounds, bounds[1:], local.bases,
                                     self.tiles[group.tiles]):
            kron = basis.T[:, :, None] * zs[tile.lo:tile.hi, None, :]
            np.matmul(wq2[a:b], kron.reshape(group.width, -1), out=s2[a:b])
        s2 = local.shift @ s2.reshape(-1, d, p)
        return _ridged_solve(s1, s2, "curve derivative", local.index)

    # -- derived quantities ---------------------------------------------------

    def curve_values(self, solution: BatchSolution) -> np.ndarray:
        """alpha_hat at each evaluation point, shape (m, q)."""
        return solution.coefficients[:, : self.n_curves]

    def alpha_prime(self, solution: BatchSolution) -> np.ndarray:
        """(m, p, q) derivative of the fitted curve with respect to beta: the
        leading q coefficients of the derivative of a solve given z."""
        if solution.derivative is None:
            raise ParameterError("the solution has no derivative: solve with z")
        return solution.derivative[:, :, : self.n_curves]


# ---------------------------------------------------------------------------
# curves on a display grid


def _offsets(data: Dataset, beta) -> np.ndarray:
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (data.n_linear,):
        raise ParameterError(
            f"beta has shape {beta.shape}, expected ({data.n_linear},)"
        )
    if not np.all(np.isfinite(beta)):
        raise ParameterError("beta must be finite")
    return data.z @ beta


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

