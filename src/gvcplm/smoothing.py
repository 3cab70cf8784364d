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

A Newton trial is accepted on a certificate where it can be, without Q.
Along a step s from a, phi(t) = sum_i W_i Q(eta_i(a + t s)) is concave, since
q_2 <= 0, so phi(1) - phi(0) >= phi'(1) = score(a + s) . s (the
curvature-condition argument of Nocedal and Wright, Numerical Optimization,
2006, section 3.1).  A row whose phi'(1) >= -1e-10 thus has phi(1) >= phi(0)
- 1e-10 >= phi(0) - 1e-10 (1 + |phi(0)|), the acceptance test, which leaves
1e-10 |phi(0)| for the rounding of its two sums.  So each trial gets one
family pass for q_1 and q_2 only, and its score, which the next convergence
test needs anyway, certifies it.  Every family's Q is concave and q_1 its
derivative for every predictor (the poisson Q is extended linearly past its
exponent cap, ``gvcplm.families``), so the certificate covers every row.  Q
is evaluated, at a row's current and trial coefficients, only where the
bound fails, and those rows run the acceptance test and its step halvings
as before.  The certificate holds only where the test passes, so every
accepted step, halving, iteration count and result is the test's own.

The kernel is Epanechnikov's, K(z) = 0.75 (1 - z^2)_+, the optimal kernel
for local polynomial fits (Fan and Gijbels, 1996, chapter 3).  It has
compact support, so only observations with |u_i - u| <= h carry weight at u.
With the observations sorted by u, that window is a contiguous run.
``CurveFitter`` sorts the points by u and cuts them into tiles of
consecutive points, and the tiles into groups of consecutive tiles.  A
tile's columns are a contiguous run of the u-sorted observations that holds
the union of its points' windows, padded to the widest union of its group; a
group stores its points' kernel weights over their tiles' columns, (b_g,
width), zero outside each point's own window, so the estimator is the one
defined by the full kernel sums above.  Responses, offsets, x and z are
read, when needed, as a tile's contiguous slice of the u-sorted arrays;
every result is held in the caller's point order, each group's rows
gathered and scattered through its points' indices.

A tile shares one basis across its points (Fan and Gijbels, Local Polynomial
Modelling, 1996, section 3): the Taylor re-expansion of the local polynomial
about the tile's centre c,

    (u_i - u_e)^r / r!  =  sum_{s <= r} (u_i - c)^s / s! * (c - u_e)^(r-s) / (r-s)!,

makes point e's local design D_e = M_e B, with B the (d, width) basis of
rows (u_i - c)^r / r! * x_ij and M_e unit lower triangular, M_e[r, s] =
(-(u_e - c))^(r-s) / (r-s)! (times the q x q identity).  So every kernel sum
of a tile is one matrix product against B: the score M_e [(W q_1) B']_e, and
the information M_e [(W b'') P]_e M_e' with P the (width, d^2) products of
B's rows, per observation.  Each solve appends the tile's slice of the
u-sorted offsets o to B as a last row, so the predictors (M_e' a_e)' B + o
are one product too, of (M_e' a_e, 1) with that (d + 1)-row basis.
Everything else (the family pass, the ridged Newton steps, halvings and
convergence, decided on each point's own coefficients a_e) runs once per
group.

The solver carries W q_1 and W b'' >= 0 (b'' = -q_2, the variance function)
as the family's one pass returns them (``FamilySpec.evaluate``), and solves
each Newton step on the Gram matrix of W b'', the negated Hessian.  Rounding
is sign-symmetric, so each such sum is exactly the negated sum of W q_2, but
for the sign of an exact zero.

Two bounds size the tiles and groups.  A tile's union may exceed its
widest window by at most _TILE_SPAN = 32 observations, so a point's sums run
over few observations beyond its own window.  A group's (b_g, width) arrays,
and a tile's, hold at most _BLOCK_ELEMENTS = 2^15 (point, observation) pairs
unless a single tile is wider, so the temporaries of every stage stay
bounded whatever m is.  A fitter stores, built once, each group's kernel
weights (b_g, width), its points' maps M_e (b_g, d, d) and its tiles' row
bounds, first columns and centres, besides O(n) arrays; nothing of size
(m, d, w).  The bases and their products, which end in the offsets, are
rebuilt per call, at about the cost of one point's Hessian per tile.

Given z, ``CurveFitter.solve`` also returns the derivative of the local
coefficients with respect to beta, obtained in closed form by differentiating
the local score equation: with W the kernel weights, D the local design and
q2 the local curvature at the returned coefficients,

    d a / d beta' = -[sum_i q2_i D_i D_i' W_i]^{-1} [sum_i q2_i D_i z_i' W_i],

both sums one product per tile against its basis.  With S1 the first sum,
the second is M_e T_e, T_e the (d, p) product of q2 W, the tile's basis and
z, so the derivative is computed as -(S1^{-1} M_e) T_e, from the sums of
W b'' = -W q2 and negated once at the end: the solve takes the d columns of
M_e as right-hand sides, not the p of M_e T_e, and only the last, batched
product grows with p.  Each group is differentiated right after its Newton
loop, from the bases it was solved on and its last W b'', which is then
dropped, so no solution holds the (b_g, width) curvature.
The derivative's leading q rows (``alpha_prime``) give
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

Importing this module (and so ``gvcplm``) changes two process-wide allocator
parameters of glibc's malloc: ``M_MMAP_THRESHOLD`` to 32 MiB and
``M_TRIM_THRESHOLD`` to 64 MiB, the values glibc's own dynamic thresholds
settle at once they reach their cap.  A group's temporaries, up to 2^15
doubles each, then come from the heap and stay mapped across Newton steps,
groups, fitters and solves, instead of being handed back to the kernel and
faulted in again, zeroed, on the next pass (about 100,000 minor page faults
per 40 bernoulli n=200 replicates otherwise).  Nothing is changed where the
C library is not glibc, or where ``GLIBC_TUNABLES`` or any ``MALLOC_*``
environment variable is set: the user's own allocator tuning wins.
"""

from __future__ import annotations

import copy
import ctypes
import logging
import math
import numbers
import os
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np

from .data import Dataset
from .errors import EffectiveSampleError, ParameterError, SingularityError
from .families import FamilySpec, get_family

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

_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3   # mallopt parameters, <malloc.h>


def _keep_freed_memory_mapped() -> None:
    """Raise glibc's mmap and trim thresholds to their dynamic caps (module
    docstring); do nothing, and never raise, off glibc or where the
    environment already tunes malloc."""
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        return
    if not (libc or "").startswith("glibc ") or any(
            key == "GLIBC_TUNABLES" or key.startswith("MALLOC_") for key in os.environ):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


_keep_freed_memory_mapped()


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_seed(seed) -> None:
    """ParameterError unless seed is an integer >= 0."""
    if not _is_integer(seed) or seed < 0:
        raise ParameterError(f"seed must be an integer >= 0, got {seed!r}")


def _shaped(value, shape: tuple, name: str) -> np.ndarray:
    """value as a float array of the given shape; ParameterError naming it
    and both shapes when it has another."""
    value = np.asarray(value, dtype=float)
    if value.shape != shape:
        raise ParameterError(f"{name} has shape {value.shape}, expected {shape}")
    return value


@dataclass(frozen=True)
class SmoothingParams:
    """Smoothing configuration: bandwidth, transform offset, polynomial degree."""

    h: float
    delta: Optional[float] = None
    degree: int = 1

    def __post_init__(self):
        if not _is_real(self.h):
            raise ParameterError(f"bandwidth h must be a real number, got {self.h!r}")
        if self.delta is not None and not _is_real(self.delta):
            raise ParameterError(f"offset delta must be a real number or None, got {self.delta!r}")
        if not (self.h > 0 and math.isfinite(self.h)):
            raise ParameterError(f"bandwidth must be positive and finite, got {self.h}")
        if not _is_integer(self.degree) or self.degree < 0:
            raise ParameterError(f"polynomial degree must be an integer >= 0, got {self.degree!r}")
        if self.delta is not None and not (self.delta > 0 and math.isfinite(self.delta)):
            raise ParameterError(f"offset delta must be positive and finite, got {self.delta}")


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
    on the ``gvcplm`` logger; a batch that needed none is solved as given.
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
    rows = np.flatnonzero(~(_log_condition_bound(mats) <= _LOG_CLEARED))
    if rows.size:
        eye = np.eye(mats.shape[-1])
        scale = np.maximum(mats.diagonal(axis1=-2, axis2=-1).max(axis=-1), 0.0)
        lam = np.zeros(mats.shape[0])
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
    if level:   # otherwise no row is ridged: solve mats itself
        if _log.isEnabledFor(logging.DEBUG):
            _log.debug("%s: ridged %d of %d systems, up to ladder level %d (ridge %g)",
                       context, np.count_nonzero(lam), lam.size, level, _RIDGE_LADDER[level])
        mats = mats + (lam * scale)[:, None, None] * eye
    if rhs.ndim == mats.ndim - 1:
        return np.linalg.solve(mats, rhs[..., None])[..., 0]
    return np.linalg.solve(mats, rhs)


def _epanechnikov(t, h: float):
    """Rescaled kernel weight K(t / h) / h at distance(s) t, h > 0."""
    if not h > 0:
        raise ParameterError(f"bandwidth must be positive, got {h}")
    z = t / h
    return 0.75 * np.clip(1.0 - z * z, 0.0, None) / h


def _kernel_windows(u: np.ndarray, points: np.ndarray, reach: float):
    """Each point's kernel window as a run of the u-sorted observations.

    Returns (order, lo, hi): order sorts u (stable), and point e's window
    order[lo[e] : hi[e]] holds the observations with |u_i - points[e]| <=
    reach.  The search is widened by a relative 1e-9, so every observation
    whose kernel weight is nonzero is inside.  For sorted points, lo and hi
    are nondecreasing in e.
    """
    order = np.argsort(u, kind="stable")
    sorted_u = u[order]
    reach = reach + 1e-9 * (reach + np.abs(points))
    lo = np.searchsorted(sorted_u, points - reach, side="left")
    hi = np.searchsorted(sorted_u, points + reach, side="right")
    return order, lo, hi


def _layout(lo, hi) -> list:
    """Tiles and groups of the u-sorted points, cut in one greedy walk from
    their windows [lo[e], hi[e]) (nondecreasing in e): per group, [bounds,
    width], its tiles' first points then its stop, and its widest union.

    A tile of points a .. b - 1 has the union [lo[a], hi[b - 1]).  A point
    joins the tile while the union stays within _TILE_SPAN observations of
    the tile's widest window and the tile's (point, observation) pairs within
    _BLOCK_ELEMENTS; the tile then joins the last group while the group's
    points times its width stay within _BLOCK_ELEMENTS.
    """
    lo, hi = lo.tolist(), hi.tolist()
    groups, a = [], 0
    while a < len(lo):
        b, widest = a + 1, hi[a] - lo[a]
        while b < len(lo):
            union, wider = hi[b] - lo[a], max(widest, hi[b] - lo[b])
            if union > wider + _TILE_SPAN or (b + 1 - a) * union > _BLOCK_ELEMENTS:
                break
            b, widest = b + 1, wider
        union = hi[b - 1] - lo[a]
        if groups and (b - groups[-1][0][0]) * max(groups[-1][1], union) <= _BLOCK_ELEMENTS:
            groups[-1][0].append(b)
            groups[-1][1] = max(groups[-1][1], union)
        else:
            groups.append([[a, b], union])
        a = b
    return groups


class Group(NamedTuple):
    """Consecutive tiles of u-sorted points, solved together.

    Everything the solver reads of a group that the offsets do not change is
    built once, by the constructor; ``CurveFitter._local`` fills in the two
    arrays that end in the offsets, per call.  Its rows are its points in u
    order, and each solve gathers and scatters them through index.  Tile k
    holds the group's rows bounds[k] .. bounds[k + 1] - 1 and the u-sorted
    observations starts[k] .. starts[k] + width - 1 as its columns: the
    union of its points' windows, padded to the group's width,
    weights.shape[1].
    """

    index: np.ndarray     # (b,) the points' indices in the caller's order
    bounds: np.ndarray    # (tiles + 1,) the tiles' first rows in the group, then b
    starts: np.ndarray    # (tiles,) the tiles' first columns
    centres: np.ndarray   # (tiles,) the tile bases' expansion points
    maps: np.ndarray      # (b, d, d) M_e: point e's local design is M_e times its basis
    weights: np.ndarray   # (b, width) kernel weights, zero outside each point's window
    # per call: (tiles, d + 1, width) rows (u_i - centre)^r / r! * x_ij, then
    # the offsets, and (tiles, width, d * d) products of a basis's rows
    bases: Optional[np.ndarray] = None
    pairs: Optional[np.ndarray] = None


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


def _products(group, rows, values, mats) -> np.ndarray:
    """values (k, .) times its row's tile matrix from mats, (k, .): rows is
    slice(None) or the sorted group rows that values holds."""
    cuts = group.bounds if isinstance(rows, slice) else np.searchsorted(rows, group.bounds)
    out = np.empty((values.shape[0], mats[0].shape[1]))
    for a, b, mat in zip(cuts[:-1].tolist(), cuts[1:].tolist(), mats):
        if a < b:
            np.matmul(values[a:b], mat, out=out[a:b])
    return out


def _columns(group: Group) -> np.ndarray:
    """(tiles, width) each tile's columns, indices of u-sorted observations."""
    return group.starts[:, None] + np.arange(group.weights.shape[1])


class CurveFitter:
    """Batched local polynomial quasi-likelihood solver at fixed points.

    The constructor sorts the points by u (stable), cuts them into tiles and
    the tiles into groups in one walk (``_layout``), and builds each
    ``Group`` once: its points' caller indices, kernel weights (b_g, width),
    zero outside each point's own window, Taylor maps M_e (b_g, d, d), and
    its tiles' row bounds, first columns and centres.  Beyond the groups the
    fitter keeps O(n) arrays only: ``order`` and the u-sorted u, x and y.
    Nothing of size (m, d, w) is stored.  Every method runs group by group
    (module docstring), reading a tile's responses, offsets, z and x as
    contiguous slices of the u-sorted arrays; the offsets enter as the last
    row of each tile's basis, built per call by ``_local``.  Every output
    is held in the caller's point order, each group's rows written through
    its ``index``.  One instance is reused for every beta the profile
    optimizer visits.
    """

    def __init__(self, family: FamilySpec, x, y, u, smoothing: SmoothingParams, points):
        self.family = get_family(family)
        self.smoothing = smoothing
        u = np.asarray(u, dtype=float)
        if u.ndim != 1:
            raise ParameterError(f"u must be a 1-D array, got shape {u.shape}")
        self.y = _shaped(y, u.shape, "y")
        x = np.asarray(x, dtype=float)
        self.x = _shaped(x, (u.size, x.shape[1] if x.ndim > 1 else 1), "x")
        self.family.validate_response(self.y)
        self.points = np.atleast_1d(np.asarray(points, dtype=float))
        nonfinite = np.count_nonzero(~np.isfinite(self.points))
        if self.points.ndim != 1 or nonfinite:
            raise ParameterError("evaluation points must be a finite 1-D array; got shape "
                                 f"{self.points.shape}, {nonfinite} non-finite")
        q = self.x.shape[1]
        self.n_curves = q
        self.n_coef = (smoothing.degree + 1) * q

        point_order = np.argsort(self.points, kind="stable")
        points = self.points[point_order]
        self.order, lo, hi = _kernel_windows(u, points, smoothing.h)
        self._u = u[self.order]
        self._y = self.y[self.order]
        self._xt = np.ascontiguousarray(self.x[self.order].T)   # (q, n)
        counts = np.empty(points.size, dtype=int)
        self.groups = []
        for tiles, width in _layout(lo, hi):
            rows = slice(tiles[0], tiles[-1])
            at, bounds = points[rows], np.array(tiles) - rows.start
            starts = np.minimum(lo[tiles[:-1]], u.size - width)
            centres = 0.5 * (at[bounds[:-1]] + at[bounds[1:] - 1])
            maps = _shift_matrices(at - np.repeat(centres, np.diff(bounds)), smoothing.degree, q)
            weights = np.empty((at.size, width))
            for a, b, start in zip(bounds[:-1].tolist(), bounds[1:].tolist(), starts.tolist()):
                weights[a:b] = _epanechnikov(
                    self._u[start:start + width] - at[a:b, None], smoothing.h)
            counts[point_order[rows]] = np.count_nonzero(weights, axis=1)
            self.groups.append(Group(point_order[rows], bounds, starts, centres, maps, weights))
        if np.any(counts < self.n_coef):
            k = int(np.argmin(counts))
            raise EffectiveSampleError(
                f"only {counts[k]} observations carry kernel weight at "
                f"u = {self.points[k]:.6g}; need at least {self.n_coef} "
                f"(bandwidth {smoothing.h} too small)"
            )

    def with_delta(self, delta) -> CurveFitter:
        """Copy sharing the groups; delta enters every cold start: those of
        initial_coefficients, of solve without warm and of its stall retry."""
        other = copy.copy(self)
        other.smoothing = replace(self.smoothing, delta=delta)
        return other

    def _local(self, group: Group, offsets) -> Group:
        """The group with its tile bases, each ending in its slice of the
        u-sorted offsets, and their column pair products."""
        columns = _columns(group)
        du = self._u[columns] - group.centres[:, None]    # (T, width)
        x = self._xt[:, columns].swapaxes(0, 1)           # (T, q, width)
        degree, q, d = self.smoothing.degree, self.n_curves, self.n_coef
        bases = np.empty((columns.shape[0], d + 1, columns.shape[1]))
        bases[:, :q] = x
        power = np.ones_like(du)
        for r in range(1, degree + 1):
            power = power * du / r
            np.multiply(power[:, None, :], x, out=bases[:, r * q:(r + 1) * q])
        bases[:, d] = offsets[columns]
        design = bases[:, :d].swapaxes(1, 2)
        pairs = design[:, :, :, None] * design[:, :, None, :]
        return group._replace(bases=bases, pairs=pairs.reshape(*columns.shape, -1))

    @staticmethod
    def _rows(group: Group, values) -> np.ndarray:
        """(b_g, width) the u-sorted values over each point's tile columns."""
        return np.repeat(values[_columns(group)], np.diff(group.bounds), axis=0)

    # -- elementary pieces, on one group's rows -------------------------------

    def _pass(self, linpred, y, w, objective=False):
        """One family pass, which overwrites the predictors (rows, width):
        the local objectives sum W Q (rows,), None without objective, then W
        q_1 and W b'' (rows, width)."""
        q, wq1, wb = self.family.evaluate(linpred, y, w, objective)
        return None if q is None else np.einsum("ei,ei->e", w, q), wq1, wb

    @staticmethod
    def _linpred(group, sel, coefs):
        """Predictors (rows, width) of rows sel: (M_e' a_e, 1)' times the
        basis with its offsets row, (M_e' a_e)' B + o.  Where BLAS sums the
        inner dimension in order, as OpenBLAS's matrix product does, this is
        the d-row product plus o bit for bit; at odd d its one-row product
        (matrix-vector) sums otherwise and may differ in the last bit."""
        maps = group.maps[sel]
        c = np.ones((maps.shape[0], maps.shape[1] + 1))
        c[:, :-1] = np.einsum("ers,er->es", maps, coefs)
        return _products(group, sel, c, group.bases)

    @staticmethod
    def _score(group, sel, weighted):
        """sum_i weighted_ei D_ei per row, (rows, d): M_e (weighted B')_e."""
        return np.einsum("ers,es->er", group.maps[sel],
                         _products(group, sel, weighted, group.bases[:, :-1].swapaxes(1, 2)))

    @staticmethod
    def _weighted_gram(group, sel, weighted):
        """sum_i weighted_ei D_ei D_ei' per row, (rows, d, d): M_e (weighted P)_e M_e'."""
        maps = group.maps[sel]
        gram = _products(group, sel, weighted, group.pairs).reshape(maps.shape)
        return maps @ gram @ np.swapaxes(maps, 1, 2)

    def _transformed_residuals(self, offsets):
        """u-sorted transformed response minus u-sorted offsets (the cold start's)."""
        return self.family.transform(self._y, self.smoothing.delta) - offsets

    def _cold(self, group, resid):
        """Weighted least squares on the group's transformed residuals (b_g, d)."""
        every = slice(None)
        return _ridged_solve(self._weighted_gram(group, every, group.weights),
                             self._score(group, every, group.weights * self._rows(group, resid)),
                             "local initializer", group.index)

    def initial_coefficients(self, offsets) -> np.ndarray:
        """Weighted least squares on the transformed response (cold start)."""
        offsets = _shaped(offsets, self.y.shape, "offsets")[self.order]
        resid = self._transformed_residuals(offsets)
        coefs = np.empty((self.points.size, self.n_coef))
        for group in self.groups:
            coefs[group.index] = self._cold(self._local(group, offsets), resid)
        return coefs

    # -- Newton iteration ---------------------------------------------------

    def solve(self, offsets, warm=None, z=None) -> BatchSolution:
        """Maximize every local objective for the given offsets.

        Each group is solved by ``_solve_group``, which returns its points'
        results, from its cold start when warm is None, and, given z,
        differentiated (``_differentiate``) before the next.  A warm-started
        point abandoned short of the iteration budget takes the result of its
        group's cold-start solve instead.  A solve that leaves points
        unconverged reports them in one debug record on the ``gvcplm`` logger.

        Args:
            offsets: z_i' beta per observation, shape (n,).
            warm: optional (m, d) starting coefficients.
            z: optional (n, p) linear covariates, for the derivative.

        An argument of another shape raises ParameterError naming it.
        """
        offsets = _shaped(offsets, self.y.shape, "offsets")[self.order]
        m, d = self.points.size, self.n_coef
        if warm is not None:
            warm = _shaped(warm, (m, d), "warm")
        # the cold start's residuals; from a warm start, computed if a point stalls
        resid = self._transformed_residuals(offsets) if warm is None else None
        coefs, gnorm = np.empty((m, d)), np.empty(m)
        converged, iters = np.empty(m, dtype=bool), np.empty(m, dtype=int)
        if z is not None:
            z = np.asarray(z, dtype=float)
            zs = _shaped(z, (self.y.size, z.shape[1] if z.ndim > 1 else 1), "z")[self.order]
            derivative = np.empty((m, d, zs.shape[1]))
        for group in self.groups:
            group, rows = self._local(group, offsets), group.index
            y = self._rows(group, self._y)
            start = self._cold(group, resid) if warm is None else warm[rows]
            solution = self._solve_group(group, y, start)
            stalled = ~solution[2] & (solution[3] < MAX_LOCAL_ITERS)
            if warm is not None and stalled.any():
                resid = self._transformed_residuals(offsets) if resid is None else resid
                cold = self._solve_group(group, y, self._cold(group, resid))
                for out, new in zip(solution, cold):
                    out[stalled] = new[stalled]
            coefs[rows], gnorm[rows], converged[rows], iters[rows], wb = solution
            if z is not None:
                derivative[rows] = self._differentiate(group, wb, zs)
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

    def _solve_group(self, group, y, coefs):
        """Damped Newton iteration of one group's points from coefs, a fresh
        (b_g, d) start updated in place; returns coefs, gnorm, converged,
        iters and the curvature (its last W b''), one row per point.

        y, the group's (b_g, width) responses, and its kernel weights w are
        read and never written; the predictors come from the group's bases,
        which end in the offsets.  Steps, ridges, halvings and convergence are
        decided on the points' own coefficients a_e (the local design D_e =
        M_e B), as for a per-point solve.  Each trial predictor gets one
        family pass for W q_1 and W b'' only, which overwrites it; the trial's
        score, taken once, serves both the certificate and the next
        convergence test.  With phi(t) the local objective along the step,
        concavity gives phi(1) - phi(0) >= phi'(1) = score(trial) . step, so a
        row whose phi'(1) >= -1e-10 has phi(1) >= phi(0) - 1e-10 >= phi(0) -
        1e-10 (1 + |phi(0)|), the acceptance test, and is accepted without Q;
        q_1 is Q's derivative at every predictor, so this holds on every row.
        Only the other rows get sum W Q at their current and trial
        coefficients, the predictors rebuilt for them alone, and the
        acceptance test with its halvings; where a step is halved, the score
        of every active row is taken again, as the next convergence test would
        take it.  An accepted trial's W q_1 and W b'' serve the next iterate;
        the Gram matrix of W b'' is the negated Hessian, solved as it is.
        Rows that converge or stall leave the active rows, whose w and y are
        compacted once when they do.
        """
        m, w = coefs.shape[0], group.weights
        gnorm, converged, iters = np.zeros(m), np.zeros(m, dtype=bool), np.zeros(m, dtype=int)
        every = slice(None)
        _, wq1, wb = self._pass(self._linpred(group, every, coefs), y, w)
        curvature = wb
        grad = self._score(group, every, wq1)
        del wq1

        active = np.arange(m)
        while True:
            # grad, wb, w and y hold the active rows
            sel = every if active.size == m else active
            gn = np.abs(grad).max(axis=1)
            gnorm[sel] = gn
            done = gn < LOCAL_TOL
            converged[active[done]] = True
            if done.any():
                keep = ~done
                active, grad, wb, w, y = (a[keep] for a in (active, grad, wb, w, y))
                sel = active
            if active.size == 0 or iters[sel].min() >= MAX_LOCAL_ITERS:
                # points that exhausted the budget stay converged=False
                break

            information = self._weighted_gram(group, sel, wb)   # minus the Hessian
            del wb   # held on only as curvature
            step = _ridged_solve(information, grad, "local Newton", group.index[active])

            trial_c = coefs[sel] + step
            _, trial_wq1, trial_wb = self._pass(self._linpred(group, sel, trial_c), y, w)
            grad = self._score(group, sel, trial_wq1)
            certified = np.einsum("er,er->e", grad, step) >= -1e-10   # a NaN slope is not
            rows = np.flatnonzero(~certified)
            stalled = rows[:0]
            if rows.size:
                # views, not copies, where every active row is uncertified
                part = every if rows.size == active.size else rows
                at = sel if part is every else active[rows]
                obj = self._pass(self._linpred(group, at, coefs[at]), y[part], w[part], True)[0]
                trial_obj = self._pass(self._linpred(group, at, trial_c[part]),
                                       y[part], w[part], True)[0]
                tol_obj = 1e-10 * (1.0 + np.abs(obj))
                bad = ~(trial_obj >= obj - tol_obj)   # a NaN objective is no ascent
                if bad.any():   # the score of a halved trial is taken again below
                    grad = None
                lam = np.ones(rows.size)
                for _ in range(MAX_HALVINGS):
                    if not bad.any():
                        break
                    lam[bad] *= 0.5
                    r = rows[bad]
                    trial_c[r] = coefs[active[r]] + lam[bad, None] * step[r]
                    trial_obj[bad], trial_wq1[r], trial_wb[r] = self._pass(
                        self._linpred(group, active[r], trial_c[r]), y[r], w[r], True)
                    bad = ~(trial_obj >= obj - tol_obj)
                stalled = rows[bad]
            if stalled.size:
                # stalled points (no ascent after max halvings) are abandoned
                keep = np.ones(active.size, dtype=bool)
                keep[stalled] = False
                active, trial_c, trial_wq1, trial_wb, w, y = (
                    a[keep] for a in (active, trial_c, trial_wq1, trial_wb, w, y))
                sel = active
            coefs[sel] = trial_c
            if active.size == m:   # rebound, not copied: frees the last W b''
                curvature = trial_wb
            else:
                curvature[sel] = trial_wb
            wb = trial_wb
            if grad is None:
                grad = self._score(group, sel, trial_wq1)
            del trial_wq1
            iters[sel] += 1

        return coefs, gnorm, converged, iters, curvature

    def _differentiate(self, group, wb, zs) -> np.ndarray:
        """(b_g, d, p) derivative of the group's local coefficients with
        respect to beta, from wb = W b'' = -W q_2 (b_g, width) at its
        solution, which is only read.

        It is the closed-form implicit derivative -S1^{-1} S2 of the local
        score equation (module docstring), with no family evaluation.  Both
        sums are one product per tile against its basis's leading d rows,
        taken with W b'', so each is the negated sum with W q_2: -S1 as in
        the Newton step, -S2 = M_e T_e with T_e = [(W b'')(B x z)]_e and B x
        z the (width, d p) products of the basis's columns with the tile's
        contiguous rows of the u-sorted z, zs.  So the derivative is
        (-S1)^{-1} M_e T_e, negated once at the end: one solve with the d
        columns of M_e as right-hand sides, whatever p is, then one batched
        product with T_e.  The ridge ladder decides on -S1 alone, as for any
        right-hand side.
        """
        d, p, width = self.n_coef, zs.shape[1], wb.shape[1]
        information = self._weighted_gram(group, slice(None), wb)
        tz = np.empty((wb.shape[0], d * p))
        kron = np.empty((width, d * p))   # C order, so no reshape copies it
        bounds = group.bounds.tolist()
        for a, b, basis, start in zip(bounds, bounds[1:], group.bases[:, :-1],
                                      group.starts.tolist()):
            np.multiply(basis.T[:, :, None], zs[start:start + width, None, :],
                        out=kron.reshape(width, d, p))
            np.matmul(wb[a:b], kron, out=tz[a:b])
        out = _ridged_solve(information, group.maps, "curve derivative", group.index) \
            @ tz.reshape(-1, d, p)
        return np.negative(out, out=out)

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


def _checked_beta(data: Dataset, beta, name: str = "beta") -> np.ndarray:
    beta = _shaped(beta, (data.n_linear,), name)
    if not np.all(np.isfinite(beta)):
        raise ParameterError(f"{name} must be finite")
    return beta


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
    if grid is None:
        grid = default_grid(data)
    fitter = CurveFitter(fam, data.x, data.y, data.u, smoothing, grid)
    sol = fitter.solve(data.z @ _checked_beta(data, beta))
    return CurveEstimate(grid=fitter.points, values=fitter.curve_values(sol).copy())

