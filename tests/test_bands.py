"""The tiled kernel windows of ``CurveFitter`` against the dense problem.

``CurveFitter`` keeps, per tile of evaluation points, only the observations
inside the union of their kernel windows, and computes every local sum
against the tile's shared basis.  The references here are written densely,
per point, over all n observations with the full (m, n) kernel weights, so
they check that neither the dropped zero-weight entries nor the shared basis
changes the local fits and their beta-derivative beyond rounding.
"""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

import gvcplm as g
from gvcplm import CurveFitter, EffectiveSampleError, SmoothingParams, smoothing
from gvcplm.smoothing import LOCAL_TOL, MAX_LOCAL_ITERS

from conftest import log_passes, trials
from oracles import epanechnikov


def _dense_design(u, x, point, degree):
    """(n, d) local polynomial design at one point, blocks r = 0..degree."""
    t = u - point
    return np.hstack([x * (t[:, None] ** r / math.factorial(r)) for r in range(degree + 1)])


def _dense_weights(u, points, smoothing):
    return epanechnikov(u[None, :] - points[:, None], smoothing.h)


def _dense_local_fit(family, u, x, y, offsets, point, smoothing):
    """The documented local fit, written over all n observations: weighted
    least squares on the transformed response, then Newton steps, halved
    while they lower the objective, until the score is below LOCAL_TOL."""
    fam = g.get_family(family)
    design = _dense_design(u, x, point, smoothing.degree)
    w = epanechnikov(u - point, smoothing.h)
    resid = fam.transform(y, smoothing.delta) - offsets
    coef = np.linalg.solve(design.T @ (w[:, None] * design), design.T @ (w * resid))

    def objective(c):
        return float(w @ fam.q012(design @ c + offsets, y)[0])

    for _ in range(MAX_LOCAL_ITERS):
        lin = design @ coef + offsets
        grad = design.T @ (w * fam.q(1, lin, y))
        if np.abs(grad).max() < LOCAL_TOL:
            break
        hess = design.T @ ((w * fam.q(2, lin, y))[:, None] * design)
        step = np.linalg.solve(-hess, grad)
        base = objective(coef)
        lam = 1.0
        while objective(coef + lam * step) < base - 1e-10 * (1.0 + abs(base)):
            lam *= 0.5
        coef = coef + lam * step
    return coef


# ---------------------------------------------------------------------------
# property: the band solves the dense problem

U_STEPS = 40    # u lies on a grid of spacing 1/U_STEPS, so ties are common


@st.composite
def banded_problems(draw):
    family = draw(st.sampled_from(["gaussian", "poisson", "bernoulli"]))
    degree = draw(st.integers(0, 2))
    d = 2 * (degree + 1)                      # x = (1, x2)
    distinct = draw(st.lists(st.integers(0, U_STEPS), min_size=d, max_size=25,
                             unique=True))
    ties = draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=8))
    u = np.array(distinct + ties, dtype=float) / U_STEPS
    u = u[np.array(draw(st.permutations(range(u.size))))]
    lo, hi = u.min(), u.max()
    points = np.array(draw(st.lists(
        st.floats(lo - 0.5, hi + 0.5, allow_nan=False), min_size=1, max_size=6)))
    # each point needs d distinct u values strictly inside its window; past
    # the largest distance every observation is inside and w = n
    levels = np.unique(u)
    feasible = max(np.sort(np.abs(levels - p))[d - 1] for p in points)
    widest = np.abs(u[None, :] - points[:, None]).max()
    low, top = 1.01 * feasible, max(1.01 * widest, 1.02 * feasible)
    h = low * (top / low) ** draw(st.floats(0.0, 1.0))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return family, degree, u, points, h, seed


# bernoulli responses in (0, 1) keep every local fit finite; the check for 0/1
# responses is not under test with them
FRACTIONAL_BERNOULLI = dataclasses.replace(g.BERNOULLI, validate_response=lambda y: None)


def _problem_arrays(family, u, seed):
    """(family to fit with, x, z, y, offsets) of a problem at u."""
    gen = np.random.default_rng(seed)
    n = u.size
    x = np.column_stack([np.ones(n), gen.normal(size=n)])
    z = gen.normal(size=(n, 3))
    offsets = z @ np.array([0.3, -0.2, 0.1])
    if family == "gaussian":
        y = gen.normal(size=n)
    elif family == "poisson":
        y = gen.poisson(3.0, size=n) + 0.5   # positive, so every local fit is finite
    else:
        y = gen.uniform(0.1, 0.9, size=n)    # inside (0, 1), same reason
        family = FRACTIONAL_BERNOULLI
    return family, x, z, y, offsets


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(banded_problems())
def test_band_solves_dense_problem(problem):
    family, degree, u, points, h, seed = problem
    family, x, z, y, offsets = _problem_arrays(family, u, seed)
    sm = SmoothingParams(h=h, delta=0.1, degree=degree)
    fitter = CurveFitter(family, x, y, u, sm, points)
    sol = fitter.solve(offsets, z=z)
    assert sol.converged.all()

    # (a) the dense local score vanishes at the band's coefficients
    score = _dense_score(family, u, x, y, offsets, points, sm, sol.coefficients)
    assert np.abs(score).max() < 1e-7

    # (b) alpha_prime is -S1^{-1} S2 of the dense kernel sums, compared where
    # S1 is well conditioned
    derivative, cond = _dense_derivative(family, u, x, y, z, offsets, points, sm,
                                         sol.coefficients)
    event(f"well-conditioned points: {(cond < 1e5).sum()} of {cond.size}")
    _assert_close_where_well_conditioned(fitter.alpha_prime(sol),
                                         derivative[:, :, :2], cond)


# ---------------------------------------------------------------------------
# property: a warm start with some points already converged


@st.composite
def partly_converged(draw):
    problem = draw(banded_problems())
    done = draw(st.lists(st.booleans(), min_size=problem[3].size,
                         max_size=problem[3].size))
    # the unconverged points start this far below the cold start on the a_0
    # intercept; a saturated bernoulli window can overshoot to |eta| ~ 25,
    # where q_2 ~ 1e-11 and 20 halvings cannot undo the next step, and such a
    # point is solved again from its cold start
    push = draw(st.sampled_from([0.0, -1.0, -3.0]))
    return problem, np.array(done), push, False


# a poisson start 8 below the local fit: the first Newton steps overshoot and
# are halved
_HALVING_DRAW = (("poisson", 1, np.arange(0, 41, 2) / 40.0, np.array([0.3, 0.5, 0.8]),
                  0.3, 7), np.array([True, False, False]), -8.0, True)


# a bernoulli window of two observations for two coefficients, started 3
# below: two Newton steps take one predictor to -24, the third step is about
# 1.5e10 long and 20 halvings find no ascent, so the warm start stalls and
# every point is solved again from its cold start
_STALLING_DRAW = (("bernoulli", 0, np.array([2, 1, 3, 0, 2, 2, 2, 2, 2, 2]) / 40.0,
                   np.zeros(5), 0.02525, 1), np.zeros(5, dtype=bool), -3.0, False)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(partly_converged())
@example(_HALVING_DRAW)
@example(_STALLING_DRAW)
def test_warm_solve_with_converged_points(draw):
    (family, degree, u, points, h, seed), done, push, must_halve = draw
    family, x, z, y, offsets = _problem_arrays(family, u, seed)
    sm = SmoothingParams(h=h, delta=0.1, degree=degree)
    fitter = CurveFitter(family, x, y, u, sm, points)
    first = fitter.solve(offsets)
    assert first.converged.all()
    warm = fitter.initial_coefficients(offsets)
    warm[:, 0] += push
    warm[done] = first.coefficients[done]

    log = log_passes(fitter)
    sol = fitter.solve(offsets, warm=warm)
    # a trial's Q passes beyond the two of its uncertified rows (at their
    # current and trial coefficients) are step halvings
    halvings = sum(max(len(run["q_passes"]) - 2, 0) for run in trials(log))
    event(f"step halvings: {'some' if halvings else 'none'}")
    if must_halve:
        assert halvings > 0

    assert np.array_equal(sol.coefficients[done], first.coefficients[done])
    assert np.all(sol.iterations[done] == 0)
    assert sol.converged.all()
    rest = ~done
    if not rest.any():
        return
    score = _dense_score(family, u, x, y, offsets, points[rest], sm,
                         sol.coefficients[rest])
    assert np.abs(score).max() < 1e-7


# ---------------------------------------------------------------------------
# dense references over a fitter's tiles


def _tile_slices(group):
    """(rows, columns) of each tile of a group: its slice of the group's
    points and its slice of the u-sorted observations."""
    width = group.weights.shape[1]
    return [(slice(a, b), slice(start, start + width)) for a, b, start in zip(
        group.bounds[:-1].tolist(), group.bounds[1:].tolist(), group.starts.tolist())]


def _scattered_weights(fitter):
    """The groups' kernel weights, scattered into the dense (m, n) layout."""
    dense = np.zeros((fitter.points.size, fitter.y.size))
    for group in fitter.groups:
        for rows, columns in _tile_slices(group):
            dense[np.ix_(group.index[rows], fitter.order[columns])] = group.weights[rows]
    return dense


def _dense_initial(family, u, x, y, offsets, points, smoothing):
    """The cold start's weighted least squares over all n observations, (m, d),
    with the condition number of each system."""
    fam = g.get_family(family)
    resid = fam.transform(y, smoothing.delta) - offsets
    weights = _dense_weights(u, points, smoothing)
    design = np.stack([_dense_design(u, x, p, smoothing.degree) for p in points])
    mats = np.einsum("ei,eid,eif->edf", weights, design, design)
    rhs = np.einsum("ei,eid,i->ed", weights, design, resid)
    return np.linalg.solve(mats, rhs[..., None])[..., 0], np.linalg.cond(mats)


def _dense_systems(family, u, x, y, z, offsets, points, smoothing, coefficients):
    """The dense kernel sums S1 (m, d, d) and S2 (m, d, p) of the derivative's
    systems, with q_2 at the given local coefficients."""
    fam = g.get_family(family)
    weights = _dense_weights(u, points, smoothing)
    design = np.stack([_dense_design(u, x, p, smoothing.degree) for p in points])
    lin = np.einsum("eid,ed->ei", design, coefficients) + offsets
    wq2 = weights * fam.q(2, lin, y)
    return (np.einsum("ei,eid,eif->edf", wq2, design, design),
            np.einsum("ei,eid,ik->edk", wq2, design, z))


def _dense_derivative(family, u, x, y, z, offsets, points, smoothing, coefficients):
    """-S1^{-1} S2 of the dense kernel sums at the given local coefficients,
    (m, p, d), with the condition number of each S1."""
    s1, s2 = _dense_systems(family, u, x, y, z, offsets, points, smoothing, coefficients)
    return np.swapaxes(-np.linalg.solve(s1, s2), 1, 2), np.linalg.cond(s1)


def _dense_score(family, u, x, y, offsets, points, smoothing, coefficients):
    """The dense local score (m, d) at the given local coefficients."""
    fam = g.get_family(family)
    weights = _dense_weights(u, points, smoothing)
    design = np.stack([_dense_design(u, x, p, smoothing.degree) for p in points])
    lin = np.einsum("eid,ed->ei", design, coefficients) + offsets
    return np.einsum("ei,eid->ed", weights * fam.q(1, lin, y), design)


def _assert_close_where_well_conditioned(got, expected, cond, tol=1e-10):
    """got matches expected, relative to each point's largest entry, at the
    points whose system has condition number under 1e5: rounding alone moves
    the solve of a matrix with condition number c by about c * 1e-16."""
    well = cond < 1e5
    axes = tuple(range(1, expected.ndim))
    scale = np.abs(expected).max(axis=axes, keepdims=True)
    assert np.all((np.abs(got - expected) <= tol * scale)[well])


# ---------------------------------------------------------------------------
# property: every stage of the tiled solver against the dense reference

@st.composite
def tiled_problems(draw):
    family = draw(st.sampled_from(["poisson", "bernoulli"]))
    degree = draw(st.integers(0, 2))
    d = 2 * (degree + 1)
    distinct = draw(st.lists(st.integers(0, U_STEPS), min_size=d + 1, max_size=30,
                             unique=True))
    ties = draw(st.lists(st.sampled_from(distinct), max_size=10))
    u = np.array(distinct + ties, dtype=float) / U_STEPS
    u = u[np.array(draw(st.permutations(range(u.size))))]
    lo, hi = u.min(), u.max()
    where = draw(st.sampled_from(["observations", "grid", "one point"]))
    if where == "observations":
        points = u
    elif where == "grid":
        points = np.linspace(lo, hi, draw(st.integers(2, 12)))
    else:
        points = np.array([draw(st.floats(lo, hi))])
    levels = np.unique(u)
    feasible = max(np.sort(np.abs(levels - p))[d - 1] for p in points)
    widest = np.abs(u[None, :] - points[:, None]).max()
    low, top = 1.01 * feasible, max(1.01 * widest, 1.02 * feasible)
    h = low * (top / low) ** draw(st.floats(0.0, 1.0))
    # tiles of one point, a few points, or as many as the default allows,
    # and with a span of 0 or 3, narrow tiles in groups of several
    elements = draw(st.sampled_from([1, 64, 1 << 15]))
    span = draw(st.sampled_from([0, 3, 32]))
    return family, degree, u, points, where, h, elements, span, draw(
        st.integers(0, 2 ** 32 - 1))


# narrow tiles, several to a group: every point's own tile but one
_GROUPED_DRAWS = [
    ("poisson", 1, np.arange(41) / 40.0, np.arange(41) / 40.0, "observations", 0.3,
     1 << 15, 0, 3),
    ("bernoulli", 2, np.arange(41) / 40.0, np.linspace(0.0, 1.0, 12), "grid", 0.4,
     1 << 15, 3, 5),
]


# six observations in a boundary window for six coefficients, with an
# information matrix of condition number about 2e12 (first draw) and 4e13
# (second): past the ridge ladder's limit of 1e12, so every Newton step of
# that point is ridged (relative ridge 1e-10) and converges only linearly.
# It leaves the 50-iteration budget flagged unconverged, with gradient
# norm 7.8e-8 and 3.5e-6; unridged, it would converge in 3 iterations.
_RIDGED_DRAWS = [
    ("poisson", 2, np.arange(7) / 40.0, np.arange(7) / 40.0, "observations", 0.12625, 1,
     0, 8),
    ("poisson", 2, np.array([7, 1, 0, 2, 3, 4, 5]) / 40.0,
     np.array([7, 1, 0, 2, 3, 4, 5]) / 40.0, "observations", 0.1515, 1, 0, 2),
]
_EMPTY_DRAW = ("bernoulli", 1, np.arange(9) / 40.0, np.array([]), "grid", 0.1, 1 << 15,
               32, 4)
# tied u, at tied points in tiles of one point and at one point
_TIED_U = np.array([4, 0, 2, 2, 8, 1, 4, 4, 3, 5, 6]) / 40.0
_TIED_DRAWS = [
    ("poisson", 1, _TIED_U, _TIED_U, "observations", 0.11, 1, 0, 5),
    ("bernoulli", 0, _TIED_U, np.array([0.07]), "one point", 0.11, 64, 3, 6),
]


def _assert_solved(solution, score, cond):
    """Each point converged, its dense score (m, d) under 1e-7, or is
    flagged: out of the iteration budget unconverged, at a system past the
    ridge ladder's condition limit (the dense cond over 1e11), reporting its
    dense score's norm as its gradient norm.  Returns the flagged points."""
    flagged = ~solution.converged
    score = np.abs(score).max(axis=1)
    assert np.all(score[~flagged] < 1e-7)
    assert np.all(solution.iterations[flagged] == MAX_LOCAL_ITERS)
    assert np.all(cond[flagged] > 1e11)
    assert np.all(np.abs(solution.gradient_norm - score)[flagged]
                  <= 1e-9 + 1e-6 * score[flagged])
    return flagged


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(tiled_problems())
@example(_GROUPED_DRAWS[0])
@example(_GROUPED_DRAWS[1])
@example(_RIDGED_DRAWS[0])
@example(_RIDGED_DRAWS[1])
def test_tiles_agree_with_dense_reference(problem):
    family, degree, u, points, where, h, elements, span, seed = problem
    family, x, z, y, offsets = _problem_arrays(family, u, seed)
    sm = SmoothingParams(h=h, delta=0.1, degree=degree)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(g.smoothing, "_BLOCK_ELEMENTS", elements)
        patch.setattr(g.smoothing, "_TILE_SPAN", span)
        fitter = CurveFitter(family, x, y, u, sm, points)
        tiles = sum(group.starts.size for group in fitter.groups)
        groups = len(fitter.groups)
        event(f"{where}: " + ("one tile" if tiles == 1 else "several tiles per group"
                              if tiles > groups else "one tile per group"))
        dense = (family, u, x, y, offsets, points, sm)

        initial = fitter.initial_coefficients(offsets)
        _assert_close_where_well_conditioned(initial, *_dense_initial(*dense))

        cold = fitter.solve(offsets, z=z)
        derivative, cond = _dense_derivative(family, u, x, y, z, offsets, points, sm,
                                             cold.coefficients)
        if _assert_solved(cold, _dense_score(*dense, cold.coefficients), cond).any():
            event("flagged points past the condition limit")

        warm = cold.coefficients.copy()
        warm[:, 0] -= 1.0
        warm_sol = fitter.solve(offsets, warm=warm)
        s1, _ = _dense_systems(family, u, x, y, z, offsets, points, sm, warm_sol.coefficients)
        _assert_solved(warm_sol, _dense_score(*dense, warm_sol.coefficients),
                       np.linalg.cond(s1))

        _assert_close_where_well_conditioned(cold.derivative, derivative, cond)

        if where == "observations":
            data = g.Dataset(u=u, x=x, z=z, y=y)
            engine = g.ProfileEngine(family, data, sm)
            beta = np.array([0.3, -0.2, 0.1])
            state = engine.state(beta)
            move = np.array([0.01, 0.02, -0.01])
            derivative, cond = _dense_derivative(
                family, u, x, y, z, offsets, points, sm, state.solution.coefficients)
            _assert_close_where_well_conditioned(
                engine.tangent_start(state, beta + move) - state.solution.coefficients,
                np.einsum("epd,p->ed", derivative, move), cond)


def test_a_window_past_the_condition_limit_is_flagged():
    # the first ridged draw: its last point alone is flagged, at a gradient
    # norm under the dense score bound, and the same solve without the ridge
    # ladder's limit converges
    family, degree, u, points, _, h, elements, span, seed = _RIDGED_DRAWS[0]
    family, x, z, y, offsets = _problem_arrays(family, u, seed)
    sm = SmoothingParams(h=h, delta=0.1, degree=degree)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(g.smoothing, "_BLOCK_ELEMENTS", elements)
        patch.setattr(g.smoothing, "_TILE_SPAN", span)
        fitter = CurveFitter(family, x, y, u, sm, points)
        sol = fitter.solve(offsets)
        assert sol.converged.tolist() == [True] * 6 + [False]
        assert sol.iterations[-1] == MAX_LOCAL_ITERS and sol.gradient_norm[-1] < 1e-7
        patch.setattr(g.smoothing, "_CONDITION_LIMIT", 1e15)
        patch.setattr(g.smoothing, "_LOG_CLEARED", math.log(1e13))
        assert fitter.solve(offsets).converged.all()


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(tiled_problems())
@example(_GROUPED_DRAWS[0])
@example(_RIDGED_DRAWS[1])
@example(_EMPTY_DRAW)
@example(_TIED_DRAWS[0])
@example(_TIED_DRAWS[1])
def test_groups_are_built_once_from_their_tiles(problem):
    # each group holds what a per-tile build gives, bit for bit, and its
    # Taylor maps are built by the constructor alone, once per group
    family, degree, u, points, _, h, elements, span, seed = problem
    family, x, z, y, offsets = _problem_arrays(family, u, seed)
    sm = SmoothingParams(h=h, delta=0.1, degree=degree)
    shift_matrices, calls = smoothing._shift_matrices, []

    def counted(*args):
        calls.append(1)
        return shift_matrices(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(g.smoothing, "_BLOCK_ELEMENTS", elements)
        patch.setattr(g.smoothing, "_TILE_SPAN", span)
        patch.setattr(g.smoothing, "_shift_matrices", counted)
        fitter = CurveFitter(family, x, y, u, sm, points)
        assert len(calls) == len(fitter.groups)
        fitter.initial_coefficients(offsets)
        cold = fitter.solve(offsets, z=z)
        fitter.solve(offsets, warm=cold.coefficients - 1.0, z=z)
        assert len(calls) == len(fitter.groups)
        order, lo, hi = smoothing._kernel_windows(u, points, h)
        point_order = np.argsort(points, kind="stable")
        lo, hi, at = lo[point_order], hi[point_order], points[point_order]
        layout = smoothing._layout(lo, hi)

    assert len(fitter.groups) == len(layout) and (layout or points.size == 0)
    for group, (bounds, width) in zip(fitter.groups, layout):
        tiles = list(zip(bounds, bounds[1:]))
        assert width == max(int(hi[b - 1] - lo[a]) for a, b in tiles)
        rows = slice(tiles[0][0], tiles[-1][1])
        assert group.weights.shape == (rows.stop - rows.start, width)
        assert np.array_equal(group.index, point_order[rows])
        assert group.bounds.tolist() == [a - rows.start for a, _ in tiles] \
            + [rows.stop - rows.start]
        assert group.bases is None and group.pairs is None
        for k, (a, b) in enumerate(tiles):
            start = min(int(lo[a]), u.size - width)
            centre = 0.5 * (at[a] + at[b - 1])
            assert group.starts[k] == start and _same_bits(group.centres[k], centre)
            tile = slice(a - rows.start, b - rows.start)
            assert _same_bits(group.weights[tile], smoothing._epanechnikov(
                u[order][start:start + width] - at[a:b, None], h))
            assert _same_bits(group.maps[tile], shift_matrices(at[a:b] - centre, degree, 2))


# ---------------------------------------------------------------------------
# unit tests that lock the tiles


def _poisson_data(n=400, seed=5):
    design = g.make_design("poisson", n)
    return design, g.generate(design, seed=g.replicate_seed(seed, 1))


class TestBandedWindows:
    def test_width_is_the_largest_window(self):
        # each tile's columns hold the union of its points' windows, within
        # the span and size bounds, padded to its group's width, and far
        # fewer than n observations
        _, data = _poisson_data()
        sm = SmoothingParams(h=0.05, delta=0.1)
        radius = sm.h
        grid = g.default_grid(data)
        for points in (data.u, grid):
            fitter = CurveFitter("poisson", data.x, data.y, data.u, sm, points)
            sorted_u = data.u[fitter.order]
            inside = np.abs(sorted_u[None, :] - points[:, None]) <= radius
            windows = inside.sum(axis=1)
            point_order, covered = np.argsort(points, kind="stable"), 0
            for group in fitter.groups:
                width = group.weights.shape[1]
                unions = []
                for rows, columns in _tile_slices(group):
                    caller = group.index[rows]
                    union = np.flatnonzero(inside[caller].any(axis=0))
                    assert columns.start <= union[0] and union[-1] < columns.stop <= data.n
                    unions.append(union[-1] + 1 - union[0])
                    if caller.size > 1:
                        assert unions[-1] <= windows[caller].max() + smoothing._TILE_SPAN
                        assert caller.size * unions[-1] <= smoothing._BLOCK_ELEMENTS
                    assert np.array_equal(caller, point_order[covered:covered + caller.size])
                    covered += caller.size
                assert width == max(unions) and width < data.n
                assert group.weights.shape[0] == group.bounds[-1] == group.index.size
                if len(unions) > 1:
                    assert group.weights.size <= smoothing._BLOCK_ELEMENTS
            assert covered == points.size

    def test_every_nonzero_weight_is_in_the_band(self):
        _, data = _poisson_data()
        sm = SmoothingParams(h=0.05, delta=0.1)
        fitter = CurveFitter("poisson", data.x, data.y, data.u, sm, data.u)
        np.testing.assert_array_equal(_scattered_weights(fitter),
                                      _dense_weights(data.u, data.u, sm))

    def test_heldout_point_beyond_training_range(self):
        _, data = _poisson_data()
        sm = SmoothingParams(h=0.05, delta=0.1)
        points = np.array([0.5, 1.2])
        message = ("only 0 observations carry kernel weight at u = 1.2; "
                   "need at least 4 (bandwidth 0.05 too small)")
        with pytest.raises(EffectiveSampleError, match=re.escape(message)):
            CurveFitter("poisson", data.x, data.y, data.u, sm, points)

    def test_display_grid_curve_matches_dense_fit(self):
        design, data = _poisson_data()
        sm = SmoothingParams(h=0.08, delta=0.1)
        curve = g.fit_curve("poisson", data, design.beta0, sm)
        offsets = data.z @ design.beta0
        expected = np.array([
            _dense_local_fit("poisson", data.u, data.x, data.y, offsets, p, sm)[:2]
            for p in curve.grid
        ])
        # relative to the largest curve value: a point whose score lands
        # within rounding of LOCAL_TOL may take one Newton step more on one
        # side, which moves a value near zero by ~1e-13
        np.testing.assert_allclose(curve.values, expected, rtol=0,
                                   atol=1e-12 * np.abs(expected).max())

    def test_wide_bandwidth_keeps_every_observation(self):
        _, data = _poisson_data(n=100)
        sm = SmoothingParams(h=2.0, delta=0.1)
        fitter = CurveFitter("poisson", data.x, data.y, data.u, sm, data.u)
        assert all(np.all(group.starts == 0) and group.weights.shape[1] == data.n
                   for group in fitter.groups)
        assert np.all(_scattered_weights(fitter) > 0)


@pytest.mark.parametrize("family", ["poisson", "bernoulli"])
def test_no_fitter_array_holds_a_local_design(family):
    # the stored bands are the groups' kernel weights, each row at most
    # _TILE_SPAN wider than the widest window, beside the points' (m, d, d)
    # Taylor maps and O(n) arrays: no array, and not all of them together,
    # is as large as an (m, d, w) local design
    data = g.generate(g.make_design(family, 1500), seed=g.replicate_seed(9, 3))
    delta, h = g.preset_smoothing(family, 1500)
    sm = SmoothingParams(h=h, delta=delta)
    fitter = g.ProfileEngine(family, data, sm).fitter
    w = (np.abs(data.u[None, :] - data.u[:, None]) <= h).sum(axis=1).max()

    def arrays(value):
        if isinstance(value, (list, tuple)):   # the groups, and their fields
            return [a for v in value for a in arrays(v)]
        return [value] if isinstance(value, np.ndarray) else []

    stored = arrays(list(vars(fitter).values()))
    assert sum(group.weights.size
               for group in fitter.groups) <= data.n * (w + smoothing._TILE_SPAN)
    assert sum(a.size for a in stored) < data.n * fitter.n_coef * w


# ---------------------------------------------------------------------------
# the derivative over contiguous windows against the dense one


class TestContiguousWindows:
    @staticmethod
    def _check(family, data, sm, points):
        fitter = CurveFitter(family, data.x, data.y, data.u, sm, points)
        offsets = data.z @ np.linspace(-0.2, 0.2, data.n_linear)
        sol = fitter.solve(offsets, z=data.z)
        got = sol.derivative
        assert got.shape == (points.size, data.n_linear, fitter.n_coef)
        # every point in every tile, or a sample of at most 300 in each
        rows = slice(None, None, -(-points.size // 300))
        expected, cond = _dense_derivative(family, data.u, data.x, data.y, data.z, offsets,
                                           points[rows], sm, sol.coefficients[rows])
        _assert_close_where_well_conditioned(got[rows], expected, cond)
        assert np.array_equal(fitter.alpha_prime(sol), got[:, :, : data.n_curves])
        return fitter

    @pytest.mark.parametrize("family", ["poisson", "bernoulli"])
    @pytest.mark.parametrize("n", [200, 1500])
    def test_benchmark_designs(self, family, n):
        data = g.generate(g.make_design(family, n), seed=g.replicate_seed(9, 0))
        delta, h = g.preset_smoothing(family, n)
        self._check(family, data, SmoothingParams(h=h, delta=delta), data.u)

    @pytest.mark.parametrize("family", ["poisson", "bernoulli"])
    def test_ties_in_u(self, family):
        data = g.generate(g.make_design(family, 400), seed=g.replicate_seed(9, 1))
        tied = g.Dataset(u=np.round(data.u * U_STEPS) / U_STEPS, x=data.x,
                         z=data.z, y=data.y)
        delta, h = g.preset_smoothing(family, 400)
        self._check(family, tied, SmoothingParams(h=h, delta=delta), tied.u)

    @pytest.mark.parametrize("family", ["poisson", "bernoulli"])
    def test_points_beyond_the_data_range(self, family):
        data = g.generate(g.make_design(family, 400), seed=g.replicate_seed(9, 2))
        sm = SmoothingParams(h=0.4 if family == "bernoulli" else 0.2, delta=0.1)
        points = np.linspace(-0.15, 1.15, 27)
        fitter = self._check(family, data, sm, points)
        first, last = fitter.groups[0], fitter.groups[-1]
        assert first.starts[0] == 0 and last.starts[-1] + last.weights.shape[1] == data.n
        assert max(np.count_nonzero(group.weights, axis=1).max()
                   for group in fitter.groups) < data.n
