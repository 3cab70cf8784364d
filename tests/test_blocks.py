"""``CurveFitter`` run one group of tiles of points at a time.

Every local problem is solved on its own, in its points' own coefficients,
so any tiling must agree with the dense per-point reference, and the same
tiling must give the same bits on every run.  A group's temporaries must not
grow with the number of points.
"""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

import gvcplm as g
from gvcplm import CurveFitter, EffectiveSampleError, SingularityError, SmoothingParams
from gvcplm import smoothing

from test_bands import _assert_close_where_well_conditioned, _dense_derivative, _dense_score


def _dataset(family, n, seed):
    data = g.generate(g.make_design(family, n), seed=g.replicate_seed(seed, 0))
    delta, h = g.preset_smoothing(family, n)
    return data, delta, h


def _outputs(engine, beta):
    """Every stage of the fitter and the engine at beta."""
    fitter, data = engine.fitter, engine.data
    offsets = data.z @ beta
    cold = fitter.solve(offsets)
    # some points start converged, others 3 below their fit, so active
    # subsets and step halvings occur inside the tiles
    warm = cold.coefficients.copy()
    warm[::3, 0] -= 3.0
    differentiated = fitter.solve(offsets, z=data.z)
    state = engine.state(beta)
    return {
        "weights": [group.weights for group in fitter.groups],
        "cold": cold,
        "warm": fitter.solve(offsets * 1.01, warm=warm),
        "initial": fitter.initial_coefficients(offsets),
        "differentiated": differentiated,
        "strides": differentiated.derivative.strides,
        "loglik": state.loglik,
        "tangent": engine.tangent_start(state, beta * 1.01),
    }


def _flat(value):
    """The arrays of an output, in order: a solution's fields and the groups'
    weights are tuples and lists of arrays."""
    if isinstance(value, (list, tuple)):
        return [a for v in value for a in _flat(v)]
    return [value]


def _assert_bit_equal(expected, got):
    for key, value in expected.items():
        a, b = _flat(value), _flat(got[key])
        assert len(a) == len(b) and all(map(np.array_equal, a, b)), key


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_tilings_repeat_bit_for_bit_and_agree_with_dense(data_strategy):
    draw = data_strategy.draw
    family = draw(st.sampled_from(["poisson", "bernoulli"]))
    n = draw(st.integers(60, 240))
    data, delta, h = _dataset(family, n, draw(st.integers(0, 2 ** 16)))
    sm = SmoothingParams(h=h * draw(st.floats(1.0, 2.0)), delta=delta,
                         degree=draw(st.integers(0, 1)))
    beta = np.linspace(-0.2, 0.2, data.n_linear)
    partition = draw(st.sampled_from(["points", "random", "default"]))
    default = smoothing._BLOCK_ELEMENTS
    elements = {"points": 1, "random": draw(st.integers(1, n * n)),
                "default": default}[partition]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(smoothing, "_BLOCK_ELEMENTS", elements)
        try:
            engine = g.ProfileEngine(family, data, sm)
        except EffectiveSampleError as exc:
            # a window with fewer observations than coefficients: every
            # tiling counts each point's own window, so all say the same
            for each in (default, 1):
                patch.setattr(smoothing, "_BLOCK_ELEMENTS", each)
                with pytest.raises(EffectiveSampleError) as again:
                    g.ProfileEngine(family, data, sm)
                assert str(again.value) == str(exc)
            event(f"{partition}: too few observations in a window")
            return
        event(f"{partition}: {'one group' if len(engine.fitter.groups) == 1 else 'groups'}")
        expected = _outputs(engine, beta)
        # the same bits again from an engine built for another delta and
        # moved to this one
        other = g.ProfileEngine(family, data, SmoothingParams(
            h=sm.h, delta=2.0 * delta, degree=sm.degree))
        _assert_bit_equal(expected, _outputs(other.with_delta(delta), beta))

    # and the dense per-point reference; the derivative leaves the solve as it is
    cold, offsets = expected["cold"], data.z @ beta
    differentiated = expected["differentiated"]
    assert np.array_equal(differentiated.coefficients, cold.coefficients)
    dense = (family, data.u, data.x, data.y)
    assert cold.converged.all()
    assert np.abs(_dense_score(*dense, offsets, data.u, sm, cold.coefficients)).max() < 1e-7
    _assert_close_where_well_conditioned(differentiated.derivative, *_dense_derivative(
        *dense, data.z, offsets, data.u, sm, cold.coefficients))


@pytest.mark.parametrize("elements", (1, smoothing._BLOCK_ELEMENTS))
def test_a_window_short_of_observations_raises_under_every_tiling(elements):
    # a draw of the property above: poisson, n = 60, dataset seed 199,
    # degree 1 at the preset h, where one boundary window holds 3 observations
    data, delta, h = _dataset("poisson", 60, 199)
    message = "only 3 observations carry kernel weight at u = 0.987476; need at least 4"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(smoothing, "_BLOCK_ELEMENTS", elements)
        with pytest.raises(EffectiveSampleError, match=re.escape(message)):
            g.ProfileEngine("poisson", data, SmoothingParams(h=h, delta=delta, degree=1))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 60)), max_size=200),
       st.integers(1, 1 << 12))
def test_tiles_partition_the_points_within_bounds(steps, elements):
    # window bounds of u-sorted points are nondecreasing: drawn as increments
    lo = np.cumsum([step for step, _ in steps], dtype=int)
    hi = np.maximum.accumulate(lo + np.array([width for _, width in steps], dtype=int))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(smoothing, "_BLOCK_ELEMENTS", elements)
        layout = smoothing._layout(lo, hi)
    tiles = [(a, b) for bounds, _ in layout for a, b in zip(bounds, bounds[1:])]
    unions = [hi[b - 1] - lo[a] for a, b in tiles]
    stops = np.cumsum([len(bounds) - 1 for bounds, _ in layout]).tolist()
    groups = list(zip([0] + stops[:-1], stops))
    assert [width for _, width in layout] == [max(unions[a:b]) for a, b in groups]

    def tile_fits(a, b):
        union = hi[b - 1] - lo[a]
        return b - a == 1 or (union <= (hi - lo)[a:b].max() + smoothing._TILE_SPAN
                              and (b - a) * union <= elements)

    def group_fits(first, stop):
        points = tiles[stop - 1][1] - tiles[first][0]
        return stop - first == 1 or points * max(unions[first:stop]) <= elements

    # consecutive runs that cover every point and every tile once, each
    # within its bounds, and stopped only where the next would break one
    for runs, count, fits in ((tiles, lo.size, tile_fits),
                              (groups, len(tiles), group_fits)):
        assert [i for a, b in runs for i in range(a, b)] == list(range(count))
        assert all(fits(a, b) for a, b in runs)
        assert all(not fits(a, b + 1) for a, b in runs[:-1])


@pytest.mark.parametrize("elements", [1, 1000, 5000, 1 << 62],
                         ids=["rows", "1000", "5000", "one"])
def test_singular_system_in_a_later_block_names_its_point(elements, monkeypatch):
    # a NaN start at point e makes its local Newton Hessian NaN; every other
    # point starts at its fit, so it converges at once and e is the only
    # active row of its group
    monkeypatch.setattr(smoothing, "_BLOCK_ELEMENTS", elements)
    data, delta, h = _dataset("poisson", 300, 4)
    fitter = CurveFitter("poisson", data.x, data.y, data.u,
                         SmoothingParams(h=h, delta=delta), data.u)
    offsets = data.z @ np.full(data.n_linear, 0.1)
    fit = fitter.solve(offsets)
    e = data.n - 7
    warm = fit.coefficients.copy()
    warm[e] = np.nan
    message = f"point index {e} has a non-finite entry"
    with pytest.raises(SingularityError, match=f"local Newton: .*{message}"):
        fitter.solve(offsets, warm=warm)
    # and a NaN q_2 in e's row of its group's curvature makes e's derivative
    # system NaN: e's row is its place in its group's index
    t = next(t for t, group in enumerate(fitter.groups) if e in group.index)
    row = int(np.flatnonzero(fitter.groups[t].index == e)[0])
    solve_group, groups = fitter._solve_group, iter(range(len(fitter.groups)))

    def poisoned(*args):
        solution = solve_group(*args)
        if next(groups) == t:
            solution[4][row, 0] = np.nan
        return solution

    monkeypatch.setattr(fitter, "_solve_group", poisoned)
    with pytest.raises(SingularityError, match=f"curve derivative: .*{message}"):
        fitter.solve(offsets, z=data.z)


def _transient_peak(fitter, offsets, z):
    """Traced peak of a cold solve with its derivative, less its outputs."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        sol = fitter.solve(offsets, z=z)
        return tracemalloc.get_traced_memory()[1] - base - sum(a.nbytes for a in _flat(sol))
    finally:
        tracemalloc.stop()


def test_block_temporaries_do_not_grow_with_the_points(monkeypatch):
    # the same data and window width w at m and 4m points (u tiled), in tiles
    # of at most m / 4 * w (point, observation) pairs: 9 tiles at m points
    # and 18 at 4m, whose temporaries are the same size
    data, delta, h = _dataset("poisson", 800, 2)
    sm = SmoothingParams(h=h, delta=delta)
    offsets = data.z @ np.full(data.n_linear, 0.1)
    fitter = CurveFitter("poisson", data.x, data.y, data.u, sm, data.u)
    w = max(np.count_nonzero(group.weights, axis=1).max() for group in fitter.groups)
    monkeypatch.setattr(smoothing, "_BLOCK_ELEMENTS", data.n // 4 * w)
    peak_m, peak_4m = (
        _transient_peak(CurveFitter("poisson", data.x, data.y, data.u, sm, points),
                        offsets, data.z)
        for points in (data.u, np.tile(data.u, 4)))
    assert peak_4m < 1.25 * peak_m


def test_no_points_is_one_empty_block():
    data, delta, h = _dataset("poisson", 200, 1)
    sm = SmoothingParams(h=h, delta=delta)
    beta = np.zeros(data.n_linear)
    curve = g.fit_curve("poisson", data, beta, sm, grid=np.array([]))
    assert curve.values.shape == (0, data.n_curves)
    fitter = CurveFitter("poisson", data.x, data.y, data.u, sm, np.array([]))
    assert fitter.groups == []
    sol = fitter.solve(data.z @ beta, z=data.z)
    assert sol.coefficients.shape == (0, fitter.n_coef)
    assert fitter.alpha_prime(sol).shape == (0, data.n_linear, data.n_curves)
