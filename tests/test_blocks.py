"""``CurveFitter`` run one block of points at a time.

Every local problem is solved on its own, so splitting the points into
blocks must leave every result bit for bit as one block gives it, and a
block's temporaries must not grow with the number of points.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

import gvcplm as g
from gvcplm import CurveFitter, SingularityError, SmoothingParams
from gvcplm import smoothing


def _dataset(family, n, seed):
    data = g.generate(g.make_design(family, n), seed=g.replicate_seed(seed, 0))
    delta, h = g.preset_smoothing(family, n)
    return data, delta, h


def _outputs(family, data, sm):
    """Everything the blocks must not change, from a new engine."""
    engine = g.ProfileEngine(family, data, sm)
    fitter = engine.fitter
    beta = np.linspace(-0.2, 0.2, data.n_linear)
    offsets = data.z @ beta
    cold = fitter.solve(offsets)
    # some points start converged, others 3 below their fit, so active
    # subsets and step halvings occur inside the blocks
    warm = cold.coefficients.copy()
    warm[::3, 0] -= 3.0
    derivative = fitter.coefficient_derivative(cold, data.z)
    state = engine.state(beta)
    return {
        "weights": fitter.weights,
        "design": fitter.design,
        "cold": cold,
        "warm": fitter.solve(offsets * 1.01, warm=warm),
        "initial": fitter.initial_coefficients(offsets),
        "derivative": derivative,
        "strides": derivative.strides,
        "loglik": state.loglik,
        "tangent": engine.tangent_start(state, beta * 1.01),
    }


def _block_elements(partition, m, w, draw):
    """_BLOCK_ELEMENTS giving one block, two blocks, blocks of one row, or
    blocks of a random size."""
    return {"one": m * w, "two": math.ceil(m / 2) * w, "rows": 1,
            "random": draw(st.integers(1, m * w))}[partition]


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_blocked_equals_one_block(data_strategy):
    draw = data_strategy.draw
    family = draw(st.sampled_from(["poisson", "bernoulli"]))
    n = draw(st.integers(60, 300))
    data, delta, h = _dataset(family, n, draw(st.integers(0, 2 ** 16)))
    sm = SmoothingParams(h=h * draw(st.floats(1.0, 2.0)), delta=delta,
                         degree=draw(st.integers(0, 1)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(smoothing, "_BLOCK_ELEMENTS", 1 << 62)
        expected = _outputs(family, data, sm)
        m, w = expected["weights"].shape
        partition = draw(st.sampled_from(["rows", "random", "two", "one"]))
        patch.setattr(smoothing, "_BLOCK_ELEMENTS", _block_elements(partition, m, w, draw))
        blocks = len(smoothing._blocks(m, w))
        event(f"{partition}: {'one block' if blocks == 1 else 'several blocks'}")
        got = _outputs(family, data, sm)
    for key, value in expected.items():
        if isinstance(value, tuple) and key != "strides":
            for field, a, b in zip(value._fields, value, got[key]):
                assert np.array_equal(a, b), (key, field)
        else:
            assert np.array_equal(got[key], value), key


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 5000), st.integers(0, 3000), st.integers(1, 1 << 17))
def test_blocks_are_the_fewest_balanced_slices(m, w, elements):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(smoothing, "_BLOCK_ELEMENTS", elements)
        blocks = smoothing._blocks(m, w)
    cap = max(1, elements // max(w, 1))
    if m == 0:
        assert blocks == [slice(0, 0)]
        return
    assert [b.step for b in blocks] == [None] * len(blocks)
    assert [i for b in blocks for i in range(b.start, b.stop)] == list(range(m))
    sizes = [b.stop - b.start for b in blocks]
    assert max(sizes) - min(sizes) <= 1
    assert max(sizes) <= cap
    assert len(blocks) == math.ceil(m / cap)


@pytest.mark.parametrize("elements", [1, 1000, 5000, 1 << 62],
                         ids=["rows", "1000", "5000", "one"])
def test_singular_system_in_a_later_block_names_its_point(elements, monkeypatch):
    # a NaN start at point e makes its local Newton Hessian and its
    # derivative system NaN; every other point starts at its fit, so it
    # converges at once and e is the only active row of its block
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
    curvature = fit.curvature.copy()
    curvature[e, 0] = np.nan
    with pytest.raises(SingularityError, match=f"curve derivative: .*{message}"):
        fitter.coefficient_derivative(fit._replace(curvature=curvature), data.z)


def _transient_peaks(fitter, offsets, z):
    """Traced peaks of a cold solve and of the derivative, less their outputs."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        sol = fitter.solve(offsets)
        solve_peak = tracemalloc.get_traced_memory()[1] - base \
            - sum(a.nbytes for a in sol)
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        derivative = fitter.coefficient_derivative(sol, z)
        derivative_peak = tracemalloc.get_traced_memory()[1] - base - derivative.nbytes
    finally:
        tracemalloc.stop()
    return solve_peak, derivative_peak


def test_block_temporaries_do_not_grow_with_the_points(monkeypatch):
    # the same data and window width w at m and 4m points (u tiled), in
    # blocks of m / 4 points, so both runs see the same blocks, 4 and 16 times
    data, delta, h = _dataset("poisson", 800, 2)
    sm = SmoothingParams(h=h, delta=delta)
    offsets = data.z @ np.full(data.n_linear, 0.1)
    peaks = []
    for points in (data.u, np.tile(data.u, 4)):
        fitter = CurveFitter("poisson", data.x, data.y, data.u, sm, points)
        monkeypatch.setattr(smoothing, "_BLOCK_ELEMENTS",
                            data.n // 4 * fitter.weights.shape[1])
        peaks.append(_transient_peaks(fitter, offsets, data.z))
    (solve_m, derivative_m), (solve_4m, derivative_4m) = peaks
    assert solve_4m < 1.25 * solve_m
    assert derivative_4m < 1.25 * derivative_m


def test_no_points_is_one_empty_block():
    data, delta, h = _dataset("poisson", 200, 1)
    sm = SmoothingParams(h=h, delta=delta)
    beta = np.zeros(data.n_linear)
    curve = g.fit_curve("poisson", data, beta, sm, grid=np.array([]))
    assert curve.values.shape == (0, data.n_curves)
    fitter = CurveFitter("poisson", data.x, data.y, data.u, sm, np.array([]))
    sol = fitter.solve(data.z @ beta)
    assert fitter.alpha_prime(sol, data.z).shape == (0, data.n_linear, data.n_curves)
