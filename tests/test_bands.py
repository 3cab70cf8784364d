"""The banded kernel windows of ``CurveFitter`` against the dense problem.

``CurveFitter`` keeps, per evaluation point, only the observations inside the
kernel's support.  The references here are written densely, over all n
observations with the full (m, n) kernel weights, so they check that dropping
the zero-weight entries leaves the local fits and their beta-derivative
unchanged.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

import gvcplm as g
from gvcplm import CurveFitter, EffectiveSampleError, SmoothingParams
from gvcplm.smoothing import LOCAL_TOL, MAX_LOCAL_ITERS


def _dense_design(u, x, point, degree):
    """(n, d) local polynomial design at one point, blocks r = 0..degree."""
    t = u - point
    return np.hstack([x * (t[:, None] ** r / math.factorial(r)) for r in range(degree + 1)])


def _dense_weights(u, points, smoothing):
    return g.kernel_weight(smoothing.kernel, u[None, :] - points[:, None], smoothing.h)


def _dense_local_fit(family, u, x, y, offsets, point, smoothing):
    """The documented local fit, written over all n observations: weighted
    least squares on the transformed response, then Newton steps, halved
    while they lower the objective, until the score is below LOCAL_TOL."""
    fam = g.get_family(family)
    design = _dense_design(u, x, point, smoothing.degree)
    w = g.kernel_weight(smoothing.kernel, u - point, smoothing.h)
    resid = fam.transform(y, smoothing.delta) - offsets
    coef = np.linalg.solve(design.T @ (w[:, None] * design), design.T @ (w * resid))

    def objective(c):
        return float(w @ fam.quasi_loglik(design @ c + offsets, y))

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


def _problem_arrays(family, u, seed):
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
    return x, z, y, offsets


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(banded_problems())
def test_band_solves_dense_problem(problem):
    family, degree, u, points, h, seed = problem
    x, z, y, offsets = _problem_arrays(family, u, seed)
    sm = SmoothingParams(h=h, delta=0.1, degree=degree)
    fitter = CurveFitter(family, x, y, u, sm, points)
    sol = fitter.solve(offsets)
    assert sol.converged.all()

    fam = g.get_family(family)
    weights = _dense_weights(u, points, sm)                              # (m, n)
    design = np.stack([_dense_design(u, x, p, degree) for p in points])  # (m, n, d)
    lin = np.einsum("eid,ed->ei", design, sol.coefficients) + offsets
    # (a) the dense local score vanishes at the band's coefficients
    score = np.einsum("ei,eid->ed", weights * fam.q(1, lin, y), design)
    assert np.abs(score).max() < 1e-7

    # (b) alpha_prime is -S1^{-1} S2 of the dense kernel sums, compared where
    # S1 is well conditioned: rounding alone moves the solve of a matrix with
    # condition number c by about c * 1e-16, and the target is 1e-10
    wq2 = weights * fam.q(2, lin, y)
    s1 = np.einsum("ei,eid,eif->edf", wq2, design, design)
    s2 = np.einsum("ei,eid,ik->edk", wq2, design, z)
    expected = np.swapaxes(-np.linalg.solve(s1, s2)[:, :2, :], 1, 2)
    got = fitter.alpha_prime(sol, z)
    well = np.linalg.cond(s1) < 1e5
    event(f"well-conditioned points: {well.sum()} of {well.size}")
    scale = np.abs(expected).max(axis=(1, 2), keepdims=True)
    assert np.all(np.abs(got - expected)[well] <= 1e-10 * scale[well])


# ---------------------------------------------------------------------------
# unit tests that lock the band


def _poisson_data(n=400, seed=5):
    design = g.poisson_design(n)
    return design, g.generate(design, seed=g.replicate_seed(seed, 1))


class TestBandedWindows:
    def test_width_is_the_largest_window(self):
        _, data = _poisson_data()
        sm = SmoothingParams(h=0.05, delta=0.1)
        radius = sm.kernel.support_radius * sm.h
        grid = g.default_grid(data)
        for points in (data.u, grid):
            fitter = CurveFitter("poisson", data.x, data.y, data.u, sm, points)
            inside = np.abs(data.u[None, :] - points[:, None]) <= radius
            assert fitter.weights.shape[1] == inside.sum(axis=1).max()
            assert fitter.weights.shape[1] < data.n
            assert fitter.index.shape == fitter.weights.shape
            assert fitter.design.shape == (points.size, fitter.n_coef, fitter.weights.shape[1])

    def test_every_nonzero_weight_is_in_the_band(self):
        _, data = _poisson_data()
        sm = SmoothingParams(h=0.05, delta=0.1)
        fitter = CurveFitter("poisson", data.x, data.y, data.u, sm, data.u)
        dense = _dense_weights(data.u, data.u, sm)
        banded = np.zeros_like(dense)
        np.put_along_axis(banded, fitter.index, fitter.weights, axis=1)
        np.testing.assert_array_equal(banded, dense)

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
        assert fitter.weights.shape == (data.n, data.n)
        np.testing.assert_array_equal(np.sort(fitter.index, axis=1),
                                      np.tile(np.arange(data.n), (data.n, 1)))

    def test_unbounded_kernel_keeps_every_observation(self):
        _, data = _poisson_data(n=100)
        gauss = g.KernelSpec("gauss", lambda z: np.exp(-0.5 * z * z) / math.sqrt(2 * math.pi),
                             support_radius=math.inf)
        sm = SmoothingParams(h=0.1, delta=0.1, kernel=gauss)
        fitter = CurveFitter("poisson", data.x, data.y, data.u, sm, [0.5, 3.0])
        assert fitter.weights.shape == (2, data.n)
