import math
import re

import numpy as np
import pytest

import gvcplm as g
from gvcplm import Dataset, EffectiveSampleError, SmoothingParams

from oracles import epanechnikov, local_grid_search


def _local_wls_oracle(data, beta, u, smoothing):
    """Direct weighted polynomial least squares at one point (gaussian)."""
    t = data.u - u
    w = epanechnikov(t, smoothing.h)
    blocks = [
        data.x * (t[:, None] ** r / math.factorial(r))
        for r in range(smoothing.degree + 1)
    ]
    design = np.hstack(blocks)
    resid = data.y - data.z @ beta
    lhs = design.T @ (w[:, None] * design)
    rhs = design.T @ (w * resid)
    return np.linalg.solve(lhs, rhs)


def _tiny_poisson_dataset():
    gen = np.random.default_rng(3)
    n = 12
    u = np.linspace(0.05, 0.95, n)
    x = np.ones((n, 1))
    z = gen.normal(size=(n, 1))
    lp = 1.0 + 0.5 * u + 0.4 * z[:, 0]
    y = gen.poisson(np.exp(lp)).astype(float)
    return Dataset(u=u, x=x, z=z, y=y)


def _fit_at(family, data, beta, u, smoothing, z=None):
    """(fitter, solution) of the local fit at the single point u."""
    fitter = g.CurveFitter(family, data.x, data.y, data.u, smoothing, [u])
    return fitter, fitter.solve(data.z @ beta, z=z)


class TestFitLocal:
    """The local fit at one point, a CurveFitter with points [u]."""

    def test_constant_response_gives_constant_level(self):
        n = 60
        data = Dataset(
            u=np.linspace(0, 1, n),
            x=np.ones((n, 1)),
            z=np.zeros((n, 1)),
            y=np.full(n, 2.5),
        )
        sm = SmoothingParams(h=0.3, degree=0)
        for u in (0.1, 0.5, 0.9):
            _, sol = _fit_at("gaussian", data, np.zeros(1), u, sm)
            assert sol.coefficients[0, 0] == pytest.approx(2.5, abs=1e-10)
            assert sol.converged[0]

    def test_gaussian_equals_weighted_least_squares(self, rng):
        n = 50
        data = Dataset(
            u=np.sort(rng.uniform(0, 1, n)),
            x=np.ones((n, 1)),
            z=rng.normal(size=(n, 2)),
            y=rng.normal(size=n),
        )
        beta = np.array([0.3, -0.2])
        sm = SmoothingParams(h=0.35, degree=1)
        for u in (0.2, 0.5, 0.8):
            _, sol = _fit_at("gaussian", data, beta, u, sm)
            oracle = _local_wls_oracle(data, beta, u, sm)
            np.testing.assert_allclose(sol.coefficients[0, :1], oracle[:1], atol=1e-10)
            np.testing.assert_allclose(sol.coefficients[0, 1:], oracle[1:], atol=1e-10)
            assert sol.converged[0]

    def test_poisson_matches_grid_search_oracle(self):
        data = _tiny_poisson_dataset()
        beta = np.array([0.4])
        sm = SmoothingParams(h=0.5, delta=0.1, degree=1)
        _, sol = _fit_at("poisson", data, beta, 0.5, sm)

        w = epanechnikov(data.u - 0.5, sm.h)
        off = data.z @ beta

        def objective(a0, a1):
            lp = a0 + a1 * (data.u - 0.5) + off
            return float(np.sum(w * (data.y * lp - np.exp(lp))))

        best = local_grid_search(objective, ((-5.0, 5.0), (-5.0, 5.0)))
        assert sol.coefficients[0, 0] == pytest.approx(best[0], abs=2e-3)
        assert sol.coefficients[0, 1] == pytest.approx(best[1], abs=2e-3)

    def test_warm_start_agrees_with_cold_start(self, rng):
        data = _tiny_poisson_dataset()
        sm = SmoothingParams(h=0.5, delta=0.1)
        beta = np.array([0.4])
        fitter = g.CurveFitter("poisson", data.x, data.y, data.u, sm, [0.5])
        cold = fitter.solve(data.z @ beta)
        warm = fitter.solve(data.z @ beta, warm=cold.coefficients)
        np.testing.assert_allclose(warm.coefficients, cold.coefficients, atol=1e-7)

    def test_effective_sample_error(self):
        n = 30
        data = Dataset(
            u=np.linspace(0, 1, n),
            x=np.ones((n, 1)),
            z=np.zeros((n, 1)),
            y=np.zeros(n),
        )
        with pytest.raises(EffectiveSampleError):
            _fit_at("gaussian", data, np.zeros(1), 0.5, SmoothingParams(h=1e-4))


class TestFitCurve:
    def test_single_point_grid_reduces_to_fit_local(self):
        data = _tiny_poisson_dataset()
        sm = SmoothingParams(h=0.5, delta=0.1)
        beta = np.array([0.4])
        _, local = _fit_at("poisson", data, beta, 0.5, sm)
        curve = g.fit_curve("poisson", data, beta, sm, grid=[0.5])
        np.testing.assert_allclose(curve.values[0], local.coefficients[0, :1], atol=1e-9)

    def test_recovers_linear_curve_noise_free(self):
        # alpha(u) = u, noise-free: local linear fit is exact up to O(h^2)
        gen = np.random.default_rng(12)
        n = 2000
        u = np.sort(gen.uniform(0, 1, n))
        x = np.ones((n, 1))
        z = gen.normal(size=(n, 1))
        y = u + 0.0 * z[:, 0]
        data = Dataset(u=u, x=x, z=z, y=y)
        curve = g.fit_curve("gaussian", data, np.zeros(1), SmoothingParams(h=0.1))
        err = np.abs(curve.values[:, 0] - curve.grid)
        assert err.max() < 0.05


    @pytest.mark.parametrize("grid", [[0.3, math.nan, 0.6], [0.3, math.inf],
                                      [[0.3, 0.5], [0.6, 0.7]]],
                             ids=["nan", "inf", "2-D"])
    def test_rejects_a_non_finite_or_multidimensional_grid(self, grid):
        data = _tiny_poisson_dataset()
        with pytest.raises(g.ParameterError, match="evaluation points must be a finite 1-D"):
            g.fit_curve("poisson", data, np.array([0.4]), SmoothingParams(h=0.5, delta=0.1),
                        grid=grid)


class TestAlphaPrime:
    def test_zero_when_z_is_zero(self):
        data = _tiny_poisson_dataset()
        data = Dataset(u=data.u, x=data.x, z=np.zeros((data.n, 1)), y=data.y)
        sm = SmoothingParams(h=0.5, delta=0.1)
        fitter, sol = _fit_at("poisson", data, np.zeros(1), 0.5, sm, z=data.z)
        ap = fitter.alpha_prime(sol)[0]
        np.testing.assert_allclose(ap, 0.0, atol=1e-12)

    def test_gaussian_local_constant_reduces_to_weighted_mean(self, rng):
        n = 80
        data = Dataset(
            u=np.sort(rng.uniform(0, 1, n)),
            x=np.ones((n, 1)),
            z=rng.normal(size=(n, 3)),
            y=rng.normal(size=n),
        )
        sm = SmoothingParams(h=0.3, degree=0)
        u = 0.4
        fitter, sol = _fit_at("gaussian", data, np.zeros(3), u, sm, z=data.z)
        ap = fitter.alpha_prime(sol)[0]
        w = epanechnikov(data.u - u, sm.h)
        expected = -(w @ data.z) / w.sum()
        np.testing.assert_allclose(ap[:, 0], expected, atol=1e-10)

    @pytest.mark.parametrize("family,n,h,delta", [
        ("poisson", 100, 0.25, 0.1),
        ("bernoulli", 150, 0.45, 0.005),
    ])
    def test_matches_finite_difference_of_refitted_curve(self, family, n, h, delta):
        design = g.make_design(family, n)
        design = g.SimDesign(family, n, 5, design.beta0[:5], design.alpha_funcs, seed=2)
        data = g.generate(design, seed=g.replicate_seed(8, 0))
        sm = SmoothingParams(h=h, delta=delta)
        beta = design.beta0.copy()
        eps = 1e-4
        for u in (0.3, 0.6):
            fitter = g.CurveFitter(family, data.x, data.y, data.u, sm, [u])
            ap = fitter.alpha_prime(fitter.solve(data.z @ beta, z=data.z))[0]
            fd = np.zeros_like(ap)
            for j in range(beta.size):
                e = np.zeros_like(beta)
                e[j] = eps
                hi = fitter.curve_values(fitter.solve(data.z @ (beta + e)))[0]
                lo = fitter.curve_values(fitter.solve(data.z @ (beta - e)))[0]
                fd[j] = (hi - lo) / (2 * eps)
            assert np.max(np.abs(ap - fd)) < 5e-3

    def test_curve_dbeta_shape(self):
        data = _tiny_poisson_dataset()
        sm = SmoothingParams(h=0.6, delta=0.1)
        fitter = g.CurveFitter("poisson", data.x, data.y, data.u, sm, [0.3, 0.5, 0.7])
        sol = fitter.solve(data.z @ np.array([0.4]), z=data.z)
        assert fitter.alpha_prime(sol).shape == (3, 1, 1)


class TestSmoothingParams:
    def test_invalid_bandwidth(self):
        for h in (0.0, -0.2):
            with pytest.raises(g.ParameterError):
                SmoothingParams(h=h)

    def test_invalid_degree(self):
        with pytest.raises(g.ParameterError):
            SmoothingParams(h=0.1, degree=-1)

    def test_infinite_bandwidth(self):
        with pytest.raises(g.ParameterError, match="bandwidth must be positive and finite"):
            SmoothingParams(h=math.inf)

    def test_infinite_delta(self):
        with pytest.raises(g.ParameterError, match="delta must be positive and finite"):
            SmoothingParams(h=0.1, delta=math.inf)

    def test_non_integer_degree(self):
        with pytest.raises(g.ParameterError, match="degree must be an integer"):
            SmoothingParams(h=0.1, degree=1.5)

    def test_delta_required_for_poisson_cold_start(self):
        data = _tiny_poisson_dataset()
        with pytest.raises(g.ParameterError):
            _fit_at("poisson", data, np.array([0.0]), 0.5, SmoothingParams(h=0.5))


@pytest.mark.parametrize("family, bad", [("poisson", -1.0), ("bernoulli", 0.5)])
def test_fitter_checks_the_response_against_its_family(family, bad):
    n = 30
    y = np.ones(n)
    y[1] = bad
    with pytest.raises(g.DomainError, match=re.escape(f"{family} response must be")
                       + ".*" + re.escape(f"; y[1] = {bad}")):
        g.CurveFitter(family, np.ones((n, 1)), y, np.linspace(0.0, 1.0, n),
                      SmoothingParams(h=0.3, delta=0.1), [0.5])



@pytest.mark.parametrize("field, value", [("h", "0.1"), ("h", None), ("h", [0.1]),
                                          ("h", True), ("delta", "0.1"), ("delta", [0.1]),
                                          ("delta", 1j)],
                         ids=["h-str", "h-None", "h-list", "h-bool", "delta-str", "delta-list",
                              "delta-complex"])
def test_smoothing_params_reject_a_value_that_is_not_a_number(field, value):
    name = {"h": "bandwidth h", "delta": "offset delta"}[field]
    with pytest.raises(g.ParameterError, match=f"{name} must be a real number"):
        SmoothingParams(**{"h": 0.1, "delta": 0.1, field: value})


@pytest.mark.parametrize("method, name, shape, expected", [
    ("solve", "offsets", (205,), (200,)),
    ("solve", "offsets", (150,), (200,)),
    ("initial_coefficients", "offsets", (205,), (200,)),
    ("initial_coefficients", "offsets", (150,), (200,)),
    ("solve", "warm", (205, 4), (200, 4)),
    ("solve", "warm", (200, 3), (200, 4)),
    ("solve", "z", (150, 10), (200, 10)),
    ("solve", "z", (200, 10, 1), (200, 10)),
    ("solve", "z", (200,), (200, 1)),
], ids=["solve-offsets-long", "solve-offsets-short", "initial-offsets-long",
        "initial-offsets-short", "warm-rows", "warm-columns", "z-rows", "z-3d", "z-1d"])
def test_fitter_names_an_argument_of_the_wrong_shape(method, name, shape, expected):
    # an argument with more or fewer rows is indexed through the u
    # order, which would cut it or end in numpy's IndexError; a poisson
    # fitter of n = 200 observations at 200 points, d = 2q = 4
    data = g.generate(g.make_design("poisson", 200), seed=g.replicate_seed(5, 0))
    delta, h = g.preset_smoothing("poisson", 200)
    fitter = g.CurveFitter("poisson", data.x, data.y, data.u,
                           SmoothingParams(h=h, delta=delta), data.u)
    args = {"offsets": data.z @ np.full(data.n_linear, 0.1), name: np.zeros(shape)}
    with pytest.raises(g.ParameterError,
                       match=re.escape(f"{name} has shape {shape}, expected {expected}")):
        getattr(fitter, method)(**args)


@pytest.mark.parametrize("name, shape, message", [
    ("u", (190,), "y has shape (200,), expected (190,)"),
    ("y", (190,), "y has shape (190,), expected (200,)"),
    ("x", (190, 2), "x has shape (190, 2), expected (200, 2)"),
    ("x", (200,), "x has shape (200,), expected (200, 1)"),
    ("u", (200, 1), "u must be a 1-D array, got shape (200, 1)"),
], ids=["u-rows", "y-rows", "x-rows", "x-1d", "u-2d"])
def test_fitter_constructor_names_data_of_the_wrong_shape(name, shape, message):
    # x, y and u are read through the u order, so fewer rows in u would fit
    # on the first observations and drop the rest, and fewer in x or y
    # would end in numpy's IndexError; a poisson design of n = 200, q = 2
    data = g.generate(g.make_design("poisson", 200), seed=g.replicate_seed(5, 0))
    delta, h = g.preset_smoothing("poisson", 200)
    args = {"x": data.x, "y": data.y, "u": data.u, name: np.zeros(shape)}
    with pytest.raises(g.ParameterError, match=re.escape(message)):
        g.CurveFitter("poisson", smoothing=SmoothingParams(h=h, delta=delta),
                      points=data.u, **args)
