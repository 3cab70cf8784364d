import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gvcplm as g
from gvcplm import CurveFitter, FitConfig, ParameterError, SmoothingParams
from gvcplm.profile import ProfileEngine, _solve_descent

from conftest import make_gaussian_dataset
from oracles import fd_gradient, gaussian_profile_sse, gaussian_profile_wls


def _small_design(family, n, p=5, seed=2):
    design = g.make_design(family, n)
    return g.SimDesign(family, n, p, design.beta0[:p], design.alpha_funcs, seed=seed)


def _quasi_separated_bernoulli(seed, n=200):
    """y = 1{z_1 > 0} but on 5 rows with z_1 = 0 and a random y: the
    likelihood keeps rising along beta_1, so it has no maximizer."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.0, 1.0, n)
    z = rng.standard_normal((n, 3))
    y = (z[:, 0] > 0).astype(float)
    z[:5, 0] = 0.0
    y[:5] = rng.integers(0, 2, 5)
    return g.Dataset(u=u, x=np.ones(n), z=z, y=y)


def _objective(engine, beta):
    return engine.state(beta, differentiate=False).loglik


class TestProfileObjective:
    def test_matches_closed_form_gaussian_profiling(self):
        data, beta0, _ = make_gaussian_dataset(n=120, q=1, p=3, seed=7)
        sm = SmoothingParams(h=0.3)
        engine = ProfileEngine("gaussian", data, sm)
        for scale in (0.0, 0.7, 1.0, 1.3):
            beta = scale * beta0
            ours = _objective(engine, beta)
            oracle = gaussian_profile_sse(data, sm, beta)
            assert ours == pytest.approx(oracle, abs=1e-8 * (1 + abs(oracle)))

    def test_local_maximality_at_converged_fit(self):
        data, _, _ = make_gaussian_dataset(n=150, p=4, seed=8)
        sm = SmoothingParams(h=0.3)
        res = g.fit("gaussian", data, FitConfig(smoothing=sm, max_steps=20))
        assert res.converged
        base = res.profile_loglik
        engine = ProfileEngine("gaussian", data, sm)
        for j in range(4):
            for sign in (1.0, -1.0):
                beta = res.beta.copy()
                beta[j] += sign * 0.01
                assert _objective(engine, beta) <= base + 1e-9

    def test_truth_beats_zero_on_poisson_replicates(self):
        design = g.make_design("poisson", 200)
        sm = SmoothingParams(h=0.1, delta=0.1)
        for rep in range(20):
            data = g.generate(design, seed=g.replicate_seed(17, rep))
            engine = ProfileEngine("poisson", data, sm)
            at_truth = _objective(engine, design.beta0)
            at_zero = _objective(engine, np.zeros(design.p_dim))
            assert at_truth > at_zero


class TestProfileGradient:
    def test_gaussian_matches_closed_form_gradient(self):
        data, beta0, _ = make_gaussian_dataset(n=120, q=1, p=3, seed=7)
        sm = SmoothingParams(h=0.3)
        _, resid_y, resid_z = gaussian_profile_wls(data, sm)
        beta = 0.8 * beta0
        expected = resid_z.T @ (resid_y - resid_z @ beta)
        engine = ProfileEngine("gaussian", data, sm)
        ours = engine.gradient(engine.state(beta))
        np.testing.assert_allclose(ours, expected, atol=1e-8 * (1 + np.abs(expected).max()))

    @pytest.mark.parametrize("family,h,delta", [
        ("gaussian", 0.3, None),
        ("poisson", 0.25, 0.1),
        ("bernoulli", 0.45, 0.005),
    ])
    def test_matches_finite_differences(self, family, h, delta):
        if family == "gaussian":
            data, beta0, _ = make_gaussian_dataset(n=100, p=5, seed=3)
        else:
            design = _small_design(family, 100)
            data = g.generate(design, seed=g.replicate_seed(23, 0))
            beta0 = design.beta0
        sm = SmoothingParams(h=h, delta=delta)
        beta = 0.9 * beta0
        engine = ProfileEngine(family, data, sm)
        grad = engine.gradient(engine.state(beta))
        fd = fd_gradient(lambda b: _objective(engine, b), beta)
        np.testing.assert_allclose(grad, fd, rtol=1e-4, atol=1e-5)

    def test_small_at_converged_fit(self):
        design = _small_design("poisson", 150)
        data = g.generate(design, seed=g.replicate_seed(29, 0))
        sm = SmoothingParams(h=0.25, delta=0.1)
        cfg = FitConfig(smoothing=sm, max_steps=30, step_tol=1e-8)
        res = g.fit("poisson", data, cfg)
        assert res.converged
        engine = ProfileEngine("poisson", data, sm)
        grad = engine.gradient(engine.state(res.beta))
        assert np.abs(grad).max() < 10 * cfg.step_tol * data.n


class TestModifiedHessian:
    """The accelerated Hessian, the outer-product curvature
    sum_i q2_i (z_i + alpha'x_i)(z_i + alpha'x_i)' without the curve's second
    derivative."""

    @staticmethod
    def _hessian(family, data, beta, smoothing):
        engine = ProfileEngine(family, data, smoothing)
        return engine.hessian(engine.state(beta), "accelerated")

    def test_gaussian_equals_exact_profiled_hessian(self):
        data, _, _ = make_gaussian_dataset(n=120, q=1, p=3, seed=7)
        sm = SmoothingParams(h=0.3)
        _, _, resid_z = gaussian_profile_wls(data, sm)
        expected = -resid_z.T @ resid_z
        ours = self._hessian("gaussian", data, np.zeros(3), sm)
        np.testing.assert_allclose(ours, expected, atol=1e-8 * np.abs(expected).max())

    def test_gaussian_outer_product_structure(self):
        data, _, _ = make_gaussian_dataset(n=100, p=4, seed=5)
        sm = SmoothingParams(h=0.3)
        hess = self._hessian("gaussian", data, np.zeros(4), sm)
        np.testing.assert_allclose(hess, hess.T, atol=1e-10)
        assert np.all(np.linalg.eigvalsh(hess) < 0)

    def test_poisson_negative_definite_across_replicates(self):
        design = _small_design("poisson", 100)
        sm = SmoothingParams(h=0.25, delta=0.1)
        for rep in range(5):
            data = g.generate(design, seed=g.replicate_seed(37, rep))
            hess = self._hessian("poisson", data, design.beta0, sm)
            assert np.all(np.linalg.eigvalsh(hess) < 0)


class TestFit:
    def test_all_algorithms_agree_on_exact_gaussian_instance(self):
        # noise-free data with degree-1 coefficient functions: the smoother
        # reproduces the curves exactly, so every estimating equation has the
        # same root, equal to the closed-form profiled least squares solution
        data, beta0, _ = make_gaussian_dataset(n=200, p=4, seed=11, noise=0.0,
                                               alpha_linear=True)
        sm = SmoothingParams(h=0.25)
        oracle, _, _ = gaussian_profile_wls(data, sm)
        for alg in ("backfitting", "accelerated", "full"):
            cfg = FitConfig(smoothing=sm, algorithm=alg, max_steps=30)
            res = g.fit("gaussian", data, cfg)
            assert np.linalg.norm(res.beta - oracle) < 1e-6, alg

    def test_accelerated_exact_on_noisy_gaussian(self):
        data, _, _ = make_gaussian_dataset(n=200, p=5, seed=13)
        sm = SmoothingParams(h=0.25)
        oracle, _, _ = gaussian_profile_wls(data, sm)
        res = g.fit("gaussian", data, FitConfig(smoothing=sm, max_steps=10))
        assert np.linalg.norm(res.beta - oracle) < 1e-8

    def test_one_step_contract_and_max_steps_validation(self):
        design = _small_design("poisson", 120)
        data = g.generate(design, seed=g.replicate_seed(41, 0))
        sm = SmoothingParams(h=0.25, delta=0.1)
        with pytest.raises(ParameterError):
            FitConfig(smoothing=sm, max_steps=0)
        res = g.fit("poisson", data, FitConfig(smoothing=sm, max_steps=1))
        assert res.n_steps == 1
        assert len(res.trace) == 2

    def test_non_integer_max_steps(self):
        sm = SmoothingParams(h=0.25, delta=0.1)
        with pytest.raises(ParameterError, match="max_steps must be an integer"):
            FitConfig(smoothing=sm, max_steps=2.5)

    @pytest.mark.parametrize("step_tol", [np.inf, -np.inf, np.nan, 0.0, -1e-6, "1e-6", True],
                             ids=["inf", "-inf", "nan", "zero", "negative", "string", "bool"])
    def test_rejects_a_step_tol_that_is_not_positive_and_finite(self, step_tol):
        # an infinite tolerance would call the first step converged
        sm = SmoothingParams(h=0.25, delta=0.1)
        with pytest.raises(ParameterError, match="step_tol must be a positive finite number"):
            FitConfig(smoothing=sm, step_tol=step_tol)

    @pytest.mark.parametrize("family", ("poisson", "bernoulli"))
    def test_last_step_without_the_derivative(self, family, monkeypatch):
        # a default fit ends on a differentiated state; without
        # differentiate_last the last step's trials are solved without z,
        # beta and the trace are the same to the bit, and the final state is
        # differentiated on first read
        data = g.generate(g.make_design(family, 200), seed=g.replicate_seed(47, 0))
        delta, h = g.preset_smoothing(family, 200)
        cfg = FitConfig(SmoothingParams(h=h, delta=delta), max_steps=2)
        default = g.fit(family, data, cfg)
        assert default.n_steps == 2 and not default.converged
        assert default.state.solution.derivative is not None
        assert default.differentiated_state is default.state

        solved = []
        solve = CurveFitter.solve

        def spied(self, offsets, warm=None, z=None):
            solved.append(z is not None)
            return solve(self, offsets, warm, z)

        monkeypatch.setattr(CurveFitter, "solve", spied)
        lean = g.fit(family, data, cfg, differentiate_last=False)
        # the start and step 1's trials with z, step 2's without
        first = solved.index(False)
        assert first >= 2 and not any(solved[first:])
        assert np.array_equal(lean.beta, default.beta) and lean.trace == default.trace
        assert lean.state.solution.derivative is None
        np.testing.assert_array_equal(lean.state.solution.coefficients,
                                      default.state.solution.coefficients)
        before = len(solved)
        state = lean.differentiated_state
        assert solved[before:] == [True] and lean.differentiated_state is state
        np.testing.assert_allclose(state.solution.derivative,
                                   default.state.solution.derivative, rtol=1e-6, atol=1e-9)

    @pytest.mark.parametrize("init, message", [
        (np.zeros(5), re.escape("init has shape (5,), expected (3,)")),
        (np.array([0.1, np.nan, 0.2]), "init must be finite"),
    ], ids=["wrong-length", "nan"])
    def test_rejects_a_bad_init(self, init, message):
        data, _, _ = make_gaussian_dataset(n=120, q=1, p=3, seed=7)
        config = FitConfig(smoothing=SmoothingParams(h=0.3), max_steps=1)
        with pytest.raises(ParameterError, match=message):
            g.fit("gaussian", data, config, init=init)

    @pytest.mark.parametrize("beta", (np.zeros(7), np.zeros((10, 1))), ids=["short", "column"])
    def test_state_names_a_beta_of_the_wrong_shape(self, beta):
        data = g.generate(g.make_design("poisson", 200), seed=g.replicate_seed(5, 0))
        delta, h = g.preset_smoothing("poisson", 200)
        engine = ProfileEngine("poisson", data, SmoothingParams(h=h, delta=delta))
        with pytest.raises(ParameterError,
                           match=re.escape(f"beta has shape {beta.shape}, expected (10,)")):
            engine.state(beta)
        # a non-finite trial beta of the right shape is not a ParameterError,
        # which cross-validation would re-raise instead of failing the cell
        with pytest.raises(g.SingularityError, match="non-finite entry"):
            engine.state(np.full(10, np.nan))

    def test_monotone_ascent_trace(self):
        design = g.make_design("poisson", 200)
        sm = SmoothingParams(h=0.1, delta=0.1)
        for alg in ("backfitting", "accelerated", "full"):
            cfg = FitConfig(smoothing=sm, algorithm=alg, max_steps=5)
            data = g.generate(design, seed=g.replicate_seed(43, 1))
            res = g.fit("poisson", data, cfg)
            values = [v for _, v in res.trace]
            tol = 1e-9 * (1 + abs(values[0]))
            assert all(b >= a - tol for a, b in zip(values, values[1:]))
            assert res.algorithm_used == alg

    def test_algorithm_agreement_on_benchmark_poisson(self):
        design = g.make_design("poisson", 400)
        data = g.generate(design, seed=g.replicate_seed(47, 0))
        sm = SmoothingParams(h=0.08, delta=0.1)
        accel = g.fit("poisson", data, FitConfig(smoothing=sm, max_steps=50))
        full = g.fit("poisson", data,
                     FitConfig(smoothing=sm, algorithm="full", max_steps=50))
        backfit = g.fit("poisson", data,
                        FitConfig(smoothing=sm, algorithm="backfitting",
                                  max_steps=20))
        assert np.linalg.norm(accel.beta - full.beta) < 0.05
        assert np.linalg.norm(accel.beta - backfit.beta) < 0.1

    def test_fit_returns_display_curve(self):
        data, _, _ = make_gaussian_dataset(n=150, p=3, seed=21)
        sm = SmoothingParams(h=0.3)
        res = g.fit("gaussian", data, FitConfig(smoothing=sm))
        curve = g.fit_curve("gaussian", data, res.beta, sm)
        assert curve.grid.shape == (200,)
        assert curve.values.shape == (200, data.n_curves)
        assert np.all(np.isfinite(curve.values))
        assert np.all(np.diff(curve.grid) > 0)

    @pytest.mark.parametrize("algorithm", ("backfitting", "accelerated", "full"))
    def test_quasi_separated_bernoulli_is_flagged_or_a_typed_error(self, algorithm):
        cfg = FitConfig(SmoothingParams(h=0.3, delta=0.005), algorithm=algorithm,
                        max_steps=50)
        for seed in range(4):
            try:
                res = g.fit("bernoulli", _quasi_separated_bernoulli(seed), cfg)
            except g.GvcplmError:
                continue
            assert not res.converged, seed

    def test_builds_one_smoother(self, fitter_sizes):
        # the estimate needs the smoother at the observations only
        data, _, _ = make_gaussian_dataset(n=150, p=3, seed=21)
        g.fit("gaussian", data, FitConfig(smoothing=SmoothingParams(h=0.3)))
        assert fitter_sizes == [data.n]


class TestTangentStart:
    """Trials of the profile Newton ascent start their local fits from the
    first-order prediction off the accepted iterate."""

    @staticmethod
    def _first_step(family, n):
        design = g.make_design(family, n)
        data = g.generate(design, seed=g.replicate_seed(53, 0))
        delta, h = g.preset_smoothing(family, n)
        engine = ProfileEngine(family, data, SmoothingParams(h=h, delta=delta))
        state = engine.state(g.fit_dbe(family, data, delta).beta0)
        step = _solve_descent(engine.hessian(state), engine.gradient(state))
        return engine, state, state.beta + step

    def test_prediction_at_the_state_is_its_coefficients(self):
        engine, state, _ = self._first_step("poisson", 200)
        start = engine.tangent_start(state, state.beta.copy())
        assert np.array_equal(start, state.solution.coefficients)

    @pytest.mark.parametrize("family,n", [("poisson", 1500), ("bernoulli", 400)])
    def test_first_accelerated_step(self, family, n):
        engine, state, beta = self._first_step(family, n)
        tangent = engine.state(beta, engine.tangent_start(state, beta))
        plain = engine.state(beta, state.solution.coefficients)
        cold = engine.state(beta)
        # relative to the largest predictor: the local fits stop at a score
        # below LOCAL_TOL, which leaves ~1e-9 absolute between starts
        np.testing.assert_allclose(tangent.fitted, cold.fitted, rtol=0,
                                   atol=1e-9 * np.abs(cold.fitted).max())
        assert tangent.loglik == pytest.approx(cold.loglik, rel=1e-9)
        assert tangent.solution.converged.all()
        assert tangent.solution.iterations.sum() < plain.solution.iterations.sum()

    def test_glrt_does_not_depend_on_an_earlier_sandwich(self):
        design = _small_design("poisson", 200)
        data = g.generate(design, seed=g.replicate_seed(59, 0))
        cfg = FitConfig(smoothing=SmoothingParams(h=0.15, delta=0.1))
        con = g.make_constraint(np.eye(design.p_dim)[3:])
        first = g.fit("poisson", data, cfg)
        alone = g.glrt("poisson", data, con, cfg, fit_alt=first)
        second = g.fit("poisson", data, cfg)
        g.sandwich_covariance(second)
        after = g.glrt("poisson", data, con, cfg, fit_alt=second)
        assert alone.statistic == after.statistic
        assert np.array_equal(alone.beta_null, after.beta_null)

    def test_backfitting_never_differentiates_the_curve(self, monkeypatch):
        calls = []
        differentiate = CurveFitter._differentiate
        monkeypatch.setattr(CurveFitter, "_differentiate",
                            lambda self, *a: calls.append(1) or differentiate(self, *a))
        design = _small_design("poisson", 200)
        data = g.generate(design, seed=g.replicate_seed(61, 0))
        sm = SmoothingParams(h=0.15, delta=0.1)
        res = g.fit("poisson", data, FitConfig(smoothing=sm, algorithm="backfitting"))
        assert calls == [] and res.state.solution.derivative is None
        g.fit("poisson", data, FitConfig(smoothing=sm))
        assert calls


@settings(max_examples=30, deadline=None)
@given(family=st.sampled_from(["poisson", "bernoulli"]), seed=st.integers(0, 2 ** 16),
       j=st.integers(0, 9), log2_c=st.floats(-6.0, 6.0))
def test_scaling_a_z_column_rescales_its_coefficient(family, seed, j, log2_c):
    # the default accelerated fit is equivariant in the scale of each linear
    # covariate: z_j -> c z_j maps beta_j to beta_j / c and leaves the rest,
    # to rounding relative to the largest coefficient (an estimate near a
    # zero true coefficient is itself near 0, so its own relative error
    # measures that rounding over a small number)
    c = 2.0 ** log2_c
    data = g.generate(g.make_design(family, 200), seed=g.replicate_seed(seed, 0))
    delta, h = g.preset_smoothing(family, 200)
    config = FitConfig(SmoothingParams(h=h, delta=delta))
    z = data.z.copy()
    z[:, j] *= c
    beta = g.fit(family, data, config).beta
    scaled = g.fit(family, dataclasses.replace(data, z=z), config).beta
    scaled[j] *= c
    np.testing.assert_allclose(scaled, beta, rtol=0, atol=1e-12 * np.abs(beta).max())


@settings(max_examples=30, deadline=None)
@given(family=st.sampled_from(["poisson", "bernoulli"]), seed=st.integers(0, 2 ** 16),
       a=st.floats(-100.0, 100.0), log10_s=st.floats(-1.0, 1.0))
def test_an_affine_map_of_u_leaves_beta_unchanged(family, seed, a, log10_s):
    """Fitting on a + s u with bandwidth s h gives the same beta_hat.

    The estimator is invariant, but the fit agrees to the local Newton
    tolerance, not to rounding: LOCAL_TOL is absolute in gradient units, and
    the kernel weights K(t / h) / h, and with them the local gradients, scale
    with 1 / s, so the local fits stop at other points of their tolerance.
    1e-9 of the largest coefficient bounds that (a translation alone agrees
    to rounding).
    """
    s = 10.0 ** log10_s
    data = g.generate(g.make_design(family, 200), seed=g.replicate_seed(seed, 0))
    delta, h = g.preset_smoothing(family, 200)
    beta = g.fit(family, data, FitConfig(SmoothingParams(h=h, delta=delta))).beta
    moved = g.fit(family, dataclasses.replace(data, u=a + s * data.u),
                  FitConfig(SmoothingParams(h=s * h, delta=delta))).beta
    np.testing.assert_allclose(moved, beta, rtol=0, atol=1e-9 * np.abs(beta).max())
