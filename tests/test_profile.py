import numpy as np
import pytest

import gvcplm as g
from gvcplm import CurveFitter, FitConfig, ParameterError, SmoothingParams
from gvcplm.profile import ProfileEngine, _solve_descent

from conftest import make_gaussian_dataset
from oracles import fd_gradient, gaussian_profile_sse, gaussian_profile_wls


def _small_design(family, n, p=5, seed=2):
    design = g.make_design(family, n)
    return g.SimDesign(family, n, p, design.beta0[:p], design.alpha_funcs, seed=seed)


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
        design = g.poisson_design(200)
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

    def test_monotone_ascent_trace(self):
        design = g.poisson_design(200)
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
        design = g.poisson_design(400)
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
