import numpy as np
import pytest

import gvcplm as g
from gvcplm import (
    Dataset,
    FitConfig,
    ParameterError,
    ProfileEngine,
    RankError,
    SmoothingParams,
)

from conftest import make_gaussian_dataset
from oracles import chi2_upper_oracle


class TestChi2UpperTail:
    def test_zero_statistic(self):
        assert g.chi2_upper_tail(0.0, 1) == pytest.approx(1.0)

    def test_standard_quantile(self):
        assert g.chi2_upper_tail(3.841458820694124, 1) == pytest.approx(0.05, abs=1e-10)

    def test_reference_value_one_df(self):
        # T = 14.47 with one degree of freedom gives p close to 0.0001
        assert g.chi2_upper_tail(14.47, 1) == pytest.approx(0.0001, abs=5e-5)

    @pytest.mark.parametrize("df", (1, 2, 5, 7, 20))
    def test_matches_series_continued_fraction_oracle(self, df):
        for x in (0.01, 0.5, 1.0, 3.7, 10.0, 25.0, 80.0):
            assert g.chi2_upper_tail(x, df) == pytest.approx(
                chi2_upper_oracle(x, df), abs=1e-10
            )

    def test_negative_clamped(self):
        assert g.chi2_upper_tail(-2.0, 3) == pytest.approx(1.0)

    def test_bad_df(self):
        with pytest.raises(ParameterError):
            g.chi2_upper_tail(1.0, 0)


class TestMakeConstraint:
    def test_unit_coordinate_row_is_unchanged(self):
        row = np.zeros(10)
        row[6] = 1.0
        con = g.make_constraint(row[None, :])
        np.testing.assert_allclose(con.a, row[None, :])
        assert con.b.shape == (9, 10)
        assert np.abs(con.a @ con.b.T).max() < 1e-12

    def test_coordinate_pair(self):
        rows = np.eye(10)[6:8]
        con = g.make_constraint(rows)
        np.testing.assert_allclose(con.a, rows)
        np.testing.assert_allclose(con.b @ con.b.T, np.eye(8), atol=1e-12)
        assert np.abs(con.a @ con.b.T).max() < 1e-12

    def test_orthonormalization_preserves_rowspace(self):
        rows = np.zeros((2, 6))
        rows[0, :2] = [2.0, 2.0]
        rows[1, :2] = [1.0, -1.0]
        con = g.make_constraint(rows)
        np.testing.assert_allclose(con.a @ con.a.T, np.eye(2), atol=1e-12)
        # same span as e1, e2
        proj = con.a.T @ con.a
        expect = np.zeros((6, 6))
        expect[0, 0] = expect[1, 1] = 1.0
        np.testing.assert_allclose(proj, expect, atol=1e-12)

    def test_dependent_rows_rejected(self):
        rows = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        with pytest.raises(RankError):
            g.make_constraint(rows)


class TestSandwichCovariance:
    def _fit(self, data, sm, **kw):
        cfg = FitConfig(smoothing=sm, max_steps=20, **kw)
        return g.fit("gaussian", data, cfg, curve_grid=False)

    def test_close_to_classical_ols_covariance(self):
        # intercept-only curve with flat truth: the model is a linear model
        # plus a nuisance intercept curve, so the sandwich should land near
        # the classical OLS covariance of the centered design; ratios are
        # averaged over replicates because a single meat estimate carries
        # over 10 percent Monte Carlo noise per coordinate
        n, p = 500, 4
        sm = SmoothingParams(h=0.4)
        beta0 = np.array([1.0, -0.5, 0.25, 0.0])
        ratios = []
        for seed in range(8):
            gen = np.random.default_rng(2024 + seed)
            u = gen.uniform(0, 1, n)
            z = gen.normal(size=(n, p))
            y = 0.7 + z @ beta0 + gen.normal(size=n)
            data = Dataset(u=u, x=np.ones((n, 1)), z=z, y=y)
            res = self._fit(data, sm)
            cov = g.sandwich_covariance(res)
            zc = z - z.mean(axis=0)
            classical = np.linalg.inv(zc.T @ zc)  # sigma^2 = 1
            ratios.append(np.diag(cov.sigma) / np.diag(classical))
        mean_ratio = np.mean(ratios, axis=0)
        assert np.all(np.abs(mean_ratio - 1.0) < 0.10)

    def test_duplicating_data_halves_sigma(self):
        data, _, _ = make_gaussian_dataset(n=250, p=4, seed=31)
        doubled = Dataset(
            u=np.concatenate([data.u, data.u]),
            x=np.vstack([data.x, data.x]),
            z=np.vstack([data.z, data.z]),
            y=np.concatenate([data.y, data.y]),
        )
        sm = SmoothingParams(h=0.3)
        res = self._fit(data, sm)
        cov1 = g.sandwich_covariance(res)
        # duplicated rows make the difference-based start degenerate (tied u
        # windows), which is the documented least-norm fallback path
        with pytest.warns(UserWarning, match="rank deficient"):
            res2 = self._fit(doubled, sm)
        cov2 = g.sandwich_covariance(res2)
        ratio = np.diag(cov2.sigma) / np.diag(cov1.sigma)
        assert np.all(np.abs(ratio - 0.5) < 0.15 * 0.5 + 0.075)

    def test_structure_invariants(self):
        data, _, _ = make_gaussian_dataset(n=200, p=5, seed=33)
        sm = SmoothingParams(h=0.3)
        res = self._fit(data, sm)
        cov = g.sandwich_covariance(res)
        np.testing.assert_allclose(cov.sigma, cov.sigma.T, atol=1e-12)
        np.testing.assert_allclose(cov.bread, cov.bread.T, atol=1e-8)
        assert np.all(np.diag(cov.sigma) >= 0)
        assert np.all(np.linalg.eigvalsh(cov.bread) < 0)
        assert np.min(np.linalg.eigvalsh(cov.meat)) > -1e-10
        assert cov.se.shape == (5,)


class TestGlrt:
    def test_exact_null_gives_zero_statistic(self):
        # noise-free instance whose last two true coefficients are zero
        data, beta0, _ = make_gaussian_dataset(n=200, p=5, seed=35, noise=0.0,
                                               alpha_linear=True)
        z = data.z.copy()
        y = data.y - z[:, 3:] @ beta0[3:]  # rebuild response with beta4=beta5=0
        data = Dataset(u=data.u, x=data.x, z=z, y=y)
        con = g.make_constraint(np.eye(5)[3:])
        cfg = FitConfig(smoothing=SmoothingParams(h=0.25), max_steps=30)
        res = g.glrt("gaussian", data, con, cfg)
        assert res.statistic == pytest.approx(0.0, abs=1e-6)
        assert res.p_value == pytest.approx(1.0, abs=1e-6)
        np.testing.assert_allclose(con.a @ res.beta_null, 0.0, atol=1e-10)

    def test_statistic_nonnegative_and_invariant_to_row_mixing(self, rng):
        design = g.poisson_design(200)
        data = g.generate(design, seed=g.replicate_seed(53, 0))
        cfg = FitConfig(smoothing=SmoothingParams(h=0.1, delta=0.1), max_steps=30)
        fit_alt = g.fit("poisson", data, cfg, curve_grid=False)
        rows = np.eye(design.p_dim)[6:]
        base = g.glrt("poisson", data, g.make_constraint(rows), cfg, fit_alt=fit_alt)
        assert base.statistic_raw > -1e-6
        for _ in range(3):
            mix, _ = np.linalg.qr(rng.normal(size=(rows.shape[0], rows.shape[0])))
            mixed = g.glrt("poisson", data, g.make_constraint(mix @ rows), cfg,
                           fit_alt=fit_alt)
            assert mixed.statistic == pytest.approx(base.statistic, abs=1e-6)

    def test_single_df_reports_signed_root(self):
        data, beta0, _ = make_gaussian_dataset(n=200, p=4, seed=37)
        cfg = FitConfig(smoothing=SmoothingParams(h=0.3), max_steps=20)
        con = g.make_constraint(np.eye(4)[:1])
        res = g.glrt("gaussian", data, con, cfg)
        assert res.df == 1
        assert res.signed_root is not None
        assert np.sign(res.signed_root) == np.sign(res.beta_alt[0])
        assert res.signed_root ** 2 == pytest.approx(res.statistic, rel=1e-10)
        assert res.p_value_one_sided == pytest.approx(res.p_value / 2)

    def test_null_estimate_satisfies_constraint(self):
        design = g.poisson_design(200)
        data = g.generate(design, seed=g.replicate_seed(59, 0))
        cfg = FitConfig(smoothing=SmoothingParams(h=0.1, delta=0.1), max_steps=3)
        con = g.make_constraint(np.eye(design.p_dim)[6:])
        res = g.glrt("poisson", data, con, cfg)
        np.testing.assert_allclose(con.a @ res.beta_null, 0.0, atol=1e-10)
        assert res.df == design.p_dim - 6


def _design_fit(family, seed):
    design = g.make_design(family, 200)
    data = g.generate(design, seed=g.replicate_seed(seed, 0))
    delta, h = g.preset_smoothing(family, 200)
    cfg = FitConfig(smoothing=SmoothingParams(h=h, delta=delta), max_steps=3)
    return design, data, cfg, g.fit(family, data, cfg, curve_grid=False)


class TestInferenceReadsFitState:
    @pytest.mark.parametrize("family", ("poisson", "bernoulli"))
    def test_sandwich_matches_fresh_engine_at_beta(self, family):
        # reference: the scores and the bread rebuilt from a new engine and a
        # cold local solve at the fitted beta
        _, data, cfg, res = _design_fit(family, 107)
        cov = g.sandwich_covariance(res)
        engine = ProfileEngine(family, data, cfg.smoothing)
        state = engine.state(res.beta)
        psi = engine.score_vectors(state)
        meat = psi.T @ psi / data.n - np.outer(psi.mean(axis=0), psi.mean(axis=0))
        inv_bread = np.linalg.inv(engine.hessian(state))
        sigma = data.n * inv_bread @ meat @ inv_bread.T
        # the fit's warm local solve and the cold one stop at the same local
        # gradient tolerance, not at the same bits
        assert np.max(np.abs(res.fitted - state.fitted)) <= 1e-8 * np.max(np.abs(state.fitted))
        assert np.max(np.abs(cov.sigma - sigma)) <= 1e-8 * np.max(np.abs(sigma))
        np.testing.assert_allclose(cov.se, np.sqrt(np.diag(sigma)), rtol=1e-8)

    def test_glrt_does_not_depend_on_engine_history(self):
        design, data, cfg, fit_alt = _design_fit("poisson", 109)
        joint = g.make_constraint(np.eye(design.p_dim)[6:])
        single = g.make_constraint(np.eye(design.p_dim)[:1])
        first = g.glrt("poisson", data, joint, cfg, fit_alt=fit_alt)
        g.glrt("poisson", data, single, cfg, fit_alt=fit_alt)
        again = g.glrt("poisson", data, joint, cfg, fit_alt=fit_alt)
        refit = g.glrt("poisson", data, joint, cfg)
        assert again.statistic == first.statistic
        assert refit.statistic == first.statistic
        np.testing.assert_array_equal(refit.beta_null, first.beta_null)

    def test_glrt_rejects_fit_on_other_data_or_family(self):
        design, data, cfg, fit_alt = _design_fit("poisson", 109)
        other = g.generate(design, seed=g.replicate_seed(110, 0))
        joint = g.make_constraint(np.eye(design.p_dim)[6:])
        with pytest.raises(ParameterError, match="data"):
            g.glrt("poisson", other, joint, cfg, fit_alt=fit_alt)
        with pytest.raises(ParameterError, match="family"):
            g.glrt("bernoulli", data, joint, cfg, fit_alt=fit_alt)

    @pytest.mark.parametrize("family", ("poisson", "bernoulli"))
    def test_engine_state_is_history_free(self, family):
        # a state depends on beta and its warm start only: an engine that has
        # served a fit, a GLRT and a state elsewhere gives a new engine's bits
        design, data, cfg, res = _design_fit(family, 113)
        fresh = ProfileEngine(family, data, cfg.smoothing).state(res.beta)
        g.glrt(family, data, g.make_constraint(np.eye(design.p_dim)[6:]), cfg,
               fit_alt=res)
        res.engine.state(np.zeros(design.p_dim))
        used = res.engine.state(res.beta)
        assert used.loglik == fresh.loglik
        np.testing.assert_array_equal(used.fitted, fresh.fitted)
        np.testing.assert_array_equal(used.solution.coefficients,
                                      fresh.solution.coefficients)

    def test_glrt_rejects_fit_with_other_smoothing(self):
        design, data, cfg, fit_alt = _design_fit("poisson", 109)
        other = FitConfig(smoothing=SmoothingParams(h=0.2, delta=0.1))
        with pytest.raises(ParameterError, match="smoothing"):
            g.glrt("poisson", data, g.make_constraint(np.eye(design.p_dim)[6:]),
                   other, fit_alt=fit_alt)
