import gc
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg as sla
from scipy import special

import gvcplm as g
from gvcplm import (
    Dataset,
    FitConfig,
    ParameterError,
    ProfileEngine,
    RankError,
    SmoothingParams,
)

from gvcplm.profile import _State, _newton_fit
from gvcplm.smoothing import BatchSolution

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

    @pytest.mark.parametrize("df", (2.5, 0.5, float("nan"), float("inf")))
    def test_non_integer_df_rejected(self, df):
        with pytest.raises(ParameterError, match="integer"):
            g.chi2_upper_tail(1.0, df)

    def test_nan_statistic_gives_nan(self):
        assert math.isnan(g.chi2_upper_tail(float("nan"), 3))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 60), st.floats(0.0, 5000.0))
    def test_matches_regularized_upper_gamma(self, df, x):
        reference = special.gammaincc(df / 2.0, x / 2.0)
        value = g.chi2_upper_tail(x, df)
        if reference >= 1e-300:
            assert abs(value - reference) <= 1e-12 * reference
        else:
            assert abs(value - reference) <= 1e-300

    def test_relative_error_to_df_100_around_the_mean(self):
        # each term's exponent rounds at its own magnitude, so the error
        # grows with df; 1e-13 holds up to df = 100 (about 6e-14 measured)
        for df in range(1, 101):
            for x in np.linspace(0.5 * df, 2.5 * df, 101):
                reference = special.gammaincc(df / 2.0, x / 2.0)
                assert abs(g.chi2_upper_tail(x, df) - reference) <= 1e-13 * reference, (df, x)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 60), st.floats(0.0, 5000.0), st.floats(0.0, 5000.0))
    def test_nonincreasing_in_the_statistic(self, df, x1, x2):
        lo, hi = sorted((x1, x2))
        assert g.chi2_upper_tail(hi, df) <= g.chi2_upper_tail(lo, df) <= 1.0

    @pytest.mark.parametrize("df", (7, 20, 21, 40, 60))
    def test_at_most_one_and_ordered_below_the_mode(self, df):
        # where the tail is within rounding of 1, its terms' rounding must
        # not carry it past 1 or out of order
        tails = np.array([g.chi2_upper_tail(x, df) for x in np.linspace(0.0, 2.0 * df, 4001)])
        assert tails.max() <= 1.0
        assert np.all(np.diff(tails) <= 0.0)

    @given(st.floats(0.0, 5000.0))
    def test_two_df_is_the_exponential_tail(self, x):
        assert g.chi2_upper_tail(x, 2) == math.exp(-x / 2.0)


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

    @pytest.mark.parametrize("p", (10, 13, 20, 28))
    def test_basis_is_scipy_null_space(self, p):
        # the hypotheses z7 = ... = zp = 0 of the benchmark designs
        rows = np.eye(p)[6:]
        np.testing.assert_array_equal(g.make_constraint(rows).b, sla.null_space(rows).T)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 10), st.integers(0, 2**32 - 1))
    def test_basis_completes_random_rows(self, l, extra, seed):
        p = l + extra
        rows = np.random.default_rng(seed).normal(size=(l, p))
        con = g.make_constraint(rows)
        assert con.b.shape == (p - l, p)
        np.testing.assert_allclose(con.b @ con.b.T, np.eye(p - l), atol=1e-12)
        assert np.abs(con.a @ con.b.T).max() <= 1e-12


class TestSandwichCovariance:
    def _fit(self, data, sm, **kw):
        cfg = FitConfig(smoothing=sm, max_steps=20, **kw)
        return g.fit("gaussian", data, cfg)

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
        fit_alt = g.fit("poisson", data, cfg)
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


class TestRowPermutationInvariance:
    # the estimator depends on the data through its order in u only, so
    # shuffling the rows leaves the fit and the test unchanged up to rounding
    N = 150

    @staticmethod
    def _fit_and_test(family, data):
        delta, h = g.preset_smoothing(family, data.n)
        cfg = FitConfig(smoothing=SmoothingParams(h=h, delta=delta), max_steps=30)
        p = data.z.shape[1]
        fit = g.fit(family, data, cfg)
        test = g.glrt(family, data, g.make_constraint(np.eye(p)[6:]), cfg, fit_alt=fit)
        return fit, test

    @pytest.fixture(scope="class", params=("poisson", "bernoulli"))
    def reference(self, request):
        family = request.param
        data = g.generate(g.make_design(family, self.N), seed=g.replicate_seed(131, 0))
        return (family, data, *self._fit_and_test(family, data))

    @settings(max_examples=15, deadline=None)
    @given(perm=st.permutations(range(N)))
    def test_fit_and_glrt_ignore_row_order(self, reference, perm):
        family, data, fit, test = reference
        perm = np.asarray(perm)
        shuffled = Dataset(u=data.u[perm], x=data.x[perm], z=data.z[perm], y=data.y[perm])
        fit_p, test_p = self._fit_and_test(family, shuffled)
        assert fit_p.converged == fit.converged
        assert np.abs(fit_p.beta - fit.beta).max() <= 1e-12 * np.abs(fit.beta).max()
        loglik = abs(fit.profile_loglik)
        assert abs(fit_p.profile_loglik - fit.profile_loglik) <= 1e-12 * loglik
        assert abs(test_p.statistic - test.statistic) <= 1e-12 * loglik


def _new_objects(before, kinds):
    """Objects of kinds alive now that were not in before."""
    gc.collect()
    return [obj for obj in gc.get_objects() if isinstance(obj, kinds)
            and not any(obj is old for old in before)]


def _design_fit(family, seed):
    design = g.make_design(family, 200)
    data = g.generate(design, seed=g.replicate_seed(seed, 0))
    delta, h = g.preset_smoothing(family, 200)
    cfg = FitConfig(smoothing=SmoothingParams(h=h, delta=delta), max_steps=3)
    return design, data, cfg, g.fit(family, data, cfg)


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

    @pytest.mark.parametrize("family", ("poisson", "bernoulli"))
    def test_states_release_their_curvature_once_differentiated(self, family):
        # each group's (b_g, width) curvature is differentiated inside the
        # solve and then dropped: after a fit, a sandwich and a GLRT the one
        # live new state and its solution hold (p,), (n,), (n, d) and
        # (n, p, d) arrays only
        kinds = (_State, BatchSolution)
        gc.collect()
        before = [obj for obj in gc.get_objects() if isinstance(obj, kinds)]
        design, data, cfg, res = _design_fit(family, 127)
        g.sandwich_covariance(res)
        g.glrt(family, data, g.make_constraint(np.eye(design.p_dim)[6:]), cfg, fit_alt=res)
        new = _new_objects(before, kinds)
        assert len(new) == 2 and {id(obj) for obj in new} == {id(res.state),
                                                              id(res.state.solution)}
        n, p, d = data.n, design.p_dim, res.engine.fitter.n_coef
        shapes = {(p,), (n,), (n, d), (n, p, d)}
        fields = [*res.state.solution] + [getattr(res.state, name)
                                          for name in res.state.__slots__]
        assert all(np.shape(v) in shapes for v in fields
                   if not isinstance(v, (float, BatchSolution)))

    @pytest.mark.parametrize("family", ("poisson", "bernoulli"))
    def test_sandwich_and_glrt_of_a_backfitting_fit(self, family):
        # a backfitting fit's states carry no derivative: inference solves
        # the final state again at its beta, with the derivative
        design, data, cfg, _ = _design_fit(family, 131)
        cfg = FitConfig(smoothing=cfg.smoothing, algorithm="backfitting")
        res = g.fit(family, data, cfg)
        assert res.state.solution.derivative is None
        cov = g.sandwich_covariance(res)
        engine = ProfileEngine(family, data, cfg.smoothing)
        state = engine.state(res.beta)
        psi = engine.score_vectors(state)
        meat = psi.T @ psi / data.n - np.outer(psi.mean(axis=0), psi.mean(axis=0))
        inv_bread = np.linalg.inv(engine.hessian(state))
        np.testing.assert_allclose(cov.se, np.sqrt(np.diag(data.n * inv_bread @ meat
                                                           @ inv_bread.T)), rtol=1e-8)

        # the null fit from the tangent start agrees with one from cold starts
        constraint = g.make_constraint(np.eye(design.p_dim)[6:])
        test = g.glrt(family, data, constraint, cfg, fit_alt=res)
        cold, _, _, _ = _newton_fit(engine, cfg, constraint.b @ res.beta, basis=constraint.b)
        assert test.loglik_alt == res.profile_loglik
        assert test.loglik_null == pytest.approx(cold.loglik, rel=1e-10)
        np.testing.assert_allclose(test.beta_null, cold.beta, rtol=1e-6, atol=1e-8)

    def test_backfitting_fit_is_differentiated_once_for_inference(self, monkeypatch):
        # the backfitting ascent never differentiates, so every differentiated
        # state is a re-solve of the fit's final state for inference
        design, data, cfg, _ = _design_fit("poisson", 131)
        cfg = FitConfig(smoothing=cfg.smoothing, algorithm="backfitting")
        constraint = g.make_constraint(np.eye(design.p_dim)[6:])
        alone_cov = g.sandwich_covariance(g.fit("poisson", data, cfg))
        alone_test = g.glrt("poisson", data, constraint, cfg,
                            fit_alt=g.fit("poisson", data, cfg))
        resolves = []
        state = ProfileEngine.state

        def counted(self, beta, warm=None, differentiate=True):
            resolves.append(differentiate)
            return state(self, beta, warm, differentiate)

        monkeypatch.setattr(ProfileEngine, "state", counted)
        res = g.fit("poisson", data, cfg)
        cov = g.sandwich_covariance(res)
        test = g.glrt("poisson", data, constraint, cfg, fit_alt=res)
        assert resolves.count(True) == 1
        np.testing.assert_array_equal(cov.se, alone_cov.se)
        assert test.statistic == alone_test.statistic

    def test_glrt_rejects_fit_with_other_smoothing(self):
        design, data, cfg, fit_alt = _design_fit("poisson", 109)
        other = FitConfig(smoothing=SmoothingParams(h=0.2, delta=0.1))
        with pytest.raises(ParameterError, match="smoothing"):
            g.glrt("poisson", data, g.make_constraint(np.eye(design.p_dim)[6:]),
                   other, fit_alt=fit_alt)
