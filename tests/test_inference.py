import gc
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import linalg as sla
from scipy import special

import gvcplm as g
from gvcplm import (
    CurveFitter,
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

    @pytest.mark.parametrize("df", (2.5, 0.5, float("nan"), float("inf"), True, "3"))
    def test_non_integer_df_rejected(self, df):
        with pytest.raises(ParameterError, match="integer"):
            g.chi2_upper_tail(1.0, df)

    @pytest.mark.parametrize("x", ("a", None, [1, 2], True))
    def test_non_real_statistic_rejected(self, x):
        with pytest.raises(ParameterError, match="statistic must be a real number"):
            g.chi2_upper_tail(x, 3)

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

    @pytest.mark.parametrize("p", (1, 6))
    def test_no_rows_rejected(self, p):
        with pytest.raises(ParameterError, match="hypothesis has 0 rows"):
            g.make_constraint(np.zeros((0, p)))

    def test_dependent_rows_rejected(self):
        rows = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        with pytest.raises(RankError):
            g.make_constraint(rows)

    @pytest.mark.parametrize("bad", (np.nan, np.inf))
    def test_non_finite_rows_rejected(self, bad):
        # checked before the rank, whose SVD fails on NaN and misreads inf
        rows = np.eye(5)[3:]
        rows[1, 0] = bad
        with pytest.raises(ParameterError, match="hypothesis rows must be finite"):
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
        # b is the rows' own null space, and each row of a points along its row
        np.testing.assert_array_equal(con.b, sla.null_space(rows).T)
        assert np.all(np.diag(con.a @ rows.T) > 0)


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
        design = g.make_design("poisson", 200)
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
        design = g.make_design("poisson", 200)
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

    @pytest.mark.parametrize("family", ("poisson", "bernoulli"))
    def test_fit_se_and_glrt_within_their_rounding_bands(self, family):
        # the bands, fixed before the permuted runs, are eps times the
        # magnitude of the sums each result rests on.  Reordering n summands
        # moves a sum by at most (n - 1) eps sum |terms| (Higham, Accuracy and
        # Stability of Numerical Algorithms, 2002, section 4.2), so, to first
        # order: beta_hat, the root of the profile score sum psi_i, by |H^-1|
        # times (n - 1) eps sum |psi_i|; each SE by (n - 1) eps kappa(bread),
        # relative; and T = 2 (l_alt - l_null), each l a sum of n Q_i, by
        # 4 (n - 1) eps sum |Q_i|.  Measured on these draws: beta within 0.03
        # of its band, SE within 2.1e-14 relative (band 7e-13), T within
        # 1.4 eps sum |Q_i| (band 796 eps sum |Q_i|)
        n, eps = 200, np.finfo(float).eps
        data = g.generate(g.make_design(family, n), seed=g.replicate_seed(2001, 0))
        assert np.unique(data.u).size == n
        delta, h = g.preset_smoothing(family, n)
        cfg = FitConfig(smoothing=SmoothingParams(h=h, delta=delta), max_steps=30)
        constraint = g.make_constraint(np.eye(data.n_linear)[6:])

        def fit_se_and_test(d):
            fit = g.fit(family, d, cfg)
            return fit, g.sandwich_covariance(fit), g.glrt(family, d, constraint, cfg,
                                                           fit_alt=fit)

        fit, cov, test = fit_se_and_test(data)
        state = fit.differentiated_state
        psi = fit.engine.score_vectors(state)
        beta_band = (n - 1) * eps * np.abs(np.linalg.inv(fit.engine.hessian(state))) \
            @ np.abs(psi).sum(axis=0)
        se_band = (n - 1) * eps * np.linalg.cond(cov.bread)
        q_sum = np.abs(g.get_family(family).q012(fit.fitted, data.y)[0]).sum()
        t_band = 4 * (n - 1) * eps * q_sum
        for seed in range(3):
            perm = np.random.default_rng(seed).permutation(n)
            fit_p, cov_p, test_p = fit_se_and_test(
                Dataset(u=data.u[perm], x=data.x[perm], z=data.z[perm], y=data.y[perm]))
            assert fit_p.converged and fit.converged
            assert np.all(np.abs(fit_p.beta - fit.beta) <= beta_band)
            assert np.all(np.abs(cov_p.se - cov.se) <= se_band * cov.se)
            assert abs(test_p.statistic - test.statistic) <= t_band



class TestBernoulliLabelFlip:
    # y -> 1 - y negates the logit predictor: Q(-eta, 1 - y) = Q(eta, y) and
    # the cold start's logit transform is odd, so the flipped data's fit is
    # -beta_hat, -alpha_hat with the same SEs, T and CV scores, up to
    # rounding.  The flip changes the rounding of every term of every sum,
    # not only their order, so each band below is twice what one run's sums
    # carry: n eps times the magnitude of the sum (Higham, Accuracy and
    # Stability of Numerical Algorithms, 2002, section 4.2).  beta_hat, the
    # root of the profile score sum psi_i, by 2 n eps |H^-1| sum |psi_i|; each
    # SE by 2 n eps kappa(bread), relative; T = 2 (l_alt - l_null), each l a
    # sum of n Q_i, by 8 n eps sum |Q_i|.  Measured on 60 random draws at
    # degrees 0-2, n = 200, all converged: beta_hat within 0.016 of its band
    # (4.5e-14 SE), SE within 0.008 and T within 0.004 of theirs
    N, CONSTRAINED = 200, slice(6, None)   # the GLRT holds z7 .. zp at 0

    @classmethod
    def _draw(cls, degree, seed):
        data = g.generate(g.make_design("bernoulli", cls.N), seed=g.replicate_seed(seed, 0))
        delta, h = g.preset_smoothing("bernoulli", cls.N)
        cfg = FitConfig(smoothing=SmoothingParams(h=h, delta=delta, degree=degree),
                        max_steps=30)
        flipped = Dataset(u=data.u, x=data.x, z=data.z, y=1.0 - data.y)
        return data, flipped, cfg

    @classmethod
    def _fit_se_and_test(cls, data, cfg):
        fit = g.fit("bernoulli", data, cfg)
        constraint = g.make_constraint(np.eye(data.n_linear)[cls.CONSTRAINED])
        return fit, g.sandwich_covariance(fit), g.glrt("bernoulli", data, constraint, cfg,
                                                       fit_alt=fit)

    @classmethod
    def _beta_band(cls, fit):
        state = fit.differentiated_state
        psi = fit.engine.score_vectors(state)
        return 2 * cls.N * np.finfo(float).eps \
            * np.abs(np.linalg.inv(fit.engine.hessian(state))) @ np.abs(psi).sum(axis=0)

    @settings(max_examples=6, deadline=None)
    @given(degree=st.integers(0, 2), seed=st.integers(1, 10**6))
    def test_fit_se_and_glrt_flip_with_the_labels(self, degree, seed):
        data, flipped, cfg = self._draw(degree, seed)
        fit, cov, test = self._fit_se_and_test(data, cfg)
        # an unconverged ascent amplifies the rounding it started from
        assume(fit.converged)
        n, eps = self.N, np.finfo(float).eps
        beta_band = self._beta_band(fit)
        se_band = 2 * n * eps * np.linalg.cond(cov.bread)
        t_band = 8 * n * eps * np.abs(g.get_family("bernoulli").q012(fit.fitted, data.y)[0]).sum()
        fit_f, cov_f, test_f = self._fit_se_and_test(flipped, cfg)
        assert fit_f.converged
        assert np.all(np.abs(fit_f.beta + fit.beta) <= beta_band)
        assert np.all(np.abs(cov_f.se - cov.se) <= se_band * cov.se)
        assert abs(test_f.statistic - test.statistic) <= t_band

    @pytest.mark.parametrize("degree, seed", [
        (0, 1), (1, 2), (2, 3),
        pytest.param(2, 9, marks=pytest.mark.xfail(
            strict=True, raises=AssertionError,
            reason="a training fold's fit diverges unconverged (quasi-separation) and "
                   "cross_validate scores it: the flipped run's scores differ by up to "
                   "29% and it picks another cell")),
    ], ids=["degree0-seed1", "degree1-seed2", "degree2-seed3", "degree2-seed9"])
    def test_cross_validation_flips_with_the_labels(self, degree, seed):
        # a cell's score s is a sum of n held-out Q_i <= 0, so the pair's
        # sums round by 2 n eps |s|, and the evaluation of each Q_i by as
        # much again; and each held-out predictor moves with its fold fit's
        # rounding, |z_i| times a beta_hat band (the fold fits rest on 2/3 of
        # the full fit's sums), which moves Q_i by as much, |q_1| = |y - p|
        # <= 1.  Measured: within 3e-4 of the band on the passing
        # draws below, up to 0.035 on others at degree 2; 1.2e11 times it on
        # the failing one
        data, flipped, cfg = self._draw(degree, seed)
        h = cfg.smoothing.h
        grid = [(delta, f * h) for delta in (0.005, 0.05) for f in (0.8, 1.0)]
        fit = g.fit("bernoulli", data, cfg)
        spread = np.abs(data.z).sum(axis=0) @ self._beta_band(fit)
        cv = g.cross_validate("bernoulli", data, grid=grid, k=3, config=cfg)
        band = 4 * self.N * np.finfo(float).eps * np.abs(cv.scores) + spread
        cv_f = g.cross_validate("bernoulli", flipped, grid=grid, k=3, config=cfg)
        assert not cv.failed.any() and not cv_f.failed.any()
        assert np.all(np.abs(cv_f.scores - cv.scores) <= band)
        assert cv_f.best == cv.best


class TestLinearCovariateShift:
    # z_j -> z_j + c with x holding its intercept column adds c beta_j to
    # every linear predictor, which alpha_1 absorbs: the profile likelihood
    # in beta is unchanged, so beta_hat, the SEs and T stay, and the curve
    # alpha_1_hat at a given beta moves by -c beta_j.  The shift changes the
    # rounding of every term, not only their order, so each band is twice
    # what one run's sums carry, n eps times their magnitude (Higham,
    # Accuracy and Stability of Numerical Algorithms, 2002, section 4.2),
    # as in TestBernoulliLabelFlip, times (1 + |c|) where a shifted z_j
    # enters: z_j + c rounds at eps (|z_j| + |c|), with z_j of order 1, and
    # the profile score's z_j + alpha_1' cancels the c again.  beta_hat by
    # 2 n eps (1 + |c|) |H^-1| sum |psi_i|; each SE by 2 n eps (1 + |c|)
    # kappa(bread), relative; T by 8 n eps (1 + |c|) sum |Q_i|; and each
    # alpha_1_hat on the grid, a local solve on at most n points whose
    # predictors hold alpha_1 and c beta_j, by 2 n eps (max |alpha_1_hat| +
    # |c beta_j|)
    N, CONSTRAINED = 200, slice(6, None)   # the GLRT holds z7 .. zp at 0

    @classmethod
    def _fit_se_test_and_curve(cls, family, data, cfg, beta=None):
        fit = g.fit(family, data, cfg)
        constraint = g.make_constraint(np.eye(data.n_linear)[cls.CONSTRAINED])
        curve = g.fit_curve(family, data, fit.beta if beta is None else beta, cfg.smoothing)
        return (fit, g.sandwich_covariance(fit),
                g.glrt(family, data, constraint, cfg, fit_alt=fit), curve)

    @pytest.mark.parametrize("family", ("poisson", "bernoulli"))
    @settings(max_examples=10, deadline=None)
    @given(degree=st.integers(0, 2), seed=st.integers(1, 10**6), j=st.integers(0, 9),
           c=st.floats(-3.0, 3.0))
    def test_fit_se_glrt_and_curve_follow_the_shift(self, family, degree, seed, j, c):
        data = g.generate(g.make_design(family, self.N), seed=g.replicate_seed(seed, 0))
        assert np.all(data.x[:, 0] == 1.0)
        delta, h = g.preset_smoothing(family, self.N)
        cfg = FitConfig(smoothing=SmoothingParams(h=h, delta=delta, degree=degree),
                        max_steps=30)
        fit, cov, test, curve = self._fit_se_test_and_curve(family, data, cfg)
        # an unconverged ascent amplifies the rounding it started from
        assume(fit.converged)
        n, eps, scale = self.N, np.finfo(float).eps, 1.0 + abs(c)
        state = fit.differentiated_state
        psi = fit.engine.score_vectors(state)
        beta_band = 2 * n * eps * scale \
            * np.abs(np.linalg.inv(fit.engine.hessian(state))) @ np.abs(psi).sum(axis=0)
        se_band = 2 * n * eps * scale * np.linalg.cond(cov.bread)
        t_band = 8 * n * eps * scale \
            * np.abs(g.get_family(family).q012(fit.fitted, data.y)[0]).sum()
        move = c * fit.beta[j]
        alpha_band = 2 * n * eps * (np.abs(curve.values[:, 0]).max() + abs(move))
        z = data.z.copy()
        z[:, j] += c
        shifted = Dataset(u=data.u, x=data.x, z=z, y=data.y)
        fit_s, cov_s, test_s, curve_s = self._fit_se_test_and_curve(family, shifted, cfg,
                                                                    beta=fit.beta)
        assert fit_s.converged
        assert np.all(np.abs(fit_s.beta - fit.beta) <= beta_band)
        assert np.all(np.abs(cov_s.se - cov.se) <= se_band * cov.se)
        assert abs(test_s.statistic - test.statistic) <= t_band
        assert np.array_equal(curve_s.grid, curve.grid)
        assert np.all(np.abs(curve_s.values[:, 0] - (curve.values[:, 0] - move)) <= alpha_band)
        assert np.all(np.abs(curve_s.values[:, 1:] - curve.values[:, 1:]) <= alpha_band)


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

    @pytest.mark.parametrize("rows", [np.eye(5)[3:], np.eye(11)[6:]], ids=["p5", "p11"])
    def test_glrt_rejects_a_constraint_for_another_p_before_any_fit(self, rows,
                                                                    fitter_sizes):
        # p = 10 data; numpy's matmul would fail only after the full fit
        design, data, cfg, _ = _design_fit("poisson", 109)
        del fitter_sizes[:]
        with pytest.raises(ParameterError, match="p = 10"):
            g.glrt("poisson", data, g.make_constraint(rows), cfg)
        assert fitter_sizes == []

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
        cold, _, _, _ = _newton_fit(engine.reparametrized(constraint.b), cfg,
                                    constraint.b @ res.beta)
        assert test.loglik_alt == res.profile_loglik
        assert test.loglik_null == pytest.approx(cold.loglik, rel=1e-10)
        np.testing.assert_allclose(test.beta_null, constraint.b.T @ cold.beta,
                                   rtol=1e-6, atol=1e-8)

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

    @pytest.mark.parametrize("algorithm, df", (("accelerated", 4), ("accelerated", 1),
                                               ("full", 4)))
    def test_null_fit_differentiates_in_k_directions(self, monkeypatch, algorithm, df):
        # the null fit is a profile fit in gamma on the alternative's
        # smoother: no smoother is built, every state it differentiates is
        # differentiated against z B', (n, k) with k = p - df, and the
        # trials of its last step, whose derivative nothing reads, are
        # solved without z
        design, data, cfg, _ = _design_fit("poisson", 139)
        cfg = FitConfig(smoothing=cfg.smoothing, algorithm=algorithm, max_steps=2)
        res = g.fit("poisson", data, cfg)
        p = design.p_dim
        constraint = g.make_constraint(np.eye(p)[p - df:])
        shapes = []
        solve = CurveFitter.solve

        def spied(self, offsets, warm=None, z=None):
            shapes.append(None if z is None else np.shape(z))
            return solve(self, offsets, warm, z)

        def unbuilt(self, *args, **kwargs):
            raise AssertionError("glrt built a smoother")

        monkeypatch.setattr(CurveFitter, "solve", spied)
        monkeypatch.setattr(CurveFitter, "__init__", unbuilt)
        monkeypatch.setattr(ProfileEngine, "__init__", unbuilt)
        test = g.glrt("poisson", data, constraint, cfg, fit_alt=res)
        last = shapes.index(None)
        assert last >= 2 and set(shapes[:last]) == {(data.n, p - df)}
        assert set(shapes[last:]) == {None}
        assert np.all(np.abs(test.beta_null[p - df:]) < 1e-10)

    def test_glrt_rejects_fit_with_other_smoothing(self):
        design, data, cfg, fit_alt = _design_fit("poisson", 109)
        other = FitConfig(smoothing=SmoothingParams(h=0.2, delta=0.1))
        with pytest.raises(ParameterError, match="smoothing"):
            g.glrt("poisson", data, g.make_constraint(np.eye(design.p_dim)[6:]),
                   other, fit_alt=fit_alt)
