import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gvcplm as g
from gvcplm import ParameterError, simulate


class TestParametricDimension:
    @pytest.mark.parametrize("n,expected", [(200, 10), (400, 13), (800, 16), (1500, 20)])
    def test_growth_rule(self, n, expected):
        assert g.parametric_dimension(n) == expected


class TestDesigns:
    def test_poisson_beta_padding(self):
        design = g.make_design("poisson", 200)
        assert design.p_dim == 10
        np.testing.assert_allclose(design.beta0[:6],
                                   [0.5, 0.3, -0.5, 1.0, 0.1, -0.25])
        np.testing.assert_allclose(design.beta0[6:], 0.0)

    def test_bernoulli_beta_padding(self):
        design = g.make_design("bernoulli", 400)
        assert design.p_dim == 13
        np.testing.assert_allclose(design.beta0[:6], [3, 1, -2, 0.5, 2, -2])

    def test_alpha_functions(self):
        design = g.make_design("poisson", 200)
        a1, a2 = design.alpha_funcs
        assert a1(0.25) == pytest.approx(5.0)
        assert a2(0.5) == pytest.approx(0.5)
        b1, b2 = g.make_design("bernoulli", 200).alpha_funcs
        assert b1(1.0) == pytest.approx(2.0)
        assert b2(0.5) == pytest.approx(-2.0)

    def test_with_beta_replaces_coordinates(self):
        design = g.make_design("poisson", 200)
        alt = g.with_beta(design, b7=0.2, b8=0.2)
        assert alt.beta0[6] == alt.beta0[7] == 0.2
        assert design.beta0[6] == 0.0

    def test_with_beta_rejects_missing_coordinate(self):
        # b8 needs p >= 8; n = 60 gives p = 7
        with pytest.raises(ParameterError, match="b8"):
            g.with_beta(g.make_design("poisson", 60), b7=0.1, b8=0.1)

    @pytest.mark.parametrize("key,value", [
        ("x7", 0.1),            # not b<k>
        ("bb7", 0.1),           # one leading b only
        ("b0", 0.1),            # k counts from 1
        ("b7", "a"),
        ("b7", True),
        ("b7", float("nan")),
    ])
    def test_with_beta_rejects_a_key_or_value_it_cannot_read(self, key, value):
        design = g.make_design("poisson", 200)
        with pytest.raises(ParameterError, match=key):
            g.with_beta(design, **{key: value})

    def test_unknown_family(self):
        with pytest.raises(ParameterError):
            g.make_design("gamma", 200)

    def test_generate_rejects_a_family_with_no_design(self):
        design = g.make_design("poisson", 200)
        gaussian = g.SimDesign("gaussian", 200, design.p_dim, design.beta0,
                               design.alpha_funcs)
        with pytest.raises(ParameterError, match="gaussian"):
            g.generate(gaussian, seed=1)


def _reference_generate(design, seed):
    """The generator written out per family: scipy.special.expit for the
    bernoulli means, exp clipped at 30 for the poisson means."""
    from scipy import special

    rng = np.random.default_rng(seed)
    n, p = design.n, design.p_dim
    u = rng.uniform(0.0, 1.0, size=n)
    chol = np.linalg.cholesky(g.ar1_moment(p + 1, simulate.COV_RHO))
    zx = rng.standard_normal((n, p + 1)) @ chol.T
    z, x2 = zx[:, :p], zx[:, p]
    alpha1, alpha2 = design.alpha_funcs
    lp = alpha1(u) + alpha2(u) * x2 + z @ design.beta0
    if design.family_name == "bernoulli":
        y = rng.binomial(1, special.expit(lp)).astype(float)
    else:
        y = rng.poisson(np.exp(np.clip(lp, None, 30.0))).astype(float)
    return u, np.column_stack([np.ones(n), x2]), z, y


class TestGenerate:
    def test_reproducible(self):
        design = g.make_design("poisson", 200)
        a = g.generate(design, seed=g.replicate_seed(3, 0))
        b = g.generate(design, seed=g.replicate_seed(3, 0))
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(a.z, b.z)
        c = g.generate(design, seed=g.replicate_seed(3, 1))
        assert not np.array_equal(a.y, c.y)

    def test_shapes_and_domains(self):
        design = g.make_design("bernoulli", 400)
        data = g.generate(design, seed=1)
        assert data.x.shape == (400, 2)
        assert data.z.shape == (400, 13)
        np.testing.assert_allclose(data.x[:, 0], 1.0)
        assert set(np.unique(data.y)) <= {0.0, 1.0}
        assert data.u.min() >= 0.0 and data.u.max() <= 1.0

    def test_covariate_covariance_matches_target(self):
        design = g.make_design("poisson", 200)
        big = g.SimDesign("poisson", 10000, design.p_dim, design.beta0,
                          design.alpha_funcs, seed=0)
        data = g.generate(big, seed=12345)
        joint = np.column_stack([data.z, data.x[:, 1]])
        emp = np.cov(joint, rowvar=False)
        target = g.ar1_moment(design.p_dim + 1)
        assert np.max(np.abs(emp - target)) < 0.05

    def test_poisson_responses_nonnegative_integers(self):
        data = g.generate(g.make_design("poisson", 200), seed=7)
        assert np.all(data.y >= 0)
        np.testing.assert_array_equal(data.y, np.round(data.y))

    # the draws are the ones of the generator written out per family
    @pytest.mark.parametrize("family,n", [(family, n) for family in ("bernoulli", "poisson")
                                          for n in (60, 200, 1500)])
    def test_draws_match_a_reference_generator(self, family, n):
        design = g.make_design(family, n)
        for rep in range(20):
            seed = g.replicate_seed(20260, rep)
            data = g.generate(design, seed)
            u, x, z, y = _reference_generate(design, seed)
            assert np.array_equal(data.u, u)
            assert np.array_equal(data.x, x)
            assert np.array_equal(data.z, z)
            assert np.array_equal(data.y, y)


class TestBernoulliMeans:
    """_expit is scipy.special.expit bit for bit, so bernoulli datasets are
    the ones an expit-based generator draws."""

    @settings(max_examples=500, deadline=None)
    @given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
    def test_expit_is_scipy_expit(self, v):
        from scipy import special

        values = np.array([v, -v])
        assert np.array_equal(simulate._expit(values), special.expit(values),
                              equal_nan=True)

    def test_expit_at_the_edges(self):
        from scipy import special

        edges = np.array([0.0, 709.78, 745.2, 1e308, np.inf])
        values = np.concatenate([edges, -edges])
        got = simulate._expit(values)
        assert np.array_equal(got, special.expit(values))
        assert got[-1] == got[-2] == 0.0 and got[0] == got[5] == 0.5


class TestPresets:
    def test_recorded_values(self):
        assert g.preset_smoothing("poisson", 200) == (0.1, 0.1)
        assert g.preset_smoothing("poisson", 400) == (0.1, 0.08)
        assert g.preset_smoothing("bernoulli", 1500) == (0.005, 0.18)

    def test_interpolated_fallback_scales_with_n(self):
        delta, h = g.preset_smoothing("poisson", 600)
        assert delta == 0.1
        assert 0.06 < h < 0.09

    @pytest.mark.parametrize("family,n", [
        ("gaussian", 200),   # no simulation design
        ("poisson", 0),
        ("poisson", 200.0),
        ("poisson", True),
    ])
    def test_rejects_what_has_no_design(self, family, n):
        with pytest.raises(ParameterError):
            g.preset_smoothing(family, n)


class TestSeeds:
    @pytest.mark.parametrize("seed", (-1, 1.5, "3", True, None))
    def test_replicate_seed_rejects_a_seed_that_is_not_a_count(self, seed):
        with pytest.raises(ParameterError, match="seed"):
            g.replicate_seed(seed, 0)

    @pytest.mark.parametrize("seed", (-1, 1.5, "a", True))
    def test_generate_and_make_design_reject_a_seed_that_is_not_a_count(self, seed):
        design = g.make_design("poisson", 200)
        with pytest.raises(ParameterError, match="seed must be an integer >= 0"):
            g.generate(design, seed=seed)
        with pytest.raises(ParameterError, match="seed must be an integer >= 0"):
            g.make_design("poisson", 200, seed=seed)

    def test_replicate_seed_takes_numpy_integers(self):
        assert (g.replicate_seed(np.int64(7), 2).generate_state(4).tolist()
                == g.replicate_seed(7, 2).generate_state(4).tolist())
