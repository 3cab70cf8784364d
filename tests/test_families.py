import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gvcplm as g
from gvcplm import DomainError, ParameterError
from gvcplm.families import LINEAR_PREDICTOR_MAX

from oracles import fd_derivative, fd_third_derivative

FAMILIES = ("gaussian", "poisson", "bernoulli")
_Y_SAMPLES = {
    "gaussian": (-2.0, 0.0, 0.7, 3.5),
    "poisson": (0.0, 1.0, 3.0, 12.0),
    "bernoulli": (0.0, 1.0),
}


class TestClosedForms:
    def test_gaussian_at_mean(self):
        assert g.eval_quasi_loglik("gaussian", 2.0, 2.0) == 0.0

    def test_poisson_at_zero(self):
        assert g.eval_quasi_loglik("poisson", 0.0, 1.0) == pytest.approx(-1.0)

    def test_bernoulli_at_zero(self):
        assert g.eval_quasi_loglik("bernoulli", 0.0, 1.0) == pytest.approx(-np.log(2.0))

    def test_bernoulli_q2_at_zero(self):
        assert g.eval_q("bernoulli", 2, 0.0, 1.0) == pytest.approx(-0.25)
        assert g.eval_q("bernoulli", 2, 0.0, 0.0) == pytest.approx(-0.25)

    def test_poisson_q1_at_zero(self):
        assert g.eval_q("poisson", 1, 0.0, 1.0) == pytest.approx(0.0)

    def test_poisson_q3_matches_finite_difference_of_quasi_loglik(self):
        # third-order central difference of Q(x, 5) at x = 1
        fd = fd_third_derivative(lambda x: g.eval_quasi_loglik("poisson", x, 5.0), 1.0)
        assert g.eval_q("poisson", 3, 1.0, 5.0) == pytest.approx(-np.e, abs=1e-9)
        assert fd == pytest.approx(-np.e, abs=1e-5)


class TestDerivativeLadder:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("order", (1, 2, 3))
    def test_next_derivative_matches_finite_difference(self, family, order):
        for x in (-3.0, -1.0, 0.0, 1.0, 3.0):
            for y in _Y_SAMPLES[family]:
                fd = fd_derivative(lambda t: g.eval_q(family, order, t, y), x)
                exact = g.eval_q(family, order + 1, x, y)
                assert abs(exact - fd) / (1.0 + abs(exact)) < 1e-6

    @pytest.mark.parametrize("family", FAMILIES)
    def test_q1_matches_finite_difference_of_quasi_loglik(self, family):
        for x in (-3.0, 0.0, 2.0):
            for y in _Y_SAMPLES[family]:
                fd = fd_derivative(lambda t: g.eval_quasi_loglik(family, t, y), x)
                assert g.eval_q(family, 1, x, y) == pytest.approx(fd, abs=1e-7)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_q2_strictly_negative(self, family):
        xs = np.linspace(-LINEAR_PREDICTOR_MAX, LINEAR_PREDICTOR_MAX, 201)
        for y in _Y_SAMPLES[family]:
            assert np.all(g.eval_q(family, 2, xs, y) < 0.0)


class TestQuasiLikelihoodShape:
    def test_maximized_at_observed_response(self):
        # Q(mu, y) peaks at mu = y; scan over interior linear predictors
        for family, y in (("gaussian", 1.3), ("poisson", 4.0)):
            x_at_y = np.log(y) if family == "poisson" else y  # canonical link
            xs = np.linspace(x_at_y - 3.0, x_at_y + 3.0, 101)
            vals = g.eval_quasi_loglik(family, xs, y)
            assert np.argmax(vals) == np.argmin(np.abs(xs - x_at_y))

    def test_bernoulli_increases_toward_observed_class(self):
        xs = np.linspace(-5.0, 5.0, 51)
        assert np.all(np.diff(g.eval_quasi_loglik("bernoulli", xs, 1.0)) > 0)
        assert np.all(np.diff(g.eval_quasi_loglik("bernoulli", xs, 0.0)) < 0)

    def test_clipping_keeps_values_finite(self):
        assert np.isfinite(g.eval_quasi_loglik("poisson", 1e4, 2.0))
        assert np.isfinite(g.eval_q("bernoulli", 1, -1e4, 1.0))


class TestTransforms:
    def test_bernoulli_transform(self):
        assert g.transform_response("bernoulli", 1.0, 0.1) == pytest.approx(
            np.log(1.1 / 0.1)
        )

    def test_poisson_transform(self):
        assert g.transform_response("poisson", 0.0, 0.1) == pytest.approx(np.log(0.1))

    def test_gaussian_transform_is_identity(self):
        assert g.transform_response("gaussian", 3.7) == pytest.approx(3.7)
        assert g.transform_response("gaussian", 3.7, 0.5) == pytest.approx(3.7)

    @pytest.mark.parametrize("family", ("poisson", "bernoulli"))
    @pytest.mark.parametrize("delta", (0.0, -0.5, None))
    def test_nonpositive_delta_rejected(self, family, delta):
        y = 1.0
        with pytest.raises(ParameterError):
            g.transform_response(family, y, delta)


class TestDomainValidation:
    def test_poisson_rejects_negative_response(self):
        with pytest.raises(DomainError, match=r"y\[2\]"):
            g.eval_quasi_loglik("poisson", 0.0, np.array([1.0, 0.0, -3.0]))

    def test_bernoulli_rejects_non_binary(self):
        with pytest.raises(DomainError, match=r"y\[1\]"):
            g.eval_q("bernoulli", 1, 0.0, np.array([0.0, 0.5, 1.0]))

    def test_unknown_family(self):
        with pytest.raises(ParameterError):
            g.get_family("weibull")

    def test_bad_order(self):
        with pytest.raises(ParameterError):
            g.eval_q("gaussian", 5, 0.0, 0.0)


class TestBartlettMeanScore:
    """At the true parameters, the mean profile score vanishes at the
    root-n rate.  Families with O(1) score scale are used so the bound
    5 sqrt(p/n) is meaningful."""

    def _mean_score_norm(self, family, data, beta0, smoothing):
        engine = g.ProfileEngine(family, data, smoothing)
        grad = engine.gradient(engine.state(beta0))
        return np.linalg.norm(grad) / data.n

    def test_gaussian_design(self):
        from conftest import make_gaussian_dataset

        n, p = 200, 6
        bound = 5.0 * np.sqrt(p / n)
        sm = g.SmoothingParams(h=0.2)
        for rep in range(20):
            data, beta0, _ = make_gaussian_dataset(n=n, p=p, seed=100 + rep)
            assert self._mean_score_norm("gaussian", data, beta0, sm) < bound

    def test_bernoulli_design(self):
        design = g.bernoulli_design(200)
        bound = 5.0 * np.sqrt(design.p_dim / design.n)
        sm = g.SmoothingParams(h=0.45, delta=0.005)
        for rep in range(20):
            data = g.generate(design, seed=g.replicate_seed(31, rep))
            norm = self._mean_score_norm("bernoulli", data, design.beta0, sm)
            assert norm < bound


class TestBernoulliTails:
    """Far in the tails, |x| from 30 to 700, Q keeps its slope and q_1
    stays its derivative."""

    TAILS = (np.linspace(30.0, 700.0, 2001), np.linspace(-700.0, -30.0, 2001))

    @pytest.mark.parametrize("y", (0.0, 1.0))
    def test_quasi_loglik_strictly_monotone(self, y):
        for xs in self.TAILS:
            steps = np.diff(g.eval_quasi_loglik("bernoulli", xs, y))
            assert np.all(steps > 0) if y == 1.0 else np.all(steps < 0)

    @pytest.mark.parametrize("y", (0.0, 1.0))
    def test_q1_matches_finite_difference(self, y):
        for xs in self.TAILS:
            fd = fd_derivative(lambda t: g.eval_quasi_loglik("bernoulli", t, y), xs)
            q1 = g.eval_q("bernoulli", 1, xs, y)
            np.testing.assert_allclose(q1, fd, rtol=1e-6, atol=1e-7)

    def test_every_finite_predictor_stays_finite(self):
        big = np.finfo(float).max
        xs = np.array([-big, -1e308, -1e4, 1e4, 1e308, big])
        for y in (0.0, 1.0):
            for order in (1, 2, 3, 4):
                assert np.all(np.isfinite(g.eval_q("bernoulli", order, xs, y)))
            assert np.all(np.isfinite(g.eval_quasi_loglik("bernoulli", xs, y)))


_PROPERTY_RANGES = {
    "gaussian": (30.0, st.floats(-10.0, 10.0)),
    "poisson": (30.0 - 1e-3, st.floats(0.0, 50.0)),   # stays inside the clip
    "bernoulli": (700.0, st.floats(0.0, 1.0)),
}


@st.composite
def _family_points(draw):
    family = draw(st.sampled_from(FAMILIES))
    reach, responses = _PROPERTY_RANGES[family]
    return family, draw(st.floats(-reach, reach)), draw(responses)


@settings(max_examples=300, deadline=None)
@given(_family_points())
def test_fused_triple_and_derivative_ladder(point):
    family, x, y = point
    fam = g.get_family(family)
    q, q1, q2 = fam.q012(x, y)
    assert q == fam.quasi_loglik(x, y)
    assert q1 == fam.q(1, x, y)
    assert q2 == fam.q(2, x, y)

    def below(order, t):
        return fam.quasi_loglik(t, y) if order == 1 else fam.q(order - 1, t, y)

    for order in (1, 2, 3, 4):
        fd = fd_derivative(lambda t: below(order, t), x)
        exact = fam.q(order, x, y)
        assert abs(exact - fd) <= 1e-6 * (1.0 + abs(exact)), (order, exact, fd)
