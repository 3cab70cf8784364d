import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gvcplm as g
from gvcplm import DomainError, ParameterError
from gvcplm.families import LINEAR_PREDICTOR_MAX

from oracles import fd_derivative

FAMILIES = ("gaussian", "poisson", "bernoulli")
_Y_SAMPLES = {
    "gaussian": (-2.0, 0.0, 0.7, 3.5),
    "poisson": (0.0, 1.0, 3.0, 12.0),
    "bernoulli": (0.0, 1.0),
}


def quasi_loglik(family, x, y):
    """Q(g^{-1}(x), y), the first of the family's (Q, q_1, q_2)."""
    return g.get_family(family).q012(x, y)[0]


def q(family, order, x, y):
    return g.get_family(family).q(order, x, y)


class TestClosedForms:
    def test_gaussian_at_mean(self):
        assert quasi_loglik("gaussian", 2.0, 2.0) == 0.0

    def test_poisson_at_zero(self):
        assert quasi_loglik("poisson", 0.0, 1.0) == pytest.approx(-1.0)

    def test_bernoulli_at_zero(self):
        assert quasi_loglik("bernoulli", 0.0, 1.0) == pytest.approx(-np.log(2.0))

    def test_bernoulli_q2_at_zero(self):
        assert q("bernoulli", 2, 0.0, 1.0) == pytest.approx(-0.25)
        assert q("bernoulli", 2, 0.0, 0.0) == pytest.approx(-0.25)

    def test_poisson_q1_at_zero(self):
        assert q("poisson", 1, 0.0, 1.0) == pytest.approx(0.0)


class TestDerivativeLadder:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("order", (1,))
    def test_next_derivative_matches_finite_difference(self, family, order):
        for x in (-3.0, -1.0, 0.0, 1.0, 3.0):
            for y in _Y_SAMPLES[family]:
                fd = fd_derivative(lambda t: q(family, order, t, y), x)
                exact = q(family, order + 1, x, y)
                assert abs(exact - fd) / (1.0 + abs(exact)) < 1e-6

    @pytest.mark.parametrize("family", FAMILIES)
    def test_q1_matches_finite_difference_of_quasi_loglik(self, family):
        # past +/-30 the poisson Q goes on linearly, with slopes up to e^30,
        # so there the match is relative
        beyond = (31.0, -31.0, 40.0, -40.0) if family == "poisson" else ()
        for x in (-3.0, 0.0, 2.0) + beyond:
            for y in _Y_SAMPLES[family]:
                fd = fd_derivative(lambda t: quasi_loglik(family, t, y), x)
                tol = {"abs": 1e-7} if abs(x) <= LINEAR_PREDICTOR_MAX else {"rel": 1e-6}
                assert q(family, 1, x, y) == pytest.approx(fd, **tol)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_q2_strictly_negative(self, family):
        xs = np.linspace(-LINEAR_PREDICTOR_MAX, LINEAR_PREDICTOR_MAX, 201)
        for y in _Y_SAMPLES[family]:
            assert np.all(q(family, 2, xs, y) < 0.0)


class TestQuasiLikelihoodShape:
    def test_maximized_at_observed_response(self):
        # Q(mu, y) peaks at mu = y; scan over interior linear predictors
        for family, y in (("gaussian", 1.3), ("poisson", 4.0)):
            x_at_y = np.log(y) if family == "poisson" else y  # canonical link
            xs = np.linspace(x_at_y - 3.0, x_at_y + 3.0, 101)
            vals = quasi_loglik(family, xs, y)
            assert np.argmax(vals) == np.argmin(np.abs(xs - x_at_y))

    def test_bernoulli_increases_toward_observed_class(self):
        xs = np.linspace(-5.0, 5.0, 51)
        assert np.all(np.diff(quasi_loglik("bernoulli", xs, 1.0)) > 0)
        assert np.all(np.diff(quasi_loglik("bernoulli", xs, 0.0)) < 0)

    def test_clipping_keeps_values_finite(self):
        assert np.isfinite(quasi_loglik("poisson", 1e4, 2.0))
        assert np.isfinite(q("bernoulli", 1, -1e4, 1.0))


class TestTransforms:
    def test_bernoulli_transform(self):
        assert g.get_family("bernoulli").transform(1.0, 0.1) == pytest.approx(
            np.log(1.1 / 0.1)
        )

    def test_poisson_transform(self):
        assert g.get_family("poisson").transform(0.0, 0.1) == pytest.approx(np.log(0.1))

    def test_gaussian_transform_is_identity(self):
        assert g.get_family("gaussian").transform(3.7, None) == pytest.approx(3.7)
        assert g.get_family("gaussian").transform(3.7, 0.5) == pytest.approx(3.7)

    @pytest.mark.parametrize("family", ("poisson", "bernoulli"))
    @pytest.mark.parametrize("delta", (0.0, -0.5, None))
    def test_nonpositive_delta_rejected(self, family, delta):
        y = 1.0
        with pytest.raises(ParameterError):
            g.get_family(family).transform(y, delta)


class TestDomainValidation:
    def test_poisson_rejects_negative_response(self):
        with pytest.raises(DomainError, match=r"y\[2\]"):
            g.get_family("poisson").validate_response(np.array([1.0, 0.0, -3.0]))

    def test_poisson_rejects_a_count_past_the_capped_mean(self):
        # past +30 the slope of Q is y - e^30, so Q has a maximum only for
        # y <= e^30, the largest mean the capped exponent reaches
        cap = np.exp(LINEAR_PREDICTOR_MAX)
        fam = g.get_family("poisson")
        fam.validate_response(np.array([0.0, cap]))
        with pytest.raises(DomainError, match=r"y\[1\]"):
            fam.validate_response(np.array([1.0, np.nextafter(cap, np.inf), 2.0]))

    def test_bernoulli_rejects_non_binary(self):
        with pytest.raises(DomainError, match=r"y\[1\]"):
            g.get_family("bernoulli").validate_response(np.array([0.0, 0.5, 1.0]))

    def test_unknown_family(self):
        with pytest.raises(ParameterError):
            g.get_family("weibull")

    def test_bad_order(self):
        for order in (0, 3, 5):
            with pytest.raises(ParameterError):
                q("gaussian", order, 0.0, 0.0)


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
        design = g.make_design("bernoulli", 200)
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
            steps = np.diff(quasi_loglik("bernoulli", xs, y))
            assert np.all(steps > 0) if y == 1.0 else np.all(steps < 0)

    @pytest.mark.parametrize("y", (0.0, 1.0))
    def test_q1_matches_finite_difference(self, y):
        for xs in self.TAILS:
            fd = fd_derivative(lambda t: quasi_loglik("bernoulli", t, y), xs)
            q1 = q("bernoulli", 1, xs, y)
            np.testing.assert_allclose(q1, fd, rtol=1e-6, atol=1e-7)

    def test_every_finite_predictor_stays_finite(self):
        big = np.finfo(float).max
        xs = np.array([-big, -1e308, -1e4, 1e4, 1e308, big])
        for y in (0.0, 1.0):
            for order in (1, 2):
                assert np.all(np.isfinite(q("bernoulli", order, xs, y)))
            assert np.all(np.isfinite(quasi_loglik("bernoulli", xs, y)))


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
    _, q1, q2 = fam.q012(x, y)
    assert q1 == fam.q(1, x, y)
    assert q2 == fam.q(2, x, y)

    def below(order, t):
        return fam.q012(t, y)[0] if order == 1 else fam.q(order - 1, t, y)

    for order in (1, 2):
        fd = fd_derivative(lambda t: below(order, t), x)
        exact = fam.q(order, x, y)
        assert abs(exact - fd) <= 1e-6 * (1.0 + abs(exact)), (order, exact, fd)


# both sides of the cap at +/-30, far past it, and where e^x under- or
# overflows
_POISSON_EDGES = (0.0, -0.0, 29.5, -29.5, 30.0, -30.0, 30.5, -30.5, 45.0, -45.0,
                  700.0, -700.0, 1e4, -1e4)
_POISSON_PREDICTORS = st.one_of(st.sampled_from(_POISSON_EDGES), st.floats(-800.0, 800.0))


@settings(max_examples=300, deadline=None)
@given(a=_POISSON_PREDICTORS, b=_POISSON_PREDICTORS, y=st.floats(0.0, 50.0))
def test_poisson_q_goes_on_linearly_past_the_cap(a, b, y):
    # Q is y*x - e^x within +/-30 and its tangent at the cap beyond, so q_1
    # is its derivative and it is concave for every finite x
    fam = g.get_family("poisson")
    eps = np.finfo(float).eps

    def scale(x):   # bounds the terms Q sums, and q_1 x, at x
        return (y + np.exp(np.clip(x, -LINEAR_PREDICTOR_MAX, LINEAR_PREDICTOR_MAX))) \
            * (31.0 + abs(x))

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for x in (a, b):
            qx, q1, _ = fam.q012(x, y)
            if abs(x) <= LINEAR_PREDICTOR_MAX:
                assert _same_bits(qx, y * x - np.exp(x))
            elif abs(x) > 30.5:   # both x +/- h past the cap, where Q is linear
                h = 0.25
                up, down = fam.q012(x + h, y)[0], fam.q012(x - h, y)[0]
                band = 4.0 * eps * (abs(up) + abs(down)) / (2.0 * h)
                assert abs((up - down) / (2.0 * h) - q1) <= 1e-6 * abs(q1) + band, (x, y)
        m = 0.5 * a + 0.5 * b
        qa, qb, qm = (fam.q012(x, y)[0] for x in (a, b, m))
        band = 8.0 * eps * (scale(a) + scale(b) + scale(m))
        assert qm >= 0.5 * (qa + qb) - band, (a, b, y)


def _bern_q012_with_a_select(x, y):
    """The bernoulli (Q, q_1, q_2) with p = expit(x) picked by np.where."""
    x, y = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))
    e = np.exp(-np.abs(x))
    r = 1.0 / (1.0 + e)
    s = e * r
    p = np.where(x >= 0.0, r, s)
    s *= r
    return y * x - np.maximum(x, 0.0) - np.log1p(e), y - p, -s


# signed zeros, where e = exp(-|x|) is subnormal or 0, NaN, and a grid
_EDGES = (0.0, -0.0, 745.0, -745.0, 800.0, -800.0, np.nan, *np.linspace(-40.0, 40.0, 161))


@settings(max_examples=200, deadline=None)
@given(xs=st.lists(st.one_of(st.sampled_from(_EDGES), st.floats(-40.0, 40.0), st.floats()),
                  min_size=1, max_size=40),
       y=st.sampled_from((0.0, 1.0, None)), scalar=st.booleans())
def test_bernoulli_pass_is_the_select_form_bit_for_bit(xs, y, scalar):
    # p = max([x >= 0], e) r picks r or e r as the select did, with the same
    # rounding; a NaN predictor gives NaN in both
    x = np.float64(xs[0]) if scalar else np.array(xs + list(_EDGES))
    if y is None:   # responses 0, 1, 0, ...
        y = (np.arange(np.size(x)) % 2.0).reshape(np.shape(x))
    with np.errstate(invalid="ignore"):   # Q at an infinite x is NaN
        got, want = g.get_family("bernoulli").q012(x, y), _bern_q012_with_a_select(x, y)
    for a, b in zip(map(np.asarray, got), map(np.asarray, want)):
        assert a.shape == b.shape
        nan = np.isnan(b)
        assert np.array_equal(np.isnan(a), nan)
        assert np.array_equal(a[~nan].view(np.int64), b[~nan].view(np.int64))


# signed zeros, both sides of the poisson clip, where e = exp(-|x|) is
# subnormal or 0, and NaN
_DERIVATIVE_EDGES = (0.0, -0.0, 30.5, -30.5, 745.0, -745.0, 800.0, -800.0, np.nan)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    nan = np.isnan(b)
    return (a.shape == b.shape and np.array_equal(np.isnan(a), nan)
            and np.array_equal(a[~nan].view(np.int64), b[~nan].view(np.int64)))


@settings(max_examples=300, deadline=None)
@given(family=st.sampled_from(FAMILIES),
       xs=st.lists(st.one_of(st.sampled_from(_DERIVATIVE_EDGES), st.floats(-50.0, 50.0)),
                   min_size=1, max_size=30),
       shape=st.sampled_from(("scalar", "0-d", "row", "grid", "broadcast")))
def test_derivatives_without_the_objective_are_the_full_calls_bit_for_bit(family, xs, shape):
    # objective=False drops Q and nothing else: q_1 and q_2 keep every bit,
    # NaN stays NaN, and operands that need broadcasting still broadcast
    fam = g.get_family(family)
    x = np.array(xs + list(_DERIVATIVE_EDGES))
    y = np.array(_Y_SAMPLES[family])[np.arange(x.size) % len(_Y_SAMPLES[family])]
    if shape == "scalar":
        x, y = float(x[0]), float(y[0])
    elif shape == "0-d":
        x, y = np.array(x[0]), np.array(y[0])
    elif shape == "grid":
        x, y = x.reshape(1, -1).repeat(2, axis=0), y.reshape(1, -1).repeat(2, axis=0)
    elif shape == "broadcast":   # (k, 1) against (k,)
        x, y = x[:, None], y
    full = fam.q012(x, y)
    q, q1, q2 = fam.q012(x, y, objective=False)
    assert q is None
    assert full[0].shape == np.broadcast_shapes(np.shape(x), np.shape(y))
    assert _same_bits(q1, full[1]) and _same_bits(q2, full[2])
    assert _same_bits(fam.q(1, x, y), full[1]) and _same_bits(fam.q(2, x, y), full[2])
