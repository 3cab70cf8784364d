"""The families' one weighted pass, and the arrays a local solve must not write.

``FamilySpec.evaluate(x, y, w, objective)`` overwrites the predictor x and
returns (Q, w q_1, w b''), b'' = -q_2.  Weighting inside the pass must round
as weighting after ``q012`` does, and the pass must leave y and w as they
were, with no output sharing their memory: the local solve hands it the
fitter's stored kernel weights.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gvcplm as g
from gvcplm import CurveFitter, SmoothingParams

from test_bands import _problem_arrays, _same_bits

FAMILIES = ("gaussian", "poisson", "bernoulli")
_RESPONSES = {
    "gaussian": st.floats(-10.0, 10.0),
    "poisson": st.sampled_from((0.0, 1.0, 3.0, 12.0)),
    "bernoulli": st.sampled_from((0.0, 1.0)),
}
# signed zeros, both sides of the poisson clip at 30, and where the bernoulli
# e = exp(-|x|) is far below 1
_EDGES = (0.0, -0.0, 29.5, -29.5, 30.0, -30.0, 30.5, -30.5, 45.0, -45.0, 700.0, -700.0)


@st.composite
def _passes(draw):
    family = draw(st.sampled_from(FAMILIES))
    k = draw(st.integers(1, 30))
    x = draw(st.lists(st.one_of(st.sampled_from(_EDGES), st.floats(-800.0, 800.0)),
                      min_size=k, max_size=k))
    y = draw(st.lists(_RESPONSES[family], min_size=k, max_size=k))
    w = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 10.0)), min_size=k, max_size=k))
    rows = draw(st.sampled_from((1, k))) if k > 1 else 1
    return family, *(np.array(a).reshape(rows, -1) for a in (x, y, w))


@settings(max_examples=300, deadline=None)
@given(_passes(), st.booleans())
def test_weighted_pass_is_q012_weighted_afterwards_bit_for_bit(drawn, objective):
    family, x, y, w = drawn
    fam = g.get_family(family)
    q, q1, q2 = fam.q012(x, y, objective=objective)
    y_before, w_before = y.copy(), w.copy()
    got_q, wq1, wb = fam.evaluate(x.copy(), y, w, objective)
    assert np.array_equal(y, y_before) and np.array_equal(w, w_before)
    for out in (got_q, wq1, wb):
        assert out is None or not (np.shares_memory(out, y) or np.shares_memory(out, w))
    assert (got_q is None) == (q is None) == (not objective)
    if objective:
        assert _same_bits(got_q, q)
    assert _same_bits(wq1, w * q1)
    assert _same_bits(wb, -(w * q2))
    assert np.all(wb >= 0.0)


@pytest.mark.parametrize("family", FAMILIES)
def test_a_solve_leaves_the_stored_weights_and_responses(family):
    u = np.linspace(0.0, 1.0, 90)
    fit_family, x, z, y, offsets = _problem_arrays(family, u, 5)
    fitter = CurveFitter(fit_family, x, y, u, SmoothingParams(h=0.25, delta=0.1), u)
    stored = ([group.weights.copy() for group in fitter.groups],
              fitter._y.copy(), fitter.y.copy())
    warm = fitter.initial_coefficients(offsets)
    warm[:, 0] += 3.0   # a start that overshoots, so that some steps take the Q path
    fitter.solve(offsets, z=z)
    fitter.solve(offsets, warm=warm, z=z)
    assert all(np.array_equal(group.weights, w)
               for group, w in zip(fitter.groups, stored[0]))
    assert np.array_equal(fitter._y, stored[1]) and np.array_equal(fitter.y, stored[2])
