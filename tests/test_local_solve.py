"""The local Newton solve's family passes and the derivative it returns.

Each trial predictor gets one family pass, (Q, q_1, q_2) together, and an
accepted trial's q_1 and q_2 serve the next iterate; each group's final q_2
is differentiated inside the solve, so the derivative evaluates no family at
all.
"""

import dataclasses
import logging

import numpy as np
import pytest

import gvcplm as g
from gvcplm import CurveFitter, SingularityError, SmoothingParams, smoothing
from gvcplm.smoothing import MAX_HALVINGS, MAX_LOCAL_ITERS

from test_bands import _dense_systems, _problem_arrays


def _count_calls(fitter):
    """Wrap the fitter's family functions and its _objectives with counters."""
    calls = {"family": 0, "objectives": 0}

    def counted(func, key):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return func(*args, **kwargs)
        return wrapper

    fam = fitter.family
    fitter.family = dataclasses.replace(
        fam, q012=counted(fam.q012, "family"), q34=counted(fam.q34, "family"))
    fitter._objectives = counted(fitter._objectives, "objectives")
    return calls


def _simulated_problem(family, n=300, seed=3):
    design = g.make_design(family, n)
    data = g.generate(design, seed=g.replicate_seed(seed, 1))
    delta, h = (0.1, 0.1) if family == "poisson" else (0.005, 0.4)
    sm = SmoothingParams(h=h, delta=delta)
    return data, CurveFitter(family, data.x, data.y, data.u, sm, data.u)


def _starts(fitter, offsets):
    """Cold and warm (a_0 pushed 8 below the cold start, so steps are
    halved) solve arguments."""
    warm = fitter.initial_coefficients(offsets)
    warm[:, 0] -= 8.0
    return {"cold": {}, "warm": {"warm": warm}}


@pytest.mark.parametrize("family", ("poisson", "bernoulli"))
@pytest.mark.parametrize("start", ("cold", "warm"))
def test_one_family_pass_per_objective(family, start):
    data, fitter = _simulated_problem(family)
    offsets = data.z @ np.full(data.n_linear, 0.1)
    kwargs = _starts(fitter, offsets)[start]
    calls = _count_calls(fitter)
    sol = fitter.solve(offsets, **kwargs)
    # one objective call to start and one per iteration; the rest are halvings
    assert calls["objectives"] > sol.iterations.max() + (start == "warm")
    assert calls["family"] == calls["objectives"]

    # the derivative adds no family pass
    passes = dict(calls)
    calls.update(family=0, objectives=0)
    fitter.solve(offsets, z=data.z, **kwargs)
    assert calls == passes


def _assert_derivative_at_returned_coefficients(fitter, u, z, offsets, sol):
    """The derivative is the one of q_2 at the returned coefficients, to
    rounding: it solves the dense systems S1 d = -S2 that every point's own
    design builds from them.  The check bounds the residual by |S1| |d| +
    |S2|, so it holds also where S1 is ill-conditioned, as at abandoned and
    saturated points.  (Where q_2 underflows to 0 over a whole window, S1 is
    0 and the solve raises instead.)"""
    s1, s2 = _dense_systems(fitter.family, u, fitter.x, fitter.y, z, offsets,
                            fitter.points, fitter.smoothing, sol.coefficients)
    derivative = np.swapaxes(sol.derivative, 1, 2)
    residual = s1 @ derivative + s2
    assert np.all(np.abs(residual)
                  <= 1e-10 * (np.abs(s1) @ np.abs(derivative) + np.abs(s2)))


@pytest.mark.parametrize("family", ("gaussian", "poisson", "bernoulli"))
@pytest.mark.parametrize("start", ("cold", "warm"))
def test_curvature_is_q2_at_returned_coefficients(family, start):
    if family == "gaussian":
        u = np.linspace(0.0, 1.0, 60)
        x, z, y, offsets = _problem_arrays("gaussian", u, 11)
        fitter = CurveFitter("gaussian", x, y, u, SmoothingParams(h=0.2), u)
    else:
        data, fitter = _simulated_problem(family)
        u, z, offsets = data.u, data.z, data.z @ np.full(data.n_linear, 0.1)
    sol = fitter.solve(offsets, z=z, **_starts(fitter, offsets)[start])
    _assert_derivative_at_returned_coefficients(fitter, u, z, offsets, sol)


def test_curvature_of_an_abandoned_point():
    # a three-observation bernoulli window started 8 below the cold start:
    # the first step saturates the window, and 20 halvings cannot recover
    u = np.array([0.0, 0.0, 0.025])
    x, z, y, offsets = _problem_arrays("bernoulli", u, 16)
    sm = SmoothingParams(h=0.02525, delta=0.1, degree=0)
    fitter = CurveFitter("bernoulli", x, y, u, sm, np.array([0.0]))
    warm = fitter.initial_coefficients(offsets)
    warm[:, 0] -= 8.0
    sol = fitter.solve(offsets, warm=warm, z=z)
    assert not sol.converged[0] and sol.iterations[0] < 50
    _assert_derivative_at_returned_coefficients(fitter, u, z, offsets, sol)


def test_profile_state_reads_the_triple_at_fitted():
    data, _ = _simulated_problem("bernoulli", n=200)
    engine = g.ProfileEngine("bernoulli", data, SmoothingParams(h=0.4, delta=0.005))
    state = engine.state(np.full(data.n_linear, 0.1))
    fam = engine.family
    assert np.array_equal(state.q1, fam.q(1, state.fitted, data.y))
    assert np.array_equal(state.q2, fam.q(2, state.fitted, data.y))
    assert state.loglik == float(np.sum(fam.quasi_loglik(state.fitted, data.y)))


def _saturated_solve(push):
    """Every bernoulli window's start pushed up by push: (fitter, offsets,
    warm, data)."""
    data, fitter = _simulated_problem("bernoulli", n=200)
    offsets = data.z @ np.full(data.n_linear, 0.1)
    warm = fitter.solve(offsets).coefficients
    warm[:, 0] += push
    return fitter, offsets, warm, data


def _assert_zero_curvature_raises(fitter, offsets, warm, **kwargs):
    """At a push of 800, q_2 underflows to zero over every window: the
    first Newton step's information matrix is zero, a typed error naming
    the lowest point, the first of the first group."""
    message = (f"local Newton: information matrix at point index "
               f"{fitter.point_order[0]} stayed ill-conditioned after ridge escalation")
    with pytest.raises(SingularityError, match=message):
        fitter.solve(offsets, warm=warm, **kwargs)


@pytest.mark.parametrize("push", (40.0, 800.0))
def test_saturated_start_is_abandoned_where_it_stands(push):
    # every window saturated: q_2 is about e^-40, so each Newton step is far
    # too long; Q keeps its slope beyond any clip, so no such step is
    # accepted and the points stop at their start
    fitter, offsets, warm, data = _saturated_solve(push)
    if push == 800.0:
        _assert_zero_curvature_raises(fitter, offsets, warm, z=data.z)
        return
    sol = fitter.solve(offsets, warm=warm, z=data.z)
    assert not sol.converged.any()
    assert np.array_equal(sol.coefficients, warm)
    _assert_derivative_at_returned_coefficients(fitter, data.u, data.z, offsets, sol)


@pytest.mark.parametrize("push", (40.0, 800.0))
def test_unconverged_points_are_reported_once(push, caplog):
    fitter, offsets, warm, _ = _saturated_solve(push)
    if push == 800.0:
        _assert_zero_curvature_raises(fitter, offsets, warm)
        return
    with caplog.at_level(logging.DEBUG, logger="gvcplm"):
        sol = fitter.solve(offsets, warm=warm)
    reports = [r for r in caplog.records if "unconverged" in r.getMessage()]
    assert len(reports) == 1
    assert reports[0].name == "gvcplm" and reports[0].levelno == logging.DEBUG
    largest = sol.gradient_norm.max()
    assert reports[0].getMessage() == (
        f"local Newton: 200 of 200 points unconverged (200 abandoned after "
        f"{MAX_HALVINGS} step halvings, 0 out of the {MAX_LOCAL_ITERS}-iteration "
        f"budget); largest gradient norm {largest:.3g}")
    assert len(caplog.records) == 1


def test_points_out_of_budget_are_reported(caplog, monkeypatch):
    data, fitter = _simulated_problem("poisson")
    offsets = data.z @ np.full(data.n_linear, 0.1)
    monkeypatch.setattr(smoothing, "MAX_LOCAL_ITERS", 1)
    with caplog.at_level(logging.DEBUG, logger="gvcplm"):
        sol = fitter.solve(offsets)
    assert np.all(sol.iterations == 1)
    unconverged = np.count_nonzero(~sol.converged)
    assert unconverged > 0
    assert [r.getMessage() for r in caplog.records] == [
        f"local Newton: {unconverged} of {data.n} points unconverged (0 abandoned after "
        f"{MAX_HALVINGS} step halvings, {unconverged} out of the 1-iteration budget); "
        f"largest gradient norm {sol.gradient_norm.max():.3g}"]


def test_converged_and_one_step_solves_report_nothing(caplog, monkeypatch):
    data, fitter = _simulated_problem("poisson")
    offsets = data.z @ np.full(data.n_linear, 0.1)
    with caplog.at_level(logging.DEBUG, logger="gvcplm"):
        assert fitter.solve(offsets).converged.all()
    assert caplog.records == []
    # with DEBUG off the saturated solve builds no record
    fitter, offsets, warm, _ = _saturated_solve(40.0)
    monkeypatch.setattr(smoothing._log, "debug", None)
    with caplog.at_level(logging.INFO, logger="gvcplm"):
        assert not fitter.solve(offsets, warm=warm).converged.any()
