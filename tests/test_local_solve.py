"""The local Newton solve's family passes and the derivative it returns.

Each trial predictor gets one family pass for W q_1 and W b'' = -W q_2, and
its score certifies the step where score . step >= -1e-10; only the other
rows get Q, at their current and trial coefficients, and their halvings.  An
accepted trial's W q_1 and W b'' serve the next iterate; each group's final
W b'' is differentiated inside the solve, so the derivative evaluates no
family at all.  The loop that evaluates Q at every trial (``QEveryTrialFitter``) is
the oracle the certified loop must match bit for bit.  A warm-started point
that stalls takes its group's solve from the cold start.
"""

import logging

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

import gvcplm as g
from gvcplm import CurveFitter, SingularityError, SmoothingParams, smoothing
from gvcplm.smoothing import MAX_HALVINGS, MAX_LOCAL_ITERS, BatchSolution

from conftest import log_passes, trials
from oracles import QEveryTrialFitter
from test_bands import _dense_systems, _problem_arrays, _same_bits


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
def test_one_family_pass_per_objective(family, start, monkeypatch):
    data, fitter = _simulated_problem(family)
    offsets = data.z @ np.full(data.n_linear, 0.1)
    kwargs = _starts(fitter, offsets)[start]
    log = log_passes(fitter)
    ridged_solve = smoothing._ridged_solve

    def logged_solve(mats, rhs, context, points=None):
        out = ridged_solve(mats, rhs, context, points)
        if context == "local Newton":
            log.append(("step", out))
        return out

    monkeypatch.setattr(smoothing, "_ridged_solve", logged_solve)
    sol = fitter.solve(offsets, **kwargs)
    assert sol.converged.all()   # so every group runs as many trials as its points' most
    passes = [entry for entry in log if entry[0] == "pass"]

    # q_1 and q_2 only: one pass per group to start and one per trial
    runs = trials(log)
    group_iterations = sum(int(sol.iterations[group.index].max()) for group in fitter.groups)
    assert sum(not objective for _, objective, *_ in passes) == \
        len(fitter.groups) + group_iterations == len(fitter.groups) + len(runs)
    # Q only for the rows whose step the score does not certify, whatever
    # their predictors: at their current and trial coefficients, then at
    # each halving of the rows still short of the acceptance test
    for run in runs:
        uncertified = np.count_nonzero(
            ~(np.einsum("er,er->e", run["grad"], run["step"]) >= -1e-10))
        if not run["q_passes"]:
            assert uncertified == 0
            continue
        first, second, *halvings = run["q_passes"]
        assert first == second == uncertified
        assert halvings == sorted(halvings, reverse=True) and all(h <= first for h in halvings)
    certified = sum(run["rows"] for run in runs) - sum(run["q_passes"][0] for run in runs
                                                       if run["q_passes"])
    assert certified > 0
    if start == "warm":   # a start 8 below overshoots, and its steps are halved
        assert any(len(run["q_passes"]) > 2 for run in runs)

    # the derivative adds no family pass
    del log[:]
    fitter.solve(offsets, z=data.z, **kwargs)
    assert [entry for entry in log if entry[0] == "pass"] == passes


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
        _, x, z, y, offsets = _problem_arrays("gaussian", u, 11)
        fitter = CurveFitter("gaussian", x, y, u, SmoothingParams(h=0.2), u)
    else:
        data, fitter = _simulated_problem(family)
        u, z, offsets = data.u, data.z, data.z @ np.full(data.n_linear, 0.1)
    sol = fitter.solve(offsets, z=z, **_starts(fitter, offsets)[start])
    _assert_derivative_at_returned_coefficients(fitter, u, z, offsets, sol)


def _stalling_cold_start(monkeypatch, fitter, warm):
    """Make the fitter's cold start the warm start, so that a point whose warm
    start stalls stalls again when its group is solved from the cold start."""
    monkeypatch.setattr(fitter, "_cold", lambda group, *_: warm[group.index])


def _assert_cold_solve(sol, cold):
    """sol is the cold solve, cold, bit for bit."""
    for name in BatchSolution._fields:
        a, b = getattr(sol, name), getattr(cold, name)
        assert (a is None and b is None) or np.array_equal(a, b), name


def _stalling_window():
    """A three-observation bernoulli window started 8 below the cold start:
    the first step saturates the window, and 20 halvings cannot recover.
    (fitter, u, z, offsets, warm)."""
    u = np.array([0.0, 0.0, 0.025])
    family, x, z, y, offsets = _problem_arrays("bernoulli", u, 16)
    sm = SmoothingParams(h=0.02525, delta=0.1, degree=0)
    fitter = CurveFitter(family, x, y, u, sm, np.array([0.0]))
    warm = fitter.initial_coefficients(offsets)
    warm[:, 0] -= 8.0
    return fitter, u, z, offsets, warm


def test_stalled_warm_start_takes_the_cold_solve():
    fitter, u, z, offsets, warm = _stalling_window()
    sol = fitter.solve(offsets, warm=warm, z=z)
    assert sol.converged[0]
    _assert_cold_solve(sol, fitter.solve(offsets, z=z))


def test_curvature_of_an_abandoned_point(monkeypatch):
    # the window's cold start stalls as well, so the point is abandoned
    fitter, u, z, offsets, warm = _stalling_window()
    _stalling_cold_start(monkeypatch, fitter, warm)
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
    assert state.loglik == float(np.sum(fam.q012(state.fitted, data.y)[0]))


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
               f"{fitter.groups[0].index[0]} stayed ill-conditioned after ridge escalation")
    with pytest.raises(SingularityError, match=message):
        fitter.solve(offsets, warm=warm, **kwargs)


def test_saturated_warm_start_takes_the_cold_solve():
    # every point of the saturated start stalls, so every group is solved
    # again from its cold start, and the solve is the cold one
    fitter, offsets, warm, data = _saturated_solve(40.0)
    _assert_cold_solve(fitter.solve(offsets, warm=warm, z=data.z),
                       fitter.solve(offsets, z=data.z))


@pytest.mark.parametrize("elements", [smoothing._BLOCK_ELEMENTS, 1000],
                         ids=["default", "1000"])
@pytest.mark.parametrize("family", ("poisson", "bernoulli"))
def test_solve_follows_a_row_permutation_bit_for_bit(family, elements, monkeypatch):
    # u has no ties, so the permuted rows sort into the same u order: every
    # group solves the same problem, and only its caller indices move.  The
    # permuted fitter returns the permuted outputs bit for bit, cold, with
    # the derivative, and warm from a start pushed 40 up at every other
    # point, where the bernoulli points stall and take their cold retry
    monkeypatch.setattr(smoothing, "_BLOCK_ELEMENTS", elements)
    data, fitter = _simulated_problem(family)
    assert np.unique(data.u).size == data.n
    offsets = data.z @ np.full(data.n_linear, 0.1)
    perm = np.random.default_rng(17).permutation(data.n)
    permuted = CurveFitter(family, data.x[perm], data.y[perm], data.u[perm],
                           fitter.smoothing, data.u[perm])
    assert _same_bits(permuted.initial_coefficients(offsets[perm]),
                      fitter.initial_coefficients(offsets)[perm])
    cold = fitter.solve(offsets, z=data.z)
    warm = cold.coefficients.copy()
    warm[::2, 0] += 40.0
    solves = ((cold, permuted.solve(offsets[perm], z=data.z[perm])),
              (fitter.solve(offsets, warm=warm, z=data.z),
               permuted.solve(offsets[perm], warm=warm[perm], z=data.z[perm])))
    if family == "bernoulli":
        assert np.array_equal(solves[1][0].coefficients[::2], cold.coefficients[::2])
    for sol, sol_p in solves:
        for name in BatchSolution._fields:
            a, b = getattr(sol, name)[perm], getattr(sol_p, name)
            assert _same_bits(a, b) if a.dtype == float else np.array_equal(a, b), name


def test_stalled_points_of_a_group_take_the_cold_solve():
    # every other point starts at its solution and keeps it; the saturated
    # rest stall, and take their group's solve from the cold start
    fitter, offsets, warm, data = _saturated_solve(40.0)
    cold = fitter.solve(offsets, z=data.z)
    kept = np.arange(data.n) % 2 == 0
    warm[kept] = cold.coefficients[kept]
    sol = fitter.solve(offsets, warm=warm, z=data.z)
    mixed = [kept[group.index] for group in fitter.groups]
    assert any(k.any() and not k.all() for k in mixed) and sol.converged.all()
    assert np.all(sol.iterations[kept] == 0)
    for name in ("coefficients", "gradient_norm", "iterations"):
        assert np.array_equal(getattr(sol, name)[~kept], getattr(cold, name)[~kept]), name
    _assert_derivative_at_returned_coefficients(fitter, data.u, data.z, offsets, sol)


@pytest.mark.parametrize("push", (40.0, 800.0))
def test_saturated_start_is_abandoned_where_it_stands(push, monkeypatch):
    # every window saturated: q_2 is about e^-40, so each Newton step is far
    # too long; Q keeps its slope beyond any clip, so no such step is
    # accepted and the points stop at their start, which is here their cold
    # start too
    fitter, offsets, warm, data = _saturated_solve(push)
    if push == 800.0:
        _assert_zero_curvature_raises(fitter, offsets, warm, z=data.z)
        return
    _stalling_cold_start(monkeypatch, fitter, warm)
    sol = fitter.solve(offsets, warm=warm, z=data.z)
    assert not sol.converged.any()
    assert np.array_equal(sol.coefficients, warm)
    _assert_derivative_at_returned_coefficients(fitter, data.u, data.z, offsets, sol)


@pytest.mark.parametrize("push", (40.0, 800.0))
def test_unconverged_points_are_reported_once(push, caplog, monkeypatch):
    fitter, offsets, warm, _ = _saturated_solve(push)
    if push == 800.0:
        _assert_zero_curvature_raises(fitter, offsets, warm)
        return
    _stalling_cold_start(monkeypatch, fitter, warm)
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
    # a warm start that stalls and is solved again from its cold start
    # converges, and reports nothing
    fitter, offsets, warm, _ = _saturated_solve(40.0)
    with caplog.at_level(logging.DEBUG, logger="gvcplm"):
        assert fitter.solve(offsets, warm=warm).converged.all()
    assert caplog.records == []
    # with DEBUG off the abandoned solve builds no record
    _stalling_cold_start(monkeypatch, fitter, warm)
    monkeypatch.setattr(smoothing._log, "debug", None)
    with caplog.at_level(logging.INFO, logger="gvcplm"):
        assert not fitter.solve(offsets, warm=warm).converged.any()


def _differentiate_with_p_right_hand_sides(fitter, group, wb, zs):
    """The derivative as -S1^{-1} (M_e T_e): with W b'' = -W q_2, -S1 and
    M_e T_e = -S2 formed first, then one solve with its p columns as
    right-hand sides, negated."""
    d, p, width = fitter.n_coef, zs.shape[1], group.weights.shape[1]
    information = fitter._weighted_gram(group, slice(None), wb)
    tz = np.empty((wb.shape[0], d * p))
    bounds = group.bounds.tolist()
    for a, b, basis, start in zip(bounds, bounds[1:], group.bases[:, :-1],
                                  group.starts.tolist()):
        kron = basis.T[:, :, None] * zs[start:start + width, None, :]
        np.matmul(wb[a:b], kron.reshape(width, -1), out=tz[a:b])
    return -smoothing._ridged_solve(information, group.maps @ tz.reshape(-1, d, p),
                                    "curve derivative", group.index)


@pytest.mark.parametrize("family, x_scale", [("poisson", 1.0), ("bernoulli", 1.0),
                                             ("poisson", 1e5)],
                         ids=["poisson", "bernoulli", "ridged"])
def test_derivative_agrees_with_the_p_right_hand_side_form(family, x_scale, caplog):
    # S1^{-1} M_e, d right-hand sides, times T_e is (S1^{-1} M_e T_e) to
    # rounding.  A varying coefficient's x scaled by 1e5 makes S1's
    # condition number exceed 1e12, so every system is ridged; its spread is
    # one of scale, not of collinearity, so both forms still agree to rounding
    data = g.generate(g.make_design(family, 300), seed=g.replicate_seed(3, 1))
    x = data.x.copy()
    x[:, 1] *= x_scale
    delta, h = (0.1, 0.1) if family == "poisson" else (0.005, 0.4)
    fitter = CurveFitter(family, x, data.y, data.u, SmoothingParams(h=h, delta=delta), data.u)
    differentiate, groups = fitter._differentiate, []

    def compared(group, wb, zs):
        got = differentiate(group, wb, zs)
        want = _differentiate_with_p_right_hand_sides(fitter, group, wb, zs)
        scale = np.abs(want).max(axis=(1, 2), keepdims=True)
        assert np.all(np.abs(got - want) <= 1e-12 * scale)
        groups.append(group)
        return got

    fitter._differentiate = compared
    with caplog.at_level(logging.DEBUG, logger="gvcplm"):
        fitter.solve(data.z @ np.full(data.n_linear, 0.1), z=data.z)
    assert len(groups) == len(fitter.groups)
    ridged = [r.getMessage() for r in caplog.records
              if r.getMessage().startswith("curve derivative: ridged")]
    assert bool(ridged) == (x_scale != 1.0)


_PUSHES = {
    "gaussian": (0.0, 1.0, -1.0, 3.0, -3.0, 8.0, -8.0),
    "poisson": (0.0, 1.0, -1.0, 3.0, -3.0, 8.0, -8.0),
    "bernoulli": (0.0, 1.0, -1.0, 3.0, -3.0, 8.0, -8.0, 40.0, -40.0, 800.0),
}
# added to the offsets a warm poisson start was made for, so that its
# predictors, or its trials', pass +/-30, where the exponent is capped and Q
# goes on linearly
_POISSON_SHIFTS = (0.0, 26.0, -26.0, 29.0, -29.0, 33.0)


@st.composite
def _oracle_problems(draw):
    family = draw(st.sampled_from(("gaussian", "poisson", "bernoulli")))
    warm = draw(st.booleans())
    return dict(
        family=family, degree=draw(st.integers(0, 2)), tied=draw(st.booleans()),
        n=draw(st.integers(60, 120)), seed=draw(st.integers(0, 2 ** 16)), warm=warm,
        push=draw(st.sampled_from(_PUSHES[family])) if warm else 0.0,
        shift=draw(st.sampled_from(_POISSON_SHIFTS)) if warm and family == "poisson" else 0.0,
        with_z=draw(st.booleans()))


def _oracle_data(family, tied, n, seed):
    """(x, z, y, u, offsets) drawn from the family at a varying-coefficient
    predictor; tied u take 11 distinct values."""
    gen = np.random.default_rng(seed)
    u = gen.uniform(size=n)
    if tied:
        u = np.round(u * 10.0) / 10.0
    x = np.column_stack([np.ones(n), gen.normal(size=n)])
    z = gen.normal(size=(n, 3))
    offsets = z @ np.array([0.3, -0.2, 0.1])
    eta = np.sin(2 * np.pi * u) + 0.5 * x[:, 1] * u + offsets
    if family == "gaussian":
        y = eta + gen.normal(size=n)
    elif family == "poisson":
        y = gen.poisson(np.exp(eta)).astype(float)
    else:
        y = (gen.uniform(size=n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    return x, z, y, u, offsets


def _outcome(cls, problem):
    """A fitter's solution on the problem, or its error as (type, message),
    with its family passes logged."""
    family = problem["family"]
    x, z, y, u, offsets = _oracle_data(family, problem["tied"], problem["n"], problem["seed"])
    sm = SmoothingParams(h=0.3, delta=0.1, degree=problem["degree"])
    fitter = cls(family, x, y, u, sm, np.linspace(0.0, 1.0, 12))
    kwargs = {"z": z} if problem["with_z"] else {}
    if problem["warm"]:
        warm = fitter.initial_coefficients(offsets)
        warm[:, 0] += problem["push"]
        kwargs["warm"] = warm
    log = log_passes(fitter)
    try:
        result = fitter.solve(offsets + problem["shift"], **kwargs)
    except SingularityError as exc:
        result = (type(exc), str(exc))
    return result, log


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_oracle_problems())
def test_certified_loop_is_the_q_every_trial_loop(problem):
    got, log = _outcome(CurveFitter, problem)
    want, _ = _outcome(QEveryTrialFitter, problem)
    runs = trials(log)
    if any(run["rows"] > (run["q_passes"] or [0])[0] for run in runs):
        event("certified rows")
    if any(run["q_passes"] for run in runs):
        event("overshoot rows")
    if problem["family"] == "poisson" and any(run["beyond"] for run in runs):
        event("predictor beyond ±30")
    if not isinstance(want, BatchSolution):
        event("SingularityError")
        assert got == want
        return
    assert isinstance(got, BatchSolution)
    for name in BatchSolution._fields:
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None) == (name == "derivative" and not problem["with_z"])
        if a is not None:
            assert np.array_equal(a, b, equal_nan=True), name


@pytest.mark.parametrize("with_z", (False, True))
def test_zero_curvature_raises_as_the_q_every_trial_loop(with_z):
    fitter, offsets, warm, data = _saturated_solve(800.0)
    oracle = QEveryTrialFitter(fitter.family, data.x, data.y, data.u, fitter.smoothing, data.u)
    kwargs = {"warm": warm, "z": data.z} if with_z else {"warm": warm}
    messages = []
    for solver in (fitter, oracle):
        with pytest.raises(SingularityError) as raised:
            solver.solve(offsets, **kwargs)
        messages.append(str(raised.value))
    assert messages[0] == messages[1]
