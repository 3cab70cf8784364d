import dataclasses

import numpy as np
import pytest

from gvcplm import CurveFitter, Dataset
from gvcplm.families import LINEAR_PREDICTOR_MAX


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


@pytest.fixture
def fitter_sizes(monkeypatch):
    """The number of points of every CurveFitter built during the test, in
    the order they are built."""
    sizes = []
    orig = CurveFitter.__init__

    def counting(fitter, *args, **kwargs):
        orig(fitter, *args, **kwargs)
        sizes.append(fitter.points.size)

    monkeypatch.setattr(CurveFitter, "__init__", counting)
    return sizes


def make_gaussian_dataset(n=300, q=2, p=6, seed=0, noise=1.0, alpha_linear=False):
    """Synthetic gaussian varying-coefficient dataset for tests.

    With alpha_linear=True the coefficient functions are degree-1 polynomials
    in u, which a local linear smoother reproduces exactly; combined with
    noise=0.0 this makes every profile estimating equation exact at the true
    beta.
    """
    gen = np.random.default_rng(seed)
    u = np.sort(gen.uniform(0.0, 1.0, n))
    x = np.column_stack([np.ones(n), gen.normal(size=(n, q - 1))]) if q > 1 \
        else np.ones((n, 1))
    z = gen.normal(size=(n, p))
    beta = gen.normal(size=p)
    if alpha_linear:
        alpha = np.column_stack([0.5 + 1.5 * u] + [(-1.0 + 2.0 * u)] * (q - 1))
    else:
        alpha = np.column_stack(
            [np.sin(2 * np.pi * u)] + [2 * u * (1 - u)] * (q - 1)
        )
    signal = np.einsum("iq,iq->i", alpha, x) + z @ beta
    y = signal + noise * gen.normal(size=n)
    return Dataset(u=u, x=x, z=z, y=y), beta, alpha


def log_passes(fitter):
    """Log the fitter's local Newton work, in call order, into the returned
    list: ("group",) as each group's loop starts, ("pass", objective, rows,
    beyond) per family pass, beyond telling whether a predictor has |x| >
    LINEAR_PREDICTOR_MAX, and ("score", grad) per local score."""
    log = []
    family, solve_group, score = fitter.family, fitter._solve_group, fitter._score

    def evaluate(x, y, w, objective):
        beyond = bool(np.any(np.abs(x) > LINEAR_PREDICTOR_MAX))   # before x is overwritten
        log.append(("pass", objective, x.shape[0], beyond))
        return family.evaluate(x, y, w, objective)

    def logged_group(*args):
        log.append(("group",))
        return solve_group(*args)

    def logged_score(group, sel, weighted):
        grad = score(group, sel, weighted)
        log.append(("score", grad))
        return grad

    fitter.family = dataclasses.replace(family, evaluate=evaluate)
    fitter._solve_group, fitter._score = logged_group, logged_score
    return log


def trials(log):
    """The Newton trials of a ``log_passes`` log, one dict each: its rows, its
    step and score when logged ("step" entries, if any, precede their trial),
    whether a predictor had |x| > LINEAR_PREDICTOR_MAX, and the rows of each
    Q pass (objective evaluated) that followed it."""
    out, current, start, step = [], None, False, None
    for entry in log:
        if entry[0] == "group":
            current, start = None, True
        elif entry[0] == "step":
            step = entry[1]
        elif entry[0] == "pass" and not entry[1]:
            if start:   # the group's first pass, at its start
                start = False
                continue
            current = {"rows": entry[2], "beyond": entry[3], "step": step,
                       "grad": None, "q_passes": []}
            out.append(current)
        elif entry[0] == "pass":
            current["q_passes"].append(entry[2])
            current["beyond"] |= entry[3]
        elif current is not None and current["grad"] is None:
            current["grad"] = entry[1]
    return out
