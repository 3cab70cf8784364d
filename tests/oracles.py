"""Independent oracle implementations used to validate the library.

Everything here is deliberately written from first principles (direct
smoother-row construction, series/continued fractions, brute-force sums and
finite differences) and shares no code path with the package internals it
checks, except ``QEveryTrialFitter``: the local Newton loop as it was before
its steps were certified, kept to check the certified loop against.
"""

import math

import numpy as np

from gvcplm.smoothing import (LOCAL_TOL, MAX_HALVINGS, MAX_LOCAL_ITERS, CurveFitter,
                              _products, _ridged_solve)


def epanechnikov(t, h):
    """Rescaled Epanechnikov weight K(t / h) / h at distance(s) t, with
    K(z) = 3 (1 - z^2) / 4 on |z| <= 1 and 0 beyond."""
    z = np.asarray(t, dtype=float) / h
    return np.where(np.abs(z) <= 1.0, 0.75 * (1.0 - z * z), 0.0) / h


def gaussian_profile_wls(data, smoothing):
    """Closed-form profiled weighted least squares for the identity link.

    Builds the local polynomial smoother row at every observation point by
    direct weighted least squares, smooths the response and each z column,
    and solves the profiled normal equations on the residuals.
    """
    q = data.n_curves
    deg = smoothing.degree
    targets = np.column_stack([data.y, data.z])
    smoothed = np.zeros_like(targets)
    for i in range(data.n):
        t = data.u - data.u[i]
        w = epanechnikov(t, smoothing.h)
        blocks = [data.x * (t[:, None] ** r / math.factorial(r)) for r in range(deg + 1)]
        design = np.hstack(blocks)
        lhs = design.T @ (w[:, None] * design)
        rhs = design.T @ (w[:, None] * targets)
        coef = np.linalg.solve(lhs, rhs)
        smoothed[i] = data.x[i] @ coef[:q]
    resid_y = data.y - smoothed[:, 0]
    resid_z = data.z - smoothed[:, 1:]
    beta, *_ = np.linalg.lstsq(resid_z, resid_y, rcond=None)
    return beta, resid_y, resid_z


def gaussian_profile_sse(data, smoothing, beta):
    """-0.5 * || (I - H)(y - z beta) ||^2 from the direct smoother rows."""
    _, resid_y, resid_z = gaussian_profile_wls(data, smoothing)
    r = resid_y - resid_z @ np.asarray(beta, dtype=float)
    return -0.5 * float(r @ r)


def chi2_upper_oracle(x, df):
    """P(chi2_df > x) via the textbook series / continued fraction split."""
    a = df / 2.0
    xx = x / 2.0
    if xx <= 0.0:
        return 1.0
    log_prefactor = -xx + a * math.log(xx) - math.lgamma(a)
    if xx < a + 1.0:
        # lower series: P(a,x) = x^a e^{-x}/Gamma(a) * sum x^k / (a)_{k+1}
        term = 1.0 / a
        total = term
        k = a
        for _ in range(10000):
            k += 1.0
            term *= xx / k
            total += term
            if abs(term) < abs(total) * 1e-17:
                break
        return 1.0 - total * math.exp(log_prefactor)
    # modified Lentz continued fraction for Q(a,x)
    tiny = 1e-300
    b = xx + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 10000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-17:
            break
    return math.exp(log_prefactor) * h


def fd_derivative(f, x, eps=1e-5):
    """Central first difference."""
    return (f(x + eps) - f(x - eps)) / (2.0 * eps)


def fd_gradient(f, beta, eps=1e-5):
    """Central-difference gradient of a scalar function of a vector."""
    beta = np.asarray(beta, dtype=float)
    grad = np.zeros_like(beta)
    for j in range(beta.size):
        e = np.zeros_like(beta)
        e[j] = eps
        grad[j] = (f(beta + e) - f(beta - e)) / (2.0 * eps)
    return grad


def brute_force_quadratic(delta, moment):
    """Naive double-sum evaluation of d' M d."""
    total = 0.0
    for j in range(len(delta)):
        for k in range(len(delta)):
            total += delta[j] * moment[j, k] * delta[k]
    return total


def brute_force_rase(grid_values, truth_values):
    """Naive loop evaluation of the root average squared curve error."""
    total = 0.0
    for k in range(grid_values.shape[0]):
        for j in range(grid_values.shape[1]):
            total += (grid_values[k, j] - truth_values[k, j]) ** 2
    return math.sqrt(total / grid_values.shape[0])


def local_grid_search(objective, bounds, coarse=41, refinements=4):
    """Staged grid search of a concave 2-d objective down to 1e-3 resolution.

    Starts on a coarse grid over ``bounds`` and repeatedly zooms into the
    best cell; concavity of the local quasi-likelihood makes the refinement
    valid.  Returns the maximizing pair.
    """
    (lo0, hi0), (lo1, hi1) = bounds
    best = None
    for _ in range(refinements):
        a0 = np.linspace(lo0, hi0, coarse)
        a1 = np.linspace(lo1, hi1, coarse)
        vals = np.array([[objective(p, s) for s in a1] for p in a0])
        i, j = np.unravel_index(np.argmax(vals), vals.shape)
        best = (a0[i], a1[j])
        span0 = (hi0 - lo0) / (coarse - 1)
        span1 = (hi1 - lo1) / (coarse - 1)
        lo0, hi0 = best[0] - span0, best[0] + span0
        lo1, hi1 = best[1] - span1, best[1] + span1
    return best


def _q_every_trial_objectives(family, linpred, y, w):
    """Local objectives sum W Q (rows,) with the unweighted q_1 and q_2 (rows,
    width), from one ``q012`` pass."""
    q, q1, q2 = family.q012(linpred, y)
    return np.einsum("ei,ei->e", w, q), q1, q2


def _q_every_trial_linpred(group, sel, coefs, offsets):
    """Predictors (rows, width) of rows sel: the product with the basis's d
    leading rows, then the offsets added."""
    out = _products(group, sel, np.einsum("ers,er->es", group.maps[sel], coefs),
                    group.bases[:, :-1])
    out += offsets
    return out


class QEveryTrialFitter(CurveFitter):
    """A CurveFitter whose local Newton loop evaluates Q at every trial.

    Each trial predictor is the product with the basis's d leading rows plus
    the offsets, and gets one full ``q012`` pass (Q, q_1, q_2); the score is
    taken with W q_1, the Newton step solves the negated Gram matrix of W q_2,
    and every step is accepted by the test sum W Q(trial) >= sum W Q(current)
    - 1e-10 (1 + |sum W Q(current)|), halving the step where it fails.  It
    returns -(W q_2) as the curvature.  The certified loop must reach the
    same coefficients, iterations and flags bit for bit.
    """

    def _solve_group(self, group, y, coefs):
        m, w = coefs.shape[0], group.weights
        gnorm, converged, iters = np.zeros(m), np.zeros(m, dtype=bool), np.zeros(m, dtype=int)
        every = slice(None)
        offsets = np.repeat(group.bases[:, -1], np.diff(group.bounds), axis=0)
        obj, q1, q2 = _q_every_trial_objectives(
            self.family, _q_every_trial_linpred(group, every, coefs, offsets), y, w)
        curvature = q2

        active = np.arange(m)
        while True:
            sel = every if active.size == m else active
            grad = self._score(group, sel, w[sel] * q1)
            gn = np.abs(grad).max(axis=1)
            gnorm[sel] = gn
            done = gn < LOCAL_TOL
            converged[active[done]] = True
            if done.any():
                active, grad, q2 = active[~done], grad[~done], q2[~done]
                sel = active
            if active.size == 0 or iters[sel].min() >= MAX_LOCAL_ITERS:
                break

            hess = self._weighted_gram(group, sel, w[sel] * q2)
            step = _ridged_solve(-hess, grad, "local Newton", group.index[active])

            lam = np.ones(active.size)
            trial_c = coefs[sel] + step
            trial_obj, trial_q1, trial_q2 = _q_every_trial_objectives(
                self.family, _q_every_trial_linpred(group, sel, trial_c, offsets[sel]),
                y[sel], w[sel])
            tol_obj = 1e-10 * (1.0 + np.abs(obj[sel]))
            bad = ~(trial_obj >= obj[sel] - tol_obj)
            for _ in range(MAX_HALVINGS):
                if not bad.any():
                    break
                lam[bad] *= 0.5
                idx = active[bad]
                trial_c[bad] = coefs[idx] + lam[bad, None] * step[bad]
                trial_obj[bad], trial_q1[bad], trial_q2[bad] = _q_every_trial_objectives(
                    self.family, _q_every_trial_linpred(group, idx, trial_c[bad], offsets[idx]),
                    y[idx], w[idx])
                bad = ~(trial_obj >= obj[sel] - tol_obj)
            if bad.any():
                active, trial_c, trial_obj, trial_q1, trial_q2 = (a[~bad] for a in (
                    active, trial_c, trial_obj, trial_q1, trial_q2))
                sel = active
            coefs[sel], obj[sel] = trial_c, trial_obj
            if active.size == m:
                curvature = trial_q2
            else:
                curvature[sel] = trial_q2
            q1, q2 = trial_q1, trial_q2
            iters[sel] += 1

        return coefs, gnorm, converged, iters, -(w * curvature)
