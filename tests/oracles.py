"""Independent oracle implementations used to validate the library.

Everything here is deliberately written from first principles (direct
smoother-row construction, series/continued fractions, brute-force sums and
finite differences) and shares no code path with the package internals it
checks.
"""

import math

import numpy as np


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
