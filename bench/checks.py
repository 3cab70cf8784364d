"""Correctness checks of the program's outputs, made apart from the program.

The local-likelihood reference below is written from the model, not from
the program's code: for each evaluation point it runs plain Newton, with
step halving, on the Epanechnikov-weighted local log-likelihood

    sum_i K_h(u_i - u0) [ y_i theta_i - b(theta_i) ],
    theta_i = (a + c (u_i - u0))' x_i + z_i' beta,

with b(t) = e^t (poisson) or log(1 + e^t) (bernoulli), over the observations
inside the kernel window only.  Every check raises ``CheckFailed`` with the
reason; none of them runs inside a timed region.
"""

from __future__ import annotations

import math
import statistics

import numpy as np


class CheckFailed(AssertionError):
    """An output of the program disagrees with its reference."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _close(a: float, b: float, rel: float, abs_: float = 0.0) -> bool:
    return abs(a - b) <= abs_ + rel * max(abs(a), abs(b))


def check_rounds_identical(outputs: list):
    """Every round, on the same inputs, wrote the same outputs."""
    for k, out in enumerate(outputs[1:], start=2):
        _require(out == outputs[0], f"outputs of round {k} differ from round 1")


# ---------------------------------------------------------------------------
# local-likelihood reference


def _cumulant(family: str):
    """b, b' and b'' of the canonical family."""
    if family == "poisson":
        return np.exp, np.exp, np.exp

    def b(t):
        return np.logaddexp(0.0, t)

    def b1(t):
        return 0.5 * (1.0 + np.tanh(0.5 * t))

    def b2(t):
        p = b1(t)
        return p * (1.0 - p)

    return b, b1, b2


def local_alpha(inputs, beta, h: float, points) -> np.ndarray:
    """Reference local linear fit of alpha at each point, shape (m, q).

    Assumes x[:, 0] is the constant column, which the benchmark designs have.
    """
    b, b1, b2 = _cumulant(inputs.family)
    points = np.asarray(points, dtype=float)
    order = np.argsort(inputs.u, kind="stable")
    us, xs, ys = inputs.u[order], inputs.x[order], inputs.y[order]
    offs = (inputs.z @ np.asarray(beta, dtype=float))[order]
    lo = np.searchsorted(us, points - h, side="right")
    hi = np.searchsorted(us, points + h, side="left")
    idx = lo[:, None] + np.arange(int((hi - lo).max()))[None, :]
    inside = idx < hi[:, None]
    idx = np.minimum(idx, us.size - 1)
    t = us[idx] - points[:, None]
    k = np.where(inside, 0.75 * np.clip(1.0 - (t / h) ** 2, 0.0, None) / h, 0.0)
    xw = xs[idx]
    design = np.concatenate([xw, xw * t[..., None]], axis=2)     # (m, w, 2q)
    yw, ow = ys[idx], offs[idx]

    def objective(a):
        theta = np.einsum("mwd,md->mw", design, a) + ow
        return np.sum(k * (yw * theta - b(theta)), axis=1)

    a = np.zeros((points.size, design.shape[2]))
    ksum = k.sum(axis=1)
    if inputs.family == "poisson":
        a[:, 0] = np.log(np.sum(k * yw, axis=1) / ksum + 0.5) - np.sum(k * ow, axis=1) / ksum
    obj = objective(a)
    for _ in range(200):
        theta = np.einsum("mwd,md->mw", design, a) + ow
        grad = np.einsum("mw,mwd->md", k * (yw - b1(theta)), design)
        hess = np.einsum("mw,mwd,mwe->mde", k * b2(theta), design, design)
        step = np.linalg.solve(hess, grad[..., None])[..., 0]
        scale = np.ones(points.size)
        trial = a + step
        trial_obj = objective(trial)
        for _ in range(60):
            worse = trial_obj < obj - 1e-13 * np.abs(obj)
            if not worse.any():
                break
            scale[worse] *= 0.5
            trial[worse] = a[worse] + scale[worse, None] * step[worse]
            trial_obj = objective(trial)
        a, obj = trial, trial_obj
        if np.max(np.abs(scale[:, None] * step)) < 1e-13:
            break
    return a[:, : inputs.x.shape[1]]


def profile_loglik(inputs, beta, h: float) -> float:
    """sum_i y_i theta_i - b(theta_i) with alpha fitted at every u_i."""
    b, _, _ = _cumulant(inputs.family)
    alpha = local_alpha(inputs, beta, h, inputs.u)
    theta = np.sum(alpha * inputs.x, axis=1) + inputs.z @ np.asarray(beta, dtype=float)
    return float(np.sum(inputs.y * theta - b(theta)))


# ---------------------------------------------------------------------------
# fit and test reports


def read_curve_csv(text: str) -> dict:
    lines = text.strip().splitlines()[1:]
    values = np.array([[float(c) for c in line.split(",")] for line in lines])
    return {"grid": values[:, 0], "values": values[:, 1:]}


def _beta(coefficients: dict) -> np.ndarray:
    names = sorted(coefficients, key=lambda name: int(name[1:]))
    return np.array([coefficients[name]["estimate"] for name in names])


def check_curve(inputs, h, fit_report, curve, sample=(0, 1, 37, 74, 111, 148, 185, 199)):
    """curve.csv at sampled grid points equals the reference local fit."""
    rows = np.asarray(sample)
    ref = local_alpha(inputs, _beta(fit_report["coefficients"]), h, curve["grid"][rows])
    got = curve["values"][rows]
    err = np.max(np.abs(ref - got) / (1.0 + np.abs(ref)))
    _require(err < 1e-6, f"curve.csv differs from the reference local fit by {err:.3g}")


def check_profile_loglik(inputs, h, fit_report):
    """The reported profile_loglik equals the reference at the reported beta."""
    ref = profile_loglik(inputs, _beta(fit_report["coefficients"]), h)
    got = fit_report["profile_loglik"]
    _require(_close(ref, got, 1e-9), f"profile_loglik {got!r} != reference {ref!r}")


def check_wald(coefficients: dict):
    """z = estimate / se and p = 2 Phi(-|z|), recomputed with math.erfc."""
    for name, c in coefficients.items():
        z = c["estimate"] / c["se"]
        p = math.erfc(abs(z) / math.sqrt(2.0))
        _require(_close(c["z"], z, 1e-12), f"{name}: z {c['z']!r} != {z!r}")
        _require(_close(c["p"], p, 1e-9, 1e-300), f"{name}: Wald p {c['p']!r} != {p!r}")


def check_within_5se(coefficients: dict, beta0):
    """|beta_hat - beta_0| <= 5 SE for every coordinate."""
    for j, name in enumerate(sorted(coefficients, key=lambda s: int(s[1:]))):
        c = coefficients[name]
        dev = abs(c["estimate"] - beta0[j])
        _require(dev <= 5.0 * c["se"],
                 f"{name}: |beta_hat - beta_0| = {dev:.4g} exceeds 5 SE = {5 * c['se']:.4g}")


def check_test(inputs, h, test_report, first_null: int):
    """T = 2 (l_alt - l_null) >= 0 with both logliks from the reference,
    coordinates first_null+1 .. p of beta_null are zero, and
    p = chi2.sf(T, df)."""
    from scipy import stats

    t_stat, df = test_report["statistic"], test_report["df"]
    beta_null = np.asarray(test_report["beta_null"])
    _require(t_stat >= 0.0, f"test statistic {t_stat!r} is negative")
    _require(df == beta_null.size - first_null, f"df {df} != {beta_null.size - first_null}")
    _require(np.all(np.abs(beta_null[first_null:]) < 1e-10),
             f"beta_null coordinates {first_null + 1}.. are not zero: {beta_null[first_null:]}")
    l_alt = profile_loglik(inputs, test_report["beta_alt"], h)
    l_null = profile_loglik(inputs, beta_null, h)
    ref = max(2.0 * (l_alt - l_null), 0.0)
    _require(_close(t_stat, ref, 0.0, 1e-4 + 1e-10 * abs(l_alt)),
             f"test statistic {t_stat!r} != 2 (l_alt - l_null) = {ref!r}")
    p = float(stats.chi2.sf(t_stat, df))
    _require(_close(test_report["p_value"], p, 1e-9, 1e-300),
             f"p_value {test_report['p_value']!r} != chi2.sf(T, df) = {p!r}")


# ---------------------------------------------------------------------------
# cross-validation report


def check_cv_cells(report: dict, n_cells: int):
    """Every cell of the grid is scored."""
    cells = report["cells"]
    _require(len(cells) == n_cells, f"{len(cells)} CV cells reported, expected {n_cells}")
    for c in cells:
        _require(not c["failed"] and c["score"] is not None and math.isfinite(c["score"]),
                 f"CV cell delta={c['delta']} h={c['h']} is not scored")


def check_cv_best(report: dict):
    """best is the argmax of the score, ties toward larger h, then larger delta."""
    key = lambda c: (c["score"], c["h"], -math.inf if c["delta"] is None else c["delta"])
    top = max(report["cells"], key=key)
    best = report["best"]
    _require((best["h"], best["delta"]) == (top["h"], top["delta"]),
             f"CV best {best} is not the argmax cell (h={top['h']}, delta={top['delta']})")


def cv_one_cell(inputs, cell, y=None, seed=0, k=5):
    """cross_validate on one (delta, h) cell, optionally with replaced y."""
    import gvcplm

    data = gvcplm.Dataset(u=inputs.u, x=inputs.x, z=inputs.z,
                          y=inputs.y if y is None else y)
    return gvcplm.cross_validate(inputs.family, data, grid=[cell], k=k, seed=seed)


def check_cv_isolation(inputs, report: dict):
    """The best cell's score matches a one-cell rerun, and the first fold's
    beta is unchanged when that fold's held-out responses are flipped."""
    best = report["best"]
    cell = (best["delta"], best["h"])
    rerun = cv_one_cell(inputs, cell, seed=report["seed"])
    cli_score = next(c["score"] for c in report["cells"]
                     if (c["delta"], c["h"]) == cell)
    _require(_close(float(rerun.scores[0]), cli_score, 1e-10),
             f"CV score {cli_score!r} != one-cell rerun {float(rerun.scores[0])!r}")
    y = inputs.y.copy()
    held_out = rerun.folds[0]
    y[held_out] = 1.0 - y[held_out]
    flipped = cv_one_cell(inputs, cell, y=y, seed=report["seed"])
    compare_fold_betas(rerun.fold_betas[0][0], flipped.fold_betas[0][0])


def compare_fold_betas(before, after):
    _require(np.array_equal(before, after),
             "fold beta changed when that fold's held-out responses were flipped")


# ---------------------------------------------------------------------------
# study reports


def check_study_failures(report: dict):
    _require(report["n_failures"] == 0, f"{report['n_failures']} replicates failed")
    _require(len(report["replicates"]) == report["reps"],
             f"{len(report['replicates'])} rows for {report['reps']} replicates")


def check_study_p_values(report: dict):
    """Each replicate's p_value equals chi2.sf(t_stat, df)."""
    from scipy import stats

    df = report["summary"]["df"]
    for row in report["replicates"]:
        p = float(stats.chi2.sf(row["t_stat"], df))
        _require(_close(row["p_value"], p, 1e-9, 1e-300),
                 f"replicate {row['rep']}: p_value {row['p_value']!r} != {p!r}")


def check_study_mc_sd(report: dict):
    """Summary mc_sd equals the SD of the replicate betas."""
    rows = report["replicates"]
    j = 1
    while f"beta_{j}" in rows[0]:
        sd = statistics.stdev(row[f"beta_{j}"] for row in rows)
        got = report["summary"][f"beta_{j}"]["mc_sd"]
        _require(_close(got, sd, 1e-9), f"beta_{j}: mc_sd {got!r} != SD of rows {sd!r}")
        j += 1
    _require(j > 1, "no beta columns in the table4 rows")
