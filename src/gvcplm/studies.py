"""Monte Carlo experiment drivers for the benchmark designs.

Each study draws replicate datasets from a benchmark design with
deterministic per-replicate random streams, runs the configured estimators
and writes per-replicate rows, a summary and (for the test studies)
plot-data files.  Replicates that fail numerically are logged and excluded;
a study aborts if more than 10 percent of its replicates fail.

Available studies:

* ``table1``      timing and accuracy of the three algorithms against the
                  oracle curve fit (true beta).  ``time_<algorithm>`` covers
                  profile maximization only: ``ProfileEngine`` construction
                  plus the damped Newton ascent from the shared
                  difference-based start.  It excludes that start, the
                  oracle curve fit and the display-grid curve evaluation.
* ``table2``      GMSE of the fully iterated accelerated fit relative to the
                  difference-based start and to the 3-step fit.
* ``table3``      sensitivity of the one-step estimate to bandwidth scaling.
* ``table4``      Monte Carlo SD versus sandwich standard errors.
* ``fig1_null``   null distribution of the likelihood ratio statistic.
* ``fig1_power``  rejection rates along a sequence of alternatives.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from pathlib import Path

import numpy as np

from .dbe import fit_dbe
from .errors import GvcplmError, StudyError
from .inference import chi2_upper_tail, glrt, make_constraint, sandwich_covariance
from .metrics import MetricSummary, gmse, rase, sd_mad
from .profile import FitConfig, fit as profile_fit
from .simulate import (
    design_moment,
    generate,
    make_design,
    preset_smoothing,
    replicate_seed,
    with_beta,
)
from .smoothing import SmoothingParams, fit_curve
from .crossval import cross_validate, default_smoothing_grid

STUDIES = ("table1", "table2", "table3", "table4", "fig1_null", "fig1_power")
DEFAULT_REPS = {
    "table1": 50,
    "table2": 400,
    "table3": 400,
    "table4": 400,
    "fig1_null": 400,
    "fig1_power": 400,
}
GLRT_LEVELS = (0.10, 0.05, 0.01)
POWER_GAMMAS = (0.0, 0.05, 0.10, 0.15, 0.20)
_H_MULTIPLIERS = (0.66, 1.0, 1.5)   # table3's bandwidths, times the preset h
MAX_FAILURE_RATE = 0.10

_SE_DISPLAY_COORDS = {"poisson": (1, 3), "bernoulli": (2, 4)}  # 1-based


def _smoothing_for(family: str, n: int, h, delta, use_cv: bool, seed: int) -> SmoothingParams:
    """Given h and delta, else cross-validated over the axes not given (with
    use_cv), else the presets."""
    preset_delta, preset_h = preset_smoothing(family, n)
    if use_cv and (h is None or delta is None):
        data = generate(make_design(family, n), replicate_seed(seed, 0))
        grid = [(d if delta is None else delta, hh if h is None else h)
                for d, hh in default_smoothing_grid(family, data)]
        return cross_validate(family, data, grid=list(dict.fromkeys(grid)), seed=seed).best
    return SmoothingParams(h=preset_h if h is None else h,
                           delta=preset_delta if delta is None else delta)


def _run_replicates(reps: int, seed: int, worker):
    """Run worker(rep, seed_sequence) over replicates, collecting failures."""
    rows, failures = [], []
    for rep in range(reps):
        try:
            rows.append(worker(rep, replicate_seed(seed, rep)))
        except (GvcplmError, np.linalg.LinAlgError) as exc:
            failures.append({"rep": rep, "error": f"{type(exc).__name__}: {exc}"})
    if len(failures) > MAX_FAILURE_RATE * reps:
        raise StudyError(
            f"{len(failures)} of {reps} replicates failed "
            f"(limit {MAX_FAILURE_RATE:.0%}); first: {failures[0]['error']}"
        )
    return rows, failures


# ---------------------------------------------------------------------------
# individual studies


def _study_table1(family, n, reps, seed, smoothing):
    # time_<algorithm> covers ProfileEngine construction plus the damped
    # Newton ascent from the shared difference-based start.  The start, the
    # oracle curve fit and the display-grid curve evaluation are the same
    # work for every algorithm, so they stay outside the timer; counting them
    # would add one constant to each time and pull the ratios toward 1.
    design = make_design(family, n)
    moment = design_moment(design)
    configs = {
        "backfitting": FitConfig(smoothing=smoothing, algorithm="backfitting",
                                 max_steps=3),
        "accelerated": FitConfig(smoothing=smoothing, algorithm="accelerated",
                                 max_steps=3),
        "full": FitConfig(smoothing=smoothing, algorithm="full", max_steps=50),
    }

    def worker(rep, rng_seed):
        data = generate(design, rng_seed)
        init = fit_dbe(family, data, smoothing.delta).beta0
        row = {"rep": rep}
        oracle = fit_curve(family, data, design.beta0, smoothing)
        rase_oracle = rase(oracle, design.alpha_funcs)
        for name, cfg in configs.items():
            t0 = time.perf_counter()
            beta = profile_fit(family, data, cfg, init=init).beta
            elapsed = time.perf_counter() - t0
            curve = fit_curve(family, data, beta, smoothing)
            row[f"time_{name}"] = elapsed
            row[f"gmse_{name}"] = gmse(beta, design.beta0, moment)
            row[f"rase_ratio_{name}"] = rase_oracle / rase(curve, design.alpha_funcs)
        row["rase_oracle"] = rase_oracle
        return row

    rows, failures = _run_replicates(reps, seed, worker)
    summary = {}
    for name in configs:
        summary[f"time_{name}"] = MetricSummary.from_samples(
            [r[f"time_{name}"] for r in rows]).as_dict()
        summary[f"gmse_{name}_x1e4"] = MetricSummary.from_samples(
            [1e4 * r[f"gmse_{name}"] for r in rows]).as_dict()
        summary[f"rase_ratio_{name}_median"] = float(
            np.median([r[f"rase_ratio_{name}"] for r in rows]))
    summary["time_ratio_full_over_accelerated_median"] = float(np.median(
        [r["time_full"] / r["time_accelerated"] for r in rows]))
    return rows, summary, failures, {}


def _study_table2(family, n, reps, seed, smoothing):
    design = make_design(family, n)
    moment = design_moment(design)
    cfg_3s = FitConfig(smoothing=smoothing, max_steps=3)
    cfg_af = FitConfig(smoothing=smoothing, max_steps=50)

    def worker(rep, rng_seed):
        data = generate(design, rng_seed)
        init = fit_dbe(family, data, smoothing.delta).beta0
        g_dbe = gmse(init, design.beta0, moment)
        # one engine for both fits: it keeps no state between them
        res_3s = profile_fit(family, data, cfg_3s, init=init)
        beta_af = profile_fit(family, data, cfg_af, init=init, engine=res_3s.engine).beta
        g_3s = gmse(res_3s.beta, design.beta0, moment)
        g_af = gmse(beta_af, design.beta0, moment)
        return {
            "rep": rep,
            "gmse_dbe": g_dbe,
            "gmse_3s": g_3s,
            "gmse_af": g_af,
            "ratio_af_dbe_pct": 100.0 * g_af / g_dbe,
            "ratio_af_3s_pct": 100.0 * g_af / g_3s,
        }

    rows, failures = _run_replicates(reps, seed, worker)
    summary = {
        "ratio_af_dbe_pct": MetricSummary.from_samples(
            [r["ratio_af_dbe_pct"] for r in rows]).as_dict(),
        "ratio_af_3s_pct": MetricSummary.from_samples(
            [r["ratio_af_3s_pct"] for r in rows]).as_dict(),
        "gmse_af_x1e4": MetricSummary.from_samples(
            [1e4 * r["gmse_af"] for r in rows]).as_dict(),
    }
    return rows, summary, failures, {}


def _study_table3(family, n, reps, seed, smoothing):
    design = make_design(family, n)
    moment = design_moment(design)

    def worker(rep, rng_seed):
        data = generate(design, rng_seed)
        init = fit_dbe(family, data, smoothing.delta).beta0
        row = {"rep": rep}
        for mult in _H_MULTIPLIERS:
            scaled = dataclasses.replace(smoothing, h=mult * smoothing.h)
            cfg = FitConfig(smoothing=scaled, max_steps=1)
            beta = profile_fit(family, data, cfg, init=init).beta
            tag = f"{mult:g}"
            row[f"gmse_h{tag}"] = gmse(beta, design.beta0, moment)
            row[f"beta5_h{tag}"] = float(beta[4])
        return row

    rows, failures = _run_replicates(reps, seed, worker)
    summary = {}
    for mult in _H_MULTIPLIERS:
        tag = f"{mult:g}"
        summary[f"gmse_h{tag}"] = MetricSummary.from_samples(
            [r[f"gmse_h{tag}"] for r in rows]).as_dict()
        beta5 = np.array([r[f"beta5_h{tag}"] for r in rows])
        summary[f"beta5_h{tag}"] = MetricSummary.from_samples(beta5).as_dict()
        summary[f"mse_beta5_h{tag}"] = float(np.mean((beta5 - design.beta0[4]) ** 2))
    return rows, summary, failures, {}


def _study_table4(family, n, reps, seed, smoothing):
    design = make_design(family, n)
    cfg = FitConfig(smoothing=smoothing, max_steps=1)

    def worker(rep, rng_seed):
        data = generate(design, rng_seed)
        res = profile_fit(family, data, cfg)
        cov = sandwich_covariance(res)
        row = {"rep": rep}
        for j in range(design.p_dim):
            row[f"beta_{j + 1}"] = float(res.beta[j])
            row[f"se_{j + 1}"] = float(cov.se[j])
        return row

    rows, failures = _run_replicates(reps, seed, worker)
    summary = {}
    for j in range(design.p_dim):
        betas = np.array([r[f"beta_{j + 1}"] for r in rows])
        ses = np.array([r[f"se_{j + 1}"] for r in rows])
        summary[f"beta_{j + 1}"] = {
            "mc_sd": float(np.std(betas, ddof=1)),
            "se_median": float(np.median(ses)),
            "se_sd_mad": sd_mad(ses),
        }
    summary["display_coordinates"] = list(_SE_DISPLAY_COORDS.get(family, ()))
    return rows, summary, failures, {}


def _null_constraint(p_dim: int):
    rows = np.eye(p_dim)[6:]  # coordinates 7 .. p
    return make_constraint(rows)


def _study_fig1_null(family, n, reps, seed, smoothing):
    design = make_design(family, n)
    constraint = _null_constraint(design.p_dim)
    cfg = FitConfig(smoothing=smoothing, max_steps=1)

    def worker(rep, rng_seed):
        data = generate(design, rng_seed)
        result = glrt(family, data, constraint, cfg)
        return {"rep": rep, "t_stat": result.statistic, "p_value": result.p_value}

    rows, failures = _run_replicates(reps, seed, worker)
    t_vals = np.array([r["t_stat"] for r in rows])
    df = constraint.df
    summary = {
        "df": df,
        "t_stat": MetricSummary.from_samples(t_vals).as_dict(),
        "rejection_rates": {
            f"{level:g}": float(np.mean([
                chi2_upper_tail(t, df) < level for t in t_vals
            ]))
            for level in GLRT_LEVELS
        },
    }
    grid = np.linspace(0.0, max(float(t_vals.max()) * 1.05, df * 3.0), 200)
    curves = {
        "t_grid": grid,
        "empirical_density": _gaussian_kde(t_vals, grid),
        "chi2_density": _chi2_pdf(grid, df),
    }
    return rows, summary, failures, {"curves": curves}


def _study_fig1_power(family, n, reps, seed, smoothing, gammas=POWER_GAMMAS):
    base = make_design(family, n)
    constraint = _null_constraint(base.p_dim)
    cfg = FitConfig(smoothing=smoothing, max_steps=1)

    rows_all, failures_all = [], []
    power = {level: [] for level in GLRT_LEVELS}
    for gi, gamma in enumerate(gammas):
        design = with_beta(base, b7=gamma, b8=gamma)

        def worker(rep, rng_seed, design=design, gamma=gamma):
            data = generate(design, rng_seed)
            result = glrt(family, data, constraint, cfg)
            row = {"rep": rep, "gamma": gamma, "t_stat": result.statistic}
            for level in GLRT_LEVELS:
                row[f"reject_{level:g}"] = int(result.p_value < level)
            return row

        rows, failures = _run_replicates(reps, seed + 1000 * gi, worker)
        rows_all.extend(rows)
        failures_all.extend(failures)
        for level in GLRT_LEVELS:
            power[level].append(float(np.mean([r[f"reject_{level:g}"] for r in rows])))

    summary = {
        "gammas": list(gammas),
        "power": {f"{level:g}": power[level] for level in GLRT_LEVELS},
        "df": constraint.df,
    }
    curves = {"gamma": np.asarray(gammas)}
    for level in GLRT_LEVELS:
        curves[f"power_alpha_{level:g}"] = np.asarray(power[level])
    return rows_all, summary, failures_all, {"power_curves": curves}


# ---------------------------------------------------------------------------
# helpers


def _gaussian_kde(samples: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Gaussian kernel density with Silverman's bandwidth."""
    n = samples.size
    spread = min(np.std(samples, ddof=1), sd_mad(samples) * 1.349 / 1.34)
    bw = max(0.9 * spread * n ** (-0.2), 1e-12)
    t = (grid[:, None] - samples[None, :]) / bw
    return np.exp(-0.5 * t * t).sum(axis=1) / (n * bw * np.sqrt(2.0 * np.pi))


def _chi2_pdf(x: np.ndarray, df: int) -> np.ndarray:
    """Chi-square density on x >= 0, in closed form:
    exp((k - 1) log x - x/2 - lgamma(k) - k log 2) with k = df/2.

    (k - 1) log x is taken as 0 when k = 1, also at x = 0, so the density at
    0 is inf for df = 1, 0.5 for df = 2 and 0 for df >= 3, with no warning.
    Against scipy.stats.chi2.pdf it agrees to about 4e-14 relative on
    [0, 100] for df <= 60, where the density is at least 1e-300.
    """
    k = 0.5 * df
    x = np.asarray(x, dtype=float)
    if k == 1.0:
        power = np.zeros_like(x)
    else:
        with np.errstate(divide="ignore"):
            power = (k - 1.0) * np.log(x)
    return np.exp(power - x / 2.0 - math.lgamma(k) - k * math.log(2.0))


_STUDY_FUNCS = {
    "table1": _study_table1,
    "table2": _study_table2,
    "table3": _study_table3,
    "table4": _study_table4,
    "fig1_null": _study_fig1_null,
    "fig1_power": _study_fig1_power,
}


def run_table(
    study: str,
    reps=None,
    seed: int = 0,
    family: str = "poisson",
    n: int = 200,
    out_dir=None,
    use_cv: bool = False,
    h=None,
    delta=None,
    **study_kwargs,
):
    """Run one study and return its report dictionary.

    The report holds the per-replicate rows, the summary, the failure log
    and the study configuration.  When out_dir is given, the rows, summary
    and any plot data are also written as CSV/JSON files whose bytes are
    reproducible for a fixed seed (timing columns excepted).
    """
    if study not in _STUDY_FUNCS:
        raise StudyError(f"unknown study {study!r}; choose from {STUDIES}")
    reps = DEFAULT_REPS[study] if reps is None else int(reps)
    if reps < 1:
        raise StudyError("reps must be >= 1")
    smoothing = _smoothing_for(family, n, h, delta, use_cv, seed)
    rows, summary, failures, extras = _STUDY_FUNCS[study](
        family, n, reps, seed, smoothing, **study_kwargs
    )
    report = {
        "study": study,
        "family": family,
        "n": n,
        "reps": reps,
        "seed": seed,
        "smoothing": {"h": smoothing.h, "delta": smoothing.delta,
                      "degree": smoothing.degree},
        "n_failures": len(failures),
        "failures": failures,
        "summary": summary,
    }
    report.update(extras)
    report["replicates"] = rows
    if out_dir is not None:
        _write_report(Path(out_dir), report)
    return report


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def write_csv(path, header, rows_of_values) -> None:
    """Write a headed CSV: floats in repr form (exact round trip), bools and
    ints as integers, None as an empty cell."""
    lines = [",".join(header)]
    for row in rows_of_values:
        lines.append(",".join(_format_cell(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_report(out_dir: Path, report: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    study = report["study"]
    rows = report["replicates"]
    if rows:
        header = sorted(rows[0].keys())
        write_csv(out_dir / f"{study}_replicates.csv", header,
                  ([row[k] for k in header] for row in rows))
    meta = {k: v for k, v in report.items()
            if k not in ("replicates", "curves", "power_curves")}
    (out_dir / f"{study}_summary.json").write_text(
        json.dumps(meta, sort_keys=True, indent=2, default=float) + "\n",
        encoding="utf-8",
    )
    for key in ("curves", "power_curves"):
        if key in report:
            table = report[key]
            names = list(table.keys())
            columns = [np.asarray(table[name]) for name in names]
            write_csv(out_dir / f"{study}_{key}.csv", names,
                      (list(vals) for vals in zip(*columns)))
