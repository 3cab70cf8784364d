"""Monte Carlo experiment drivers for the benchmark designs.

A study is its arms, a worker and a summary.  An arm is a (design, seed
offset, row fields) triple whose replicate k draws generate(design,
replicate_seed(seed + offset, k)); the worker turns that dataset into one
record, kept as the row {"rep": k, **fields, **record}; the summary reduces
the rows to the study's summary and any plot data.  Replicates that fail
numerically are logged and excluded; a study aborts if more than 10 percent
of one arm's replicates fail.  With one replicate, a statistic that needs
two (an SD, a kernel density) is written as JSON null or an empty CSV cell.

``_STUDIES`` maps each study to its builder, (family, design, smoothing,
its own keyword arguments, such as fig1_power's gammas) -> (arms, worker,
summary), and its default replicate count.  Available studies:

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
* ``fig1_power``  rejection rates along a sequence of alternatives, one arm
                  per gamma, the g-th at seed offset 1000 g.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import math
import time
from pathlib import Path

import numpy as np

from .dbe import fit_dbe
from .errors import GvcplmError, ParameterError, StudyError
from .inference import glrt, make_constraint, sandwich_covariance
from .metrics import MetricSummary, gmse, rase, sample_sd, sd_mad
from .profile import FitConfig, fit as profile_fit
from .simulate import (
    design_moment,
    generate,
    make_design,
    preset_smoothing,
    replicate_seed,
    with_beta,
)
from .smoothing import SmoothingParams, _check_seed, _is_integer, fit_curve
from .crossval import cross_validate, default_smoothing_grid

GLRT_LEVELS = (0.10, 0.05, 0.01)
POWER_GAMMAS = (0.0, 0.05, 0.10, 0.15, 0.20)
_H_MULTIPLIERS = (0.66, 1.0, 1.5)   # table3's bandwidths, times the preset h
MAX_FAILURE_RATE = 0.10

_SE_DISPLAY_COORDS = {"poisson": (1, 3), "bernoulli": (2, 4)}  # 1-based


def _smoothing_for(design, h, delta, use_cv: bool, seed: int) -> SmoothingParams:
    """Given h and delta, else cross-validated on the design's first replicate
    over the axes not given (with use_cv), else the presets."""
    family = design.family_name
    preset_delta, preset_h = preset_smoothing(family, design.n)
    if use_cv and (h is None or delta is None):
        data = generate(design, replicate_seed(seed, 0))
        grid = default_smoothing_grid(family, data, None if delta is None else [delta],
                                      None if h is None else [h])
        return cross_validate(family, data, grid=grid, seed=seed).best
    return SmoothingParams(h=preset_h if h is None else h,
                           delta=preset_delta if delta is None else delta)


def _run_replicates(arms, reps: int, seed: int, worker):
    """Rows and failures of reps replicates of each (design, seed offset,
    row fields) arm, bounding the failures per arm."""
    rows, failures = [], []
    for design, offset, fields in arms:
        lost = []
        for rep in range(reps):
            try:
                record = worker(generate(design, replicate_seed(seed + offset, rep)))
            except (GvcplmError, np.linalg.LinAlgError) as exc:
                lost.append({"rep": rep, "error": f"{type(exc).__name__}: {exc}"})
            else:
                rows.append({"rep": rep, **fields, **record})
        if len(lost) > MAX_FAILURE_RATE * reps:
            raise StudyError(
                f"{len(lost)} of {reps} replicates failed "
                f"(limit {MAX_FAILURE_RATE:.0%}); first: {lost[0]['error']}"
            )
        failures.extend(lost)
    return rows, failures


def _metric(rows, key: str, scale: float = 1.0) -> dict:
    """MetricSummary of scale times the rows' key column, as a dict."""
    return MetricSummary.from_samples([scale * r[key] for r in rows]).as_dict()


# ---------------------------------------------------------------------------
# individual studies: (family, design, smoothing) -> (arms, worker, summarize)


def _study_table1(family, design, smoothing):
    # time_<algorithm> covers ProfileEngine construction plus the damped
    # Newton ascent from the shared difference-based start.  The start, the
    # oracle curve fit and the display-grid curve evaluation are the same
    # work for every algorithm, so they stay outside the timer; counting them
    # would add one constant to each time and pull the ratios toward 1.
    moment = design_moment(design)
    configs = {
        "backfitting": FitConfig(smoothing=smoothing, algorithm="backfitting",
                                 max_steps=3),
        "accelerated": FitConfig(smoothing=smoothing, algorithm="accelerated",
                                 max_steps=3),
        "full": FitConfig(smoothing=smoothing, algorithm="full", max_steps=50),
    }

    def worker(data):
        init = fit_dbe(family, data, smoothing.delta).beta0
        row = {}
        oracle = fit_curve(family, data, design.beta0, smoothing)
        rase_oracle = rase(oracle, design.alpha_funcs)
        for name, cfg in configs.items():
            t0 = time.perf_counter()
            beta = profile_fit(family, data, cfg, init=init).beta
            row[f"time_{name}"] = time.perf_counter() - t0
            curve = fit_curve(family, data, beta, smoothing)
            row[f"gmse_{name}"] = gmse(beta, design.beta0, moment)
            row[f"rase_ratio_{name}"] = rase_oracle / rase(curve, design.alpha_funcs)
        row["rase_oracle"] = rase_oracle
        return row

    def summarize(rows):
        summary = {}
        for name in configs:
            summary[f"time_{name}"] = _metric(rows, f"time_{name}")
            summary[f"gmse_{name}_x1e4"] = _metric(rows, f"gmse_{name}", 1e4)
            summary[f"rase_ratio_{name}_median"] = float(
                np.median([r[f"rase_ratio_{name}"] for r in rows]))
        summary["time_ratio_full_over_accelerated_median"] = float(np.median(
            [r["time_full"] / r["time_accelerated"] for r in rows]))
        return summary, {}

    return [(design, 0, {})], worker, summarize


def _study_table2(family, design, smoothing):
    moment = design_moment(design)
    cfg_3s = FitConfig(smoothing=smoothing, max_steps=3)
    cfg_af = FitConfig(smoothing=smoothing, max_steps=50)

    def worker(data):
        init = fit_dbe(family, data, smoothing.delta).beta0
        g_dbe = gmse(init, design.beta0, moment)
        # one engine for both fits: it keeps no state between them
        res_3s = profile_fit(family, data, cfg_3s, init=init)
        beta_af = profile_fit(family, data, cfg_af, init=init, engine=res_3s.engine).beta
        g_3s = gmse(res_3s.beta, design.beta0, moment)
        g_af = gmse(beta_af, design.beta0, moment)
        return {
            "gmse_dbe": g_dbe,
            "gmse_3s": g_3s,
            "gmse_af": g_af,
            "ratio_af_dbe_pct": 100.0 * g_af / g_dbe,
            "ratio_af_3s_pct": 100.0 * g_af / g_3s,
        }

    def summarize(rows):
        return {
            "ratio_af_dbe_pct": _metric(rows, "ratio_af_dbe_pct"),
            "ratio_af_3s_pct": _metric(rows, "ratio_af_3s_pct"),
            "gmse_af_x1e4": _metric(rows, "gmse_af", 1e4),
        }, {}

    return [(design, 0, {})], worker, summarize


def _study_table3(family, design, smoothing):
    moment = design_moment(design)

    def worker(data):
        init = fit_dbe(family, data, smoothing.delta).beta0
        row = {}
        for mult in _H_MULTIPLIERS:
            scaled = dataclasses.replace(smoothing, h=mult * smoothing.h)
            cfg = FitConfig(smoothing=scaled, max_steps=1)
            beta = profile_fit(family, data, cfg, init=init).beta
            tag = f"{mult:g}"
            row[f"gmse_h{tag}"] = gmse(beta, design.beta0, moment)
            row[f"beta5_h{tag}"] = float(beta[4])
        return row

    def summarize(rows):
        summary = {}
        for mult in _H_MULTIPLIERS:
            tag = f"{mult:g}"
            summary[f"gmse_h{tag}"] = _metric(rows, f"gmse_h{tag}")
            beta5 = np.array([r[f"beta5_h{tag}"] for r in rows])
            summary[f"beta5_h{tag}"] = MetricSummary.from_samples(beta5).as_dict()
            summary[f"mse_beta5_h{tag}"] = float(np.mean((beta5 - design.beta0[4]) ** 2))
        return summary, {}

    return [(design, 0, {})], worker, summarize


def _study_table4(family, design, smoothing):
    cfg = FitConfig(smoothing=smoothing, max_steps=1)

    def worker(data):
        res = profile_fit(family, data, cfg)
        cov = sandwich_covariance(res)
        row = {}
        for j in range(design.p_dim):
            row[f"beta_{j + 1}"] = float(res.beta[j])
            row[f"se_{j + 1}"] = float(cov.se[j])
        return row

    def summarize(rows):
        summary = {}
        for j in range(design.p_dim):
            betas = np.array([r[f"beta_{j + 1}"] for r in rows])
            ses = np.array([r[f"se_{j + 1}"] for r in rows])
            summary[f"beta_{j + 1}"] = {
                "mc_sd": sample_sd(betas),
                "se_median": float(np.median(ses)),
                "se_sd_mad": sd_mad(ses),
            }
        summary["display_coordinates"] = list(_SE_DISPLAY_COORDS.get(family, ()))
        return summary, {}

    return [(design, 0, {})], worker, summarize


def _glrt_setup(study, family, design, smoothing):
    """fig1's test, coordinates 7 .. p = 0 from one Newton step: its degrees
    of freedom, and the function from a dataset to its GlrtResult.  A design
    with p <= 6 has no such coordinates: ParameterError naming the study."""
    if design.p_dim <= 6:
        raise ParameterError(f"{study} tests coordinates 7..p, but n = {design.n} "
                             f"gives p = {design.p_dim}")
    constraint = make_constraint(np.eye(design.p_dim)[6:])
    cfg = FitConfig(smoothing=smoothing, max_steps=1)
    return constraint.df, lambda data: glrt(family, data, constraint, cfg)


def _study_fig1_null(family, design, smoothing):
    df, test = _glrt_setup("fig1_null", family, design, smoothing)

    def worker(data):
        result = test(data)
        return {"t_stat": result.statistic, "p_value": result.p_value}

    def summarize(rows):
        t_vals = np.array([r["t_stat"] for r in rows])
        summary = {
            "df": df,
            "t_stat": MetricSummary.from_samples(t_vals).as_dict(),
            "rejection_rates": {
                f"{level:g}": float(np.mean([r["p_value"] < level for r in rows]))
                for level in GLRT_LEVELS
            },
        }
        grid = np.linspace(0.0, max(float(t_vals.max()) * 1.05, df * 3.0), 200)
        curves = {
            "t_grid": grid,
            "empirical_density": (_gaussian_kde(t_vals, grid) if t_vals.size > 1
                                  else [None] * grid.size),
            "chi2_density": _chi2_pdf(grid, df),
        }
        return summary, {"curves": curves}

    return [(design, 0, {})], worker, summarize


def _study_fig1_power(family, design, smoothing, gammas=POWER_GAMMAS):
    df, test = _glrt_setup("fig1_power", family, design, smoothing)
    arms = [(with_beta(design, b7=gamma, b8=gamma), 1000 * gi, {"gamma": gamma})
            for gi, gamma in enumerate(gammas)]

    def worker(data):
        result = test(data)
        row = {"t_stat": result.statistic}
        for level in GLRT_LEVELS:
            row[f"reject_{level:g}"] = int(result.p_value < level)
        return row

    def summarize(rows):
        curves = {"gamma": np.asarray(gammas)}
        for level in GLRT_LEVELS:
            curves[f"power_alpha_{level:g}"] = np.array([
                np.mean([r[f"reject_{level:g}"] for r in rows if r["gamma"] == gamma])
                for gamma in gammas])
        power = {f"{level:g}": curves[f"power_alpha_{level:g}"].tolist()
                 for level in GLRT_LEVELS}
        summary = {"gammas": list(gammas), "power": power, "df": df}
        return summary, {"power_curves": curves}

    return arms, worker, summarize


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


_STUDIES = {
    "table1": (_study_table1, 50),
    "table2": (_study_table2, 400),
    "table3": (_study_table3, 400),
    "table4": (_study_table4, 400),
    "fig1_null": (_study_fig1_null, 400),
    "fig1_power": (_study_fig1_power, 400),
}
STUDIES = tuple(_STUDIES)


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
    if study not in _STUDIES:
        raise StudyError(f"unknown study {study!r}; choose from {STUDIES}")
    build, default_reps = _STUDIES[study]
    reps = default_reps if reps is None else reps
    if not _is_integer(reps) or reps < 1:
        raise StudyError(f"reps must be an integer >= 1, got {reps!r}")
    # a study's own arguments are its builder's beyond (family, design, smoothing)
    unknown = sorted(set(study_kwargs) - set(list(inspect.signature(build).parameters)[3:]))
    if unknown:
        raise StudyError(f"study {study!r} takes no argument {', '.join(unknown)}")
    _check_seed(seed)
    design = make_design(family, n)
    smoothing = _smoothing_for(design, h, delta, use_cv, seed)
    arms, worker, summarize = build(family, design, smoothing, **study_kwargs)
    rows, failures = _run_replicates(arms, reps, seed, worker)
    summary, extras = summarize(rows)
    report = {
        "study": study,
        "family": family,
        "n": n,
        "reps": int(reps),
        "seed": seed,
        "smoothing": dataclasses.asdict(smoothing),
        "n_failures": len(failures),
        "failures": failures,
        "summary": summary,
    }
    report.update(extras)
    report["replicates"] = rows
    if out_dir is not None:
        _write_report(Path(out_dir), report, extras)
    return report


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer, np.bool_)):   # bool is an int
        return str(int(value))
    return repr(float(value))


def write_csv(path, header, rows_of_values) -> None:
    """Write a headed CSV: floats in repr form (exact round trip), bools and
    ints as integers, None as an empty cell."""
    lines = [",".join(header)]
    for row in rows_of_values:
        lines.append(",".join(_format_cell(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_report(out_dir: Path, report: dict, extras: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    study = report["study"]
    rows = report["replicates"]
    if rows:
        header = sorted(rows[0].keys())
        write_csv(out_dir / f"{study}_replicates.csv", header,
                  ([row[k] for k in header] for row in rows))
    meta = {k: v for k, v in report.items() if k != "replicates" and k not in extras}
    (out_dir / f"{study}_summary.json").write_text(
        json.dumps(meta, sort_keys=True, indent=2, default=float) + "\n",
        encoding="utf-8",
    )
    for key, table in extras.items():
        columns = [np.asarray(column) for column in table.values()]
        write_csv(out_dir / f"{study}_{key}.csv", list(table),
                  (list(vals) for vals in zip(*columns)))
