"""Command-line interface: fit, test, cv, simulate.

A run is described by a JSON config document; every flag mirrors a config
key and flags override file values.  Exit codes: 0 success, 2 configuration
error, 3 data error, 4 numerical failure or out of memory (a diagnostic JSON
is printed on stderr for the latter).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np
from scipy import special

from . import studies
from .crossval import cross_validate, default_smoothing_grid
from .data import Dataset
from .errors import (
    DataError,
    GvcplmError,
    ParameterError,
)
from .families import get_family
from .inference import glrt, make_constraint, sandwich_covariance
from .profile import FitConfig, fit as profile_fit
from .smoothing import SmoothingParams

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4


def _float_repr(v) -> str:
    return repr(float(v))


def read_dataset_csv(path, u_col, y_col, x_cols, z_cols, intercept=False) -> Dataset:
    """Load a dataset from a headed CSV file.

    Missing or non-numeric values are rejected with their row number.  When
    intercept is true a leading column of ones is prepended to x.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"dataset file not found: {path}")
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file, header row required") from None
        rows = list(reader)
    index = {name: k for k, name in enumerate(header)}
    needed = [u_col, y_col, *x_cols, *z_cols]
    for name in needed:
        if name not in index:
            raise DataError(f"{path}: column {name!r} not found in header")
    parsed = {name: np.empty(len(rows)) for name in needed}
    for rownum, row in enumerate(rows, start=2):  # header is line 1
        if len(row) != len(header):
            raise DataError(f"{path}: row {rownum} has {len(row)} fields, "
                            f"expected {len(header)}")
        for name in needed:
            cell = row[index[name]].strip()
            if cell == "":
                raise DataError(f"{path}: missing value in column {name!r} "
                                f"at row {rownum}")
            try:
                parsed[name][rownum - 2] = float(cell)
            except ValueError:
                raise DataError(f"{path}: non-numeric value {cell!r} in column "
                                f"{name!r} at row {rownum}") from None
    x = np.column_stack([parsed[c] for c in x_cols])
    x_names = list(x_cols)
    if intercept:
        x = np.column_stack([np.ones(len(rows)), x])
        x_names = ["(intercept)", *x_names]
    z = np.column_stack([parsed[c] for c in z_cols])
    return Dataset(
        u=parsed[u_col], x=x, z=z, y=parsed[y_col],
        x_names=tuple(x_names), z_names=tuple(z_cols),
    )


def write_dataset_csv(path, data: Dataset) -> None:
    """Write a dataset with exact float round-trip (repr formatting)."""
    x_names = list(data.x_names or [f"x{j + 1}" for j in range(data.n_curves)])
    z_names = list(data.z_names or [f"z{j + 1}" for j in range(data.n_linear)])
    header = ["u", *x_names, *z_names, "y"]
    lines = [",".join(header)]
    for i in range(data.n):
        cells = [data.u[i], *data.x[i], *data.z[i], data.y[i]]
        lines.append(",".join(_float_repr(c) for c in cells))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _parse_constraint(spec: str, z_names) -> np.ndarray:
    """Parse "z7=0,z8=0" style coordinate hypotheses into constraint rows."""
    names = list(z_names)
    rows = []
    for clause in spec.split(","):
        clause = clause.strip()
        if not clause:
            continue
        if "=" not in clause:
            raise ParameterError(f"cannot parse constraint clause {clause!r}")
        name, value = (s.strip() for s in clause.split("=", 1))
        if float(value) != 0.0:
            raise ParameterError("only zero constraints are supported")
        if name not in names:
            raise ParameterError(f"constraint names unknown column {name!r}")
        row = np.zeros(len(names))
        row[names.index(name)] = 1.0
        rows.append(row)
    if not rows:
        raise ParameterError(f"no constraint rows parsed from {spec!r}")
    return np.vstack(rows)


def _smoothing_from_config(cfg: dict) -> SmoothingParams | None:
    block = cfg.get("smoothing", {})
    if block.get("h") is None:
        return None
    return SmoothingParams(
        h=float(block["h"]),
        delta=None if block.get("delta") is None else float(block["delta"]),
        degree=int(block.get("degree", 1)),
    )


def _fit_config(cfg: dict, smoothing: SmoothingParams) -> FitConfig:
    block = cfg.get("fit", {})
    return FitConfig(
        smoothing=smoothing,
        algorithm=block.get("algorithm", "accelerated"),
        max_steps=int(block.get("max_steps", 3)),
        step_tol=float(block.get("tol", 1e-6)),
    )


def _load_dataset(cfg: dict) -> Dataset:
    cols = cfg.get("columns") or {}
    for key in ("u", "y", "x", "z"):
        if key not in cols:
            raise ParameterError(f"config is missing columns.{key}")
    roles = [cols["u"], cols["y"], *cols["x"], *cols["z"]]
    if len(set(roles)) != len(roles):
        raise ParameterError("column roles overlap; u, y, x, z must be disjoint")
    if cfg.get("dataset") is None:
        raise ParameterError("config is missing the dataset path")
    return read_dataset_csv(
        cfg["dataset"], cols["u"], cols["y"], list(cols["x"]), list(cols["z"]),
        intercept=bool(cfg.get("intercept", False)),
    )


def _resolve_smoothing(cfg, family, data) -> SmoothingParams:
    smoothing = _smoothing_from_config(cfg)
    if smoothing is not None:
        return smoothing
    report = cross_validate(
        family, data, grid=default_smoothing_grid(family, data),
        k=int(cfg.get("cv", {}).get("k", 5)), seed=int(cfg.get("seed", 0)),
    )
    return report.best


def _out_dir(cfg: dict) -> Path:
    out = Path(cfg.get("out", "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _json_dump(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2, default=float) + "\n",
                    encoding="utf-8")


def _fit_payload(family, data, result, cov) -> dict:
    z_names = list(data.z_names or [f"z{j + 1}" for j in range(data.n_linear)])
    beta = result.beta
    se = cov.se
    zscores = beta / np.where(se > 0, se, np.nan)
    pvals = 2.0 * special.ndtr(-np.abs(zscores))
    fam = get_family(family)
    return {
        "family": fam.name,
        "coefficients": {
            name: {
                "estimate": float(beta[j]),
                "se": float(se[j]),
                "z": float(zscores[j]),
                "p": float(pvals[j]),
            }
            for j, name in enumerate(z_names)
        },
        "profile_loglik": result.profile_loglik,
        "converged": bool(result.converged),
        "n_steps": result.n_steps,
        "algorithm": result.algorithm_used,
    }


def _write_curve_csv(path: Path, data, result) -> None:
    x_names = list(data.x_names or [f"x{j + 1}" for j in range(data.n_curves)])
    header = ["grid_u"] + [f"alpha_{name}_hat" for name in x_names]
    lines = [",".join(header)]
    for k in range(result.curve.grid.size):
        cells = [result.curve.grid[k], *result.curve.values[k]]
        lines.append(",".join(_float_repr(c) for c in cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _standardized_residuals(family, data, result) -> np.ndarray:
    """Pearson residuals (y - mu) / sqrt(V(mu)) at the fitted linear predictor;
    for a canonical link these are q_1 / sqrt(-q_2)."""
    q1 = family.q(1, result.fitted, data.y)
    q2 = family.q(2, result.fitted, data.y)
    return q1 / np.sqrt(np.clip(-q2, 1e-300, None))


def _cmd_fit(cfg: dict) -> int:
    family = get_family(cfg.get("family"))
    data = _load_dataset(cfg)
    data.validate_response(family)
    smoothing = _resolve_smoothing(cfg, family, data)
    config = _fit_config(cfg, smoothing)
    result = profile_fit(family, data, config)
    cov = sandwich_covariance(result)
    out = _out_dir(cfg)
    payload = _fit_payload(family, data, result, cov)
    payload["smoothing"] = {"h": smoothing.h, "delta": smoothing.delta,
                            "degree": smoothing.degree}
    payload["standardized_residuals"] = [
        float(r) for r in _standardized_residuals(family, data, result)
    ]
    _json_dump(out / "fit_report.json", payload)
    _write_curve_csv(out / "curve.csv", data, result)
    return EXIT_OK


def _cmd_test(cfg: dict) -> int:
    family = get_family(cfg.get("family"))
    data = _load_dataset(cfg)
    data.validate_response(family)
    if not cfg.get("test"):
        raise ParameterError("test command requires a constraint, e.g. "
                             "--test 'z7=0,z8=0'")
    z_names = list(data.z_names or [f"z{j + 1}" for j in range(data.n_linear)])
    rows = _parse_constraint(cfg["test"], z_names)
    constraint = make_constraint(rows)
    smoothing = _resolve_smoothing(cfg, family, data)
    config = _fit_config(cfg, smoothing)
    fit_alt = profile_fit(family, data, config, curve_grid=False)
    result = glrt(family, data, constraint, config, fit_alt=fit_alt)
    cov = sandwich_covariance(fit_alt)
    out = _out_dir(cfg)
    payload = {
        "statistic": result.statistic,
        "df": result.df,
        "p_value": result.p_value,
        "signed_root": result.signed_root,
        "p_value_one_sided": result.p_value_one_sided,
        "beta_alt": [float(b) for b in result.beta_alt],
        "beta_null": [float(b) for b in result.beta_null],
        "coefficients": _fit_payload(family, data, fit_alt, cov)["coefficients"],
        "constraint": cfg["test"],
    }
    _json_dump(out / "test_report.json", payload)
    return EXIT_OK


def _cmd_cv(cfg: dict) -> int:
    family = get_family(cfg.get("family"))
    data = _load_dataset(cfg)
    data.validate_response(family)
    cv_block = cfg.get("cv", {})
    h_grid = cv_block.get("h_grid")
    delta_grid = cv_block.get("delta_grid")
    if h_grid:
        deltas = delta_grid if delta_grid else (
            [None] if not family.needs_delta else [0.1]
        )
        grid = [(d, float(h)) for d in deltas for h in h_grid]
    else:
        grid = default_smoothing_grid(family, data)
    report = cross_validate(family, data, grid=grid,
                            k=int(cv_block.get("k", 5)),
                            seed=int(cfg.get("seed", 0)))
    out = _out_dir(cfg)
    _json_dump(out / "cv_report.json", {
        "best": {"h": report.best.h, "delta": report.best.delta},
        "seed": report.fold_assignment_seed,
        "cells": [
            {"delta": d, "h": h, "score": None if report.failed[i] else float(report.scores[i]),
             "failed": bool(report.failed[i])}
            for i, (d, h) in enumerate(report.grid)
        ],
    })
    lines = ["delta,h,score,failed"]
    for i, (d, h) in enumerate(report.grid):
        score = "nan" if report.failed[i] else repr(float(report.scores[i]))
        lines.append(f"{'' if d is None else repr(float(d))},{repr(float(h))},"
                     f"{score},{int(report.failed[i])}")
    (out / "cv_scores.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return EXIT_OK


def _cmd_simulate(cfg: dict) -> int:
    block = cfg.get("simulate", {})
    study = block.get("study", "table2")
    out = _out_dir(cfg)
    if block.get("emit_csv"):
        from .simulate import generate, make_design, replicate_seed

        design = make_design(cfg.get("family", "poisson"), int(block.get("n", 200)))
        for rep in range(int(block.get("reps", 1))):
            data = generate(design, replicate_seed(int(cfg.get("seed", 0)), rep))
            write_dataset_csv(out / f"dataset_rep{rep:03d}.csv", data)
        return EXIT_OK
    studies.run_table(
        study,
        reps=block.get("reps"),
        seed=int(cfg.get("seed", 0)),
        family=cfg.get("family", "poisson"),
        n=int(block.get("n", 200)),
        out_dir=out,
        use_cv=bool(block.get("use_cv", False)),
        h=cfg.get("smoothing", {}).get("h"),
        delta=cfg.get("smoothing", {}).get("delta"),
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gvcplm",
        description="Profile quasi-likelihood fits, tests, cross-validation "
                    "and simulation studies for varying-coefficient "
                    "partially linear models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("fit", "test", "cv", "simulate"):
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--data", help="dataset CSV path")
        p.add_argument("--family", help="gaussian | poisson | bernoulli")
        p.add_argument("--u", help="index column name")
        p.add_argument("--y", help="response column name")
        p.add_argument("--x", help="comma-separated curve covariate columns")
        p.add_argument("--z", help="comma-separated linear covariate columns")
        p.add_argument("--intercept", action="store_true", default=None,
                       help="prepend a constant column to x")
        p.add_argument("--h", type=float, help="bandwidth")
        p.add_argument("--delta", type=float, help="transform offset")
        p.add_argument("--degree", type=int, help="local polynomial degree")
        p.add_argument("--algorithm", choices=["backfit", "accel", "full"],
                       help="outer Newton variant")
        p.add_argument("--max-steps", type=int, dest="max_steps")
        p.add_argument("--tol", type=float)
        p.add_argument("--test", help="constraint spec, e.g. 'z7=0,z8=0'")
        p.add_argument("--cv", type=int, dest="cv_k", help="number of folds")
        p.add_argument("--h-grid", dest="h_grid",
                       help="comma-separated bandwidth grid")
        p.add_argument("--delta-grid", dest="delta_grid",
                       help="comma-separated offset grid")
        p.add_argument("--out", help="output directory")
        p.add_argument("--seed", type=int)
        if name == "simulate":
            p.add_argument("--study", choices=list(studies.STUDIES))
            p.add_argument("--reps", type=int)
            p.add_argument("--n", type=int)
            p.add_argument("--emit-csv", dest="emit_csv", action="store_true",
                           default=None)
            p.add_argument("--use-cv", dest="use_cv", action="store_true",
                           default=None)
    return parser


def _merge_config(args: argparse.Namespace) -> dict:
    cfg = {}
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ParameterError(f"config file not found: {path}")
        try:
            cfg = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ParameterError(f"config file is not valid JSON: {exc}") from None
    cfg.setdefault("columns", {})
    cfg.setdefault("smoothing", {})
    cfg.setdefault("fit", {})
    cfg.setdefault("cv", {})
    cfg.setdefault("simulate", {})

    def put(block, key, value):
        if value is not None:
            block[key] = value

    put(cfg, "dataset", args.data)
    put(cfg, "family", args.family)
    put(cfg["columns"], "u", args.u)
    put(cfg["columns"], "y", args.y)
    if args.x is not None:
        cfg["columns"]["x"] = [s.strip() for s in args.x.split(",") if s.strip()]
    if args.z is not None:
        cfg["columns"]["z"] = [s.strip() for s in args.z.split(",") if s.strip()]
    put(cfg, "intercept", args.intercept)
    put(cfg["smoothing"], "h", args.h)
    put(cfg["smoothing"], "delta", args.delta)
    put(cfg["smoothing"], "degree", args.degree)
    put(cfg["fit"], "algorithm", args.algorithm)
    put(cfg["fit"], "max_steps", args.max_steps)
    put(cfg["fit"], "tol", args.tol)
    put(cfg, "test", args.test)
    put(cfg["cv"], "k", args.cv_k)
    if args.h_grid is not None:
        cfg["cv"]["h_grid"] = [float(s) for s in args.h_grid.split(",") if s.strip()]
    if args.delta_grid is not None:
        cfg["cv"]["delta_grid"] = [float(s) for s in args.delta_grid.split(",")
                                   if s.strip()]
    put(cfg, "out", args.out)
    put(cfg, "seed", args.seed)
    if args.command == "simulate":
        put(cfg["simulate"], "study", getattr(args, "study", None))
        put(cfg["simulate"], "reps", getattr(args, "reps", None))
        put(cfg["simulate"], "n", getattr(args, "n", None))
        put(cfg["simulate"], "emit_csv", getattr(args, "emit_csv", None))
        put(cfg["simulate"], "use_cv", getattr(args, "use_cv", None))
    return cfg


_COMMANDS = {
    "fit": _cmd_fit,
    "test": _cmd_test,
    "cv": _cmd_cv,
    "simulate": _cmd_simulate,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args)
        return _COMMANDS[args.command](cfg)
    except ParameterError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (GvcplmError, np.linalg.LinAlgError, MemoryError) as exc:
        diagnostic = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(diagnostic, sort_keys=True), file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
