"""Command-line interface: fit, test, cv, simulate.

A run is described by a JSON config document; every flag mirrors a config
key, a config file holds no other key, and flags override file values.  The
option table ``_OPTIONS`` is the one record of which flag sets which key, how
its value is read and which commands read it; a command accepts only the
flags it reads.  Exit codes: 0 success, 2 configuration error, 3 data error,
4 numerical failure or out of memory (a diagnostic JSON is printed on stderr
for the latter).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys
import warnings
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import studies
from .crossval import DEFAULT_DELTA_GRID, cross_validate, default_h_grid
from .data import Dataset
from .errors import (
    DataError,
    GvcplmError,
    ParameterError,
)
from .families import get_family
from .inference import glrt, make_constraint, sandwich_covariance
from .profile import FitConfig, fit as profile_fit
from .smoothing import SmoothingParams, fit_curve
from .studies import write_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4


def _names(value) -> list:
    """Comma-separated text (a flag) or a JSON list (a config file) as a list."""
    if isinstance(value, str):
        return [s.strip() for s in value.split(",") if s.strip()]
    return list(value)


def _floats(value) -> list:
    return [float(v) for v in _names(value)]


def _study(value) -> str:
    if value not in studies.STUDIES:
        raise ValueError(f"unknown study {value!r}; choose from {', '.join(studies.STUDIES)}")
    return value


class _Option(NamedTuple):
    flag: str
    key: str            # dotted config key; "config" names the config file itself
    parse: Callable     # flag text or config value -> config value; bool marks a switch
    commands: tuple     # the commands that read the key
    help: str


_ALL = ("fit", "test", "cv", "simulate")
_DATA = ("fit", "test", "cv")

_OPTIONS = (
    _Option("--config", "config", str, _ALL, "JSON config file; flags override it"),
    _Option("--data", "dataset", str, _DATA, "dataset CSV path"),
    _Option("--family", "family", str, _ALL, "gaussian | poisson | bernoulli"),
    _Option("--u", "columns.u", str, _DATA, "index column name"),
    _Option("--y", "columns.y", str, _DATA, "response column name"),
    _Option("--x", "columns.x", _names, _DATA, "comma-separated curve covariate columns"),
    _Option("--z", "columns.z", _names, _DATA, "comma-separated linear covariate columns"),
    _Option("--intercept", "intercept", bool, _DATA, "prepend a constant column to x"),
    _Option("--h", "smoothing.h", float, ("fit", "test", "simulate"),
            "bandwidth; without it fit and test choose (delta, h) by CV"),
    _Option("--delta", "smoothing.delta", float, _ALL,
            "transform offset; the CV delta axis when --delta-grid is unset"),
    _Option("--degree", "smoothing.degree", int, _DATA, "local polynomial degree"),
    _Option("--algorithm", "fit.algorithm", str, _DATA,
            "outer Newton variant: backfitting (backfit), accelerated (accel) or full"),
    _Option("--max-steps", "fit.max_steps", int, _DATA, "most outer Newton steps"),
    _Option("--tol", "fit.tol", float, _DATA, "outer Newton step tolerance"),
    _Option("--test", "test", str, ("test",), "constraint spec, e.g. 'z7=0,z8=0'"),
    _Option("--cv", "cv.k", int, _DATA, "number of CV folds"),
    _Option("--h-grid", "cv.h_grid", _floats, _DATA, "comma-separated CV bandwidth grid"),
    _Option("--delta-grid", "cv.delta_grid", _floats, _DATA,
            "comma-separated CV offset grid"),
    _Option("--out", "out", str, _ALL, "output directory"),
    _Option("--seed", "seed", int, _ALL, "seed of the CV folds or of the simulation"),
    _Option("--study", "simulate.study", _study, ("simulate",),
            " | ".join(studies.STUDIES)),
    _Option("--reps", "simulate.reps", int, ("simulate",), "number of replicates"),
    _Option("--n", "simulate.n", int, ("simulate",), "sample size"),
    _Option("--emit-csv", "simulate.emit_csv", bool, ("simulate",),
            "write the replicate datasets as CSV instead of running a study"),
    _Option("--use-cv", "simulate.use_cv", bool, ("simulate",),
            "choose (delta, h) by CV on the first replicate"),
)
_BY_KEY = {opt.key: opt for opt in _OPTIONS}
_BLOCKS = ("columns", "smoothing", "fit", "cv", "simulate")
# each (block, name) a config file may hold, block "" being the top level:
# the blocks, and every option's key but config, which names the file itself
_FILE_KEYS = {("", block) for block in _BLOCKS} | {
    tuple(opt.key.rpartition(".")[::2]) for opt in _OPTIONS if opt.key != "config"}


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# the JSON type a config file must give each option whose flag text is read
# by str, _names, int, float, bool or _floats, which would coerce 5 to "5",
# 1.5 to 1 or "no" to True
_JSON_TYPES = {
    str: ("a string", lambda v: isinstance(v, str)),
    _names: ("a string or a list of strings", lambda v: isinstance(v, str) or (
        isinstance(v, list) and all(isinstance(s, str) for s in v))),
    int: ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    float: ("a number", _number),
    bool: ("true or false", lambda v: isinstance(v, bool)),
    _floats: ("a list of numbers", lambda v: isinstance(v, list) and all(map(_number, v))),
}


def _parse(opt: _Option, value, name: str):
    """value read as opt says; ParameterError naming name (flag or key) if not."""
    try:
        return opt.parse(value)
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"{name}: cannot read {value!r} ({exc})") from None


def _read(cfg: dict, key: str):
    """The value of a dotted config key, read as its option says; None if unset."""
    block, _, name = key.rpartition(".")
    value = (cfg[block] if block else cfg).get(name)
    return None if value is None else _parse(_BY_KEY[key], value, key)


def _set(cfg: dict, **keys) -> dict:
    """{argument: value} for each argument whose config key is set."""
    values = {arg: _read(cfg, key) for arg, key in keys.items()}
    return {arg: value for arg, value in values.items() if value is not None}


def read_dataset_csv(path, u_col, y_col, x_cols, z_cols, intercept=False) -> Dataset:
    """Load a dataset from a headed CSV file.

    Missing or non-numeric values are rejected with their row number, and a
    column read here that the header names twice is rejected.  When
    intercept is true a leading column of ones is prepended to x.  A plain
    table of numbers is parsed in one pass (``_numeric_table``); any other
    file is read cell by cell, which names what is wrong with it.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"dataset file not found: {path}")
    with path.open(newline="", encoding="utf-8") as handle:
        try:
            header = next(csv.reader(handle))
        except StopIteration:
            raise DataError(f"{path}: empty file, header row required") from None
        text = handle.read()
    index = {name: k for k, name in enumerate(header)}
    needed = [u_col, y_col, *x_cols, *z_cols]
    for name in needed:
        if name not in index:
            raise DataError(f"{path}: column {name!r} not found in header")
        if header.count(name) > 1:
            raise DataError(f"{path}: column {name!r} appears more than once in header")
    table = _numeric_table(text, len(header))
    if table is not None:
        parsed = {name: table[:, index[name]].copy() for name in needed}
    else:
        parsed = _parse_cells(path, text, header, index, needed)
    n_rows = parsed[u_col].shape[0]
    x = np.column_stack([parsed[c] for c in x_cols])
    x_names = list(x_cols)
    if intercept:
        x = np.column_stack([np.ones(n_rows), x])
        x_names = ["(intercept)", *x_names]
    z = np.column_stack([parsed[c] for c in z_cols])
    return Dataset(
        u=parsed[u_col], x=x, z=z, y=parsed[y_col],
        x_names=tuple(x_names), z_names=tuple(z_cols),
    )


def _numeric_table(text: str, n_fields: int):
    """The data rows of a CSV file, text, as one (rows, n_fields) float array
    parsed by ``np.loadtxt`` in one C pass, or None when text is not a plain
    table of numbers.

    loadtxt skips blank lines, which the cell-by-cell reader reports as short
    rows, so a table with fewer rows than text has line ends (\\r\\n, \\n or
    \\r, as csv reads them) is not taken; a quoted cell, a cell that is not a
    number, a row of another length and a file without rows make loadtxt
    fail, and are not taken either.  Both parsers round correctly, so a taken
    table holds the values the cell-by-cell reader would read.
    """
    records = text.count("\n") + text.count("\r") - text.count("\r\n") \
        + (not text.endswith(("\n", "\r")))
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)   # loadtxt warns on no rows
        try:
            table = np.loadtxt(io.StringIO(text), delimiter=",", comments=None, ndmin=2)
        except (ValueError, UserWarning):
            return None
    return table if table.shape == (records, n_fields) else None


def _parse_cells(path, text: str, header, index, needed) -> dict:
    """The needed columns of a CSV file's data rows, text, read cell by cell,
    with a DataError naming the first row or cell that is not a number."""
    rows = list(csv.reader(io.StringIO(text, newline="")))
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
    return parsed


def _column_names(data: Dataset) -> tuple:
    """The x and z column labels: the dataset's, or x1.., z1.. where it has none."""
    return (list(data.x_names or [f"x{j + 1}" for j in range(data.n_curves)]),
            list(data.z_names or [f"z{j + 1}" for j in range(data.n_linear)]))


def write_dataset_csv(path, data: Dataset) -> None:
    """Write a dataset with exact float round-trip (repr formatting)."""
    x_names, z_names = _column_names(data)
    write_csv(path, ["u", *x_names, *z_names, "y"],
              np.column_stack([data.u, data.x, data.z, data.y]))


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
        try:
            zero = float(value) == 0.0
        except ValueError:
            raise ParameterError(f"constraint value in {clause!r} must be a number, "
                                 f"got {value!r}") from None
        if not zero:
            raise ParameterError("only zero constraints are supported")
        if name not in names:
            raise ParameterError(f"constraint names unknown column {name!r}")
        row = np.zeros(len(names))
        row[names.index(name)] = 1.0
        rows.append(row)
    if not rows:
        raise ParameterError(f"no constraint rows parsed from {spec!r}")
    return np.vstack(rows)


def _load(cfg: dict) -> tuple:
    """The run's family and dataset, with the response checked against the family."""
    family = get_family(_read(cfg, "family"))
    cols = {key: _read(cfg, f"columns.{key}") for key in ("u", "y", "x", "z")}
    for key, value in cols.items():
        if not value:
            raise ParameterError(f"config names no columns.{key}")
    roles = [cols["u"], cols["y"], *cols["x"], *cols["z"]]
    if len(set(roles)) != len(roles):
        raise ParameterError("column roles overlap; u, y, x, z must be disjoint")
    path = _read(cfg, "dataset")
    if path is None:
        raise ParameterError("config is missing the dataset path")
    data = read_dataset_csv(path, cols["u"], cols["y"], cols["x"], cols["z"],
                            intercept=bool(_read(cfg, "intercept")))
    family.validate_response(data.y)
    return family, data


def _fit_config(cfg: dict, h: float) -> FitConfig:
    """The run's fit settings at bandwidth h: the config keys that are set, and
    the defaults of FitConfig and SmoothingParams for the rest."""
    smoothing = SmoothingParams(h=h, **_set(cfg, delta="smoothing.delta",
                                            degree="smoothing.degree"))
    return FitConfig(smoothing, **_set(cfg, algorithm="fit.algorithm",
                                       max_steps="fit.max_steps", step_tol="fit.tol"))


def _cross_validate(cfg: dict, family, data: Dataset):
    """Cross-validate the run's (delta, h) grid with the run's fit settings.

    Each axis comes from its grid key (cv.delta_grid, cv.h_grid).  Failing
    that, the delta axis is smoothing.delta.  Failing both, each axis is the
    one default_smoothing_grid uses.
    """
    deltas = _read(cfg, "cv.delta_grid") or [_read(cfg, "smoothing.delta")]
    if deltas == [None] and family.needs_delta:
        deltas = DEFAULT_DELTA_GRID
    hs = _read(cfg, "cv.h_grid") or default_h_grid(data)
    grid = [(d, float(h)) for d in deltas for h in hs]
    return cross_validate(family, data, grid=grid, config=_fit_config(cfg, grid[0][1]),
                          **_set(cfg, k="cv.k", seed="seed"))


def _run_config(cfg: dict, family, data: Dataset) -> FitConfig:
    """fit and test: the run's FitConfig; without smoothing.h, at the best
    cell of _cross_validate."""
    h = _read(cfg, "smoothing.h")
    if h is not None:
        return _fit_config(cfg, h)
    best = _cross_validate(cfg, family, data).best
    return dataclasses.replace(_fit_config(cfg, best.h), smoothing=best)


def _out_dir(cfg: dict) -> Path:
    out = Path(_read(cfg, "out") or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _json_dump(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2, default=float) + "\n",
                    encoding="utf-8")


def _wald_p_values(zscores) -> list:
    """Two-sided normal p-values 2 Phi(-|z|) = erfc(|z| / sqrt 2); NaN stays NaN."""
    return [math.erfc(abs(z) / math.sqrt(2.0)) for z in zscores]


def _fit_payload(family, data, result, cov) -> dict:
    _, z_names = _column_names(data)
    beta = result.beta
    se = cov.se
    zscores = beta / np.where(se > 0, se, np.nan)
    pvals = _wald_p_values(zscores)
    return {
        "family": family.name,
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


def _write_curve_csv(path: Path, data, curve) -> None:
    x_names, _ = _column_names(data)
    write_csv(path, ["grid_u", *(f"alpha_{name}_hat" for name in x_names)],
              np.column_stack([curve.grid, curve.values]))


def _standardized_residuals(result) -> np.ndarray:
    """Pearson residuals (y - mu) / sqrt(V(mu)) at the fitted linear predictor;
    for a canonical link these are q_1 / sqrt(-q_2) of the fit's final state."""
    return result.state.q1 / np.sqrt(np.clip(-result.state.q2, 1e-300, None))


def _cmd_fit(cfg: dict) -> int:
    family, data = _load(cfg)
    config = _run_config(cfg, family, data)
    result = profile_fit(family, data, config)
    curve = fit_curve(family, data, result.beta, config.smoothing)
    cov = sandwich_covariance(result)
    out = _out_dir(cfg)
    payload = _fit_payload(family, data, result, cov)
    smoothing = config.smoothing
    payload["smoothing"] = {"h": smoothing.h, "delta": smoothing.delta,
                            "degree": smoothing.degree}
    payload["standardized_residuals"] = [
        float(r) for r in _standardized_residuals(result)
    ]
    _json_dump(out / "fit_report.json", payload)
    _write_curve_csv(out / "curve.csv", data, curve)
    return EXIT_OK


def _cmd_test(cfg: dict) -> int:
    family, data = _load(cfg)
    spec = _read(cfg, "test")
    if not spec:
        raise ParameterError("test command requires a constraint, e.g. "
                             "--test 'z7=0,z8=0'")
    constraint = make_constraint(_parse_constraint(spec, _column_names(data)[1]))
    config = _run_config(cfg, family, data)
    fit_alt = profile_fit(family, data, config)
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
        "constraint": spec,
    }
    _json_dump(out / "test_report.json", payload)
    return EXIT_OK


def _cmd_cv(cfg: dict) -> int:
    family, data = _load(cfg)
    report = _cross_validate(cfg, family, data)
    out = _out_dir(cfg)
    _json_dump(out / "cv_report.json", {
        "best": {"h": report.best.h, "delta": report.best.delta},
        "seed": report.fold_assignment_seed,
        "cells": [
            {"delta": d, "h": h, "score": None if report.failed[i] else float(report.scores[i]),
             "failed": bool(report.failed[i]), "reason": report.reasons[i]}
            for i, (d, h) in enumerate(report.grid)
        ],
    })
    write_csv(out / "cv_scores.csv", ["delta", "h", "score", "failed"],
              [(d, h, report.scores[i], report.failed[i])
               for i, (d, h) in enumerate(report.grid)])
    return EXIT_OK


def _cmd_simulate(cfg: dict) -> int:
    out = _out_dir(cfg)
    run = _set(cfg, family="family", n="simulate.n", seed="seed", reps="simulate.reps")
    if run.get("reps", 1) < 1:
        raise ParameterError(f"simulate.reps: must be at least 1, got {run['reps']}")
    if _read(cfg, "simulate.emit_csv"):
        from .simulate import generate, make_design, replicate_seed

        design = make_design(run.get("family", "poisson"), run.get("n", 200))
        for rep in range(run.get("reps", 1)):
            data = generate(design, replicate_seed(run.get("seed", 0), rep))
            write_dataset_csv(out / f"dataset_rep{rep:03d}.csv", data)
        return EXIT_OK
    studies.run_table(_read(cfg, "simulate.study") or "table2", out_dir=out, **run,
                      **_set(cfg, use_cv="simulate.use_cv", h="smoothing.h",
                             delta="smoothing.delta"))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gvcplm",
        description="Profile quasi-likelihood fits, tests, cross-validation "
                    "and simulation studies for varying-coefficient "
                    "partially linear models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _ALL:
        p = sub.add_parser(name)
        for opt in _OPTIONS:
            if name in opt.commands:
                switch = {"action": "store_true", "default": None} if opt.parse is bool else {}
                p.add_argument(opt.flag, dest=opt.key, help=opt.help, **switch)
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
    if not isinstance(cfg, dict):
        raise ParameterError("config file must hold a JSON object")
    for block in _BLOCKS:
        if not isinstance(cfg.setdefault(block, {}), dict):
            raise ParameterError(f"config block {block!r} must be a JSON object")
    for block in ("", *_BLOCKS):
        for name in cfg[block] if block else cfg:
            if (block, name) not in _FILE_KEYS:
                key = f"{block}.{name}" if block else name
                raise ParameterError(f"unknown config key {key!r}")
    for opt in _OPTIONS:
        if opt.key == "config":   # names the file itself, not a key in it
            continue
        block, _, name = opt.key.rpartition(".")
        section = cfg[block] if block else cfg
        value = getattr(args, opt.key, None)
        if value is not None:
            section[name] = _parse(opt, value, opt.flag)
        elif section.get(name) is not None and opt.parse in _JSON_TYPES:
            what, valid = _JSON_TYPES[opt.parse]
            if not valid(section[name]):
                raise ParameterError(f"{opt.key}: expected {what}, got "
                                     f"{json.dumps(section[name])}")
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
