"""Workloads of the benchmark: inputs made from a seed, one round of user
commands, and the correctness checks of the round's outputs.

Every workload drives the program only through its public entry points,
``gvcplm.cli.main`` and ``gvcplm.run_table``.  The datasets are drawn here,
from the simulation designs documented in ``gvcplm.simulate``, with this
module's own generator: the program receives only the CSV files (or, for the
studies, the master seed that ``run_table`` takes as an argument).

An operation is one CLI invocation (``cli-poisson-n1500``), one CV cell
(``cv-bernoulli-n400``) or one replicate (``study-bernoulli-n200``).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import gvcplm
from gvcplm import cli

import checks

POISSON_BETA = (0.5, 0.3, -0.5, 1.0, 0.1, -0.25)
BERNOULLI_BETA = (3.0, 1.0, -2.0, 0.5, 2.0, -2.0)

# (delta, h) recorded in gvcplm.simulate.PRESET_H / PRESET_DELTA for the
# benchmark designs; copied so that a change there does not change the inputs
PRESET = {
    ("poisson", 200): (0.1, 0.1),
    ("poisson", 400): (0.1, 0.08),
    ("poisson", 800): (0.1, 0.075),
    ("poisson", 1500): (0.1, 0.06),
    ("bernoulli", 200): (0.005, 0.45),
    ("bernoulli", 400): (0.005, 0.4),
    ("bernoulli", 800): (0.005, 0.25),
    ("bernoulli", 1500): (0.005, 0.18),
}

CV_H_GRID = (0.15, 0.2, 0.3, 0.4, 0.6)
CV_DELTA_GRID = (0.005, 0.05)
STUDY_REPS = 20
STUDY_NAMES = ("table4", "fig1_null")


def parametric_dimension(n: int) -> int:
    """floor(1.8 n^(1/3)), the growing dimension of beta in both designs."""
    return int(math.floor(1.8 * float(n) ** (1.0 / 3.0) + 1e-9))


class Inputs:
    """One dataset of a simulation design, held as arrays and as a CSV file.

    u ~ U(0, 1); (z, x2) jointly normal with covariance 0.5^|i-j|, z first;
    x1 = 1.  Poisson: log mu = 4 + sin(2 pi u) + 2u(1-u) x2 + z'beta.
    Bernoulli: logit p = 2(u^3 + 2u^2 - 2u) + 2 cos(2 pi u) x2 + z'beta.
    """

    def __init__(self, family: str, n: int, seed):
        self.family, self.n = family, n
        p = parametric_dimension(n)
        head = POISSON_BETA if family == "poisson" else BERNOULLI_BETA
        self.beta0 = np.concatenate([head, np.zeros(p - len(head))])
        rng = np.random.default_rng(seed)
        u = rng.uniform(0.0, 1.0, size=n)
        cov = 0.5 ** np.abs(np.subtract.outer(np.arange(p + 1), np.arange(p + 1)))
        zx = rng.standard_normal((n, p + 1)) @ np.linalg.cholesky(cov).T
        z, x2 = zx[:, :p], zx[:, p]
        if family == "poisson":
            lp = 4.0 + np.sin(2 * np.pi * u) + 2 * u * (1 - u) * x2 + z @ self.beta0
            y = rng.poisson(np.exp(lp)).astype(float)
        else:
            lp = (2 * (u ** 3 + 2 * u ** 2 - 2 * u) + 2 * np.cos(2 * np.pi * u) * x2
                  + z @ self.beta0)
            y = (rng.uniform(size=n) < 1.0 / (1.0 + np.exp(-lp))).astype(float)
        self.u, self.x, self.z, self.y = u, np.column_stack([np.ones(n), x2]), z, y
        self.z_names = [f"z{j + 1}" for j in range(p)]

    def write_csv(self, path: Path) -> None:
        header = ["u", "x1", "x2", *self.z_names, "y"]
        table = np.column_stack([self.u, self.x, self.z, self.y])
        lines = [",".join(header)]
        lines += [",".join(repr(float(v)) for v in row) for row in table]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def cli_args(self, csv: Path) -> list:
        return ["--data", str(csv), "--family", self.family, "--u", "u", "--y", "y",
                "--x", "x1,x2", "--z", ",".join(self.z_names)]


class _CsvWorkload:
    """CLI commands on each of two CSVs drawn from the seed.  Two datasets
    halve the part of the run-to-run spread that comes from how many Newton
    iterations one dataset needs."""

    datasets = 2

    def __init__(self, seed: int, workdir: Path):
        self.seed, self.workdir = seed, workdir
        workdir.mkdir(parents=True, exist_ok=True)

    def prepare(self) -> None:
        self.inputs, self.argv = [], []
        for k in range(self.datasets):
            inputs = Inputs(self.family, self.n, [self.seed, k])
            csv = self.workdir / f"data{k}.csv"
            inputs.write_csv(csv)
            self.inputs.append(inputs)
            self.argv.append(self._commands(inputs, csv, self.workdir / f"out{k}"))

    def warm_up(self) -> None:
        small = Inputs(self.family, 200, self.seed)
        csv = self.workdir / "warm.csv"
        small.write_csv(csv)
        for argv in self._commands(small, csv, self.workdir / "warm", warm=True):
            cli.main(argv)


class CliWorkload(_CsvWorkload):
    """``gvcplm fit`` and ``gvcplm test --test z7=0,...,zp=0`` per CSV."""

    family, n = "poisson", 1500

    def _commands(self, inputs: Inputs, csv: Path, out: Path, warm=False):
        delta, h = PRESET[(inputs.family, inputs.n)]
        common = [*inputs.cli_args(csv), "--h", repr(h), "--delta", repr(delta),
                  "--out", str(out)]
        nulls = ",".join(f"{name}=0" for name in inputs.z_names[6:])
        return ["fit", *common], ["test", *common, "--test", nulls]

    def operations(self):
        return [(f"cli.{argv[0]}", 1, lambda argv=argv: (1, int(cli.main(argv) != 0)))
                for commands in self.argv for argv in commands]

    def outputs(self) -> dict:
        return {f"{k}/{name}": (self.workdir / f"out{k}" / name).read_text(encoding="utf-8")
                for k in range(self.datasets)
                for name in ("fit_report.json", "curve.csv", "test_report.json")}

    def check(self, outputs: dict) -> None:
        _, h = PRESET[(self.family, self.n)]
        for k, inputs in enumerate(self.inputs):
            fit_report = json.loads(outputs[f"{k}/fit_report.json"])
            test_report = json.loads(outputs[f"{k}/test_report.json"])
            curve = checks.read_curve_csv(outputs[f"{k}/curve.csv"])
            checks.check_curve(inputs, h, fit_report, curve)
            checks.check_profile_loglik(inputs, h, fit_report)
            checks.check_wald(fit_report["coefficients"])
            checks.check_within_5se(fit_report["coefficients"], inputs.beta0)
            checks.check_test(inputs, h, test_report, first_null=6)
            checks.check_wald(test_report["coefficients"])


class CvWorkload(_CsvWorkload):
    """``gvcplm cv`` over a 2 delta x 5 h grid with 5 folds per CSV."""

    family, n = "bernoulli", 400

    @property
    def n_cells(self) -> int:
        return len(CV_H_GRID) * len(CV_DELTA_GRID)

    def _commands(self, inputs, csv, out, warm=False):
        h_grid, delta_grid = ((0.45,), (0.005,)) if warm else (CV_H_GRID, CV_DELTA_GRID)
        return (["cv", *inputs.cli_args(csv), "--cv", "5",
                 "--h-grid", ",".join(map(repr, h_grid)),
                 "--delta-grid", ",".join(map(repr, delta_grid)), "--out", str(out)],)

    def operations(self):
        return [("cli.cv", self.n_cells, lambda k=k: self._cv(k))
                for k in range(self.datasets)]

    def _report(self, k: int) -> Path:
        return self.workdir / f"out{k}" / "cv_report.json"

    def _cv(self, k: int):
        self._report(k).unlink(missing_ok=True)
        if cli.main(self.argv[k][0]) != 0:
            return self.n_cells, self.n_cells
        cells = json.loads(self._report(k).read_text(encoding="utf-8"))["cells"]
        return len(cells), sum(bool(c["failed"]) for c in cells)

    def outputs(self) -> dict:
        return {f"cv_report{k}.json": self._report(k).read_text(encoding="utf-8")
                for k in range(self.datasets)}

    def check(self, outputs: dict) -> None:
        for k, inputs in enumerate(self.inputs):
            report = json.loads(outputs[f"cv_report{k}.json"])
            checks.check_cv_cells(report, self.n_cells)
            checks.check_cv_best(report)
            checks.check_cv_isolation(inputs, report)


class StudyWorkload:
    """``run_table("table4")`` and ``run_table("fig1_null")``, bernoulli n=200."""

    family, n = "bernoulli", 200

    def __init__(self, seed: int, workdir: Path):
        self.seed, self.workdir = seed, workdir
        self.reports = {}

    def prepare(self) -> None:
        pass

    def warm_up(self) -> None:
        for study in STUDY_NAMES:
            gvcplm.run_table(study, reps=2, seed=self.seed, family=self.family, n=self.n)

    def operations(self):
        return [(f"studies.{study}", STUDY_REPS, lambda study=study: self._study(study))
                for study in STUDY_NAMES]

    def _study(self, study):
        try:
            report = gvcplm.run_table(study, reps=STUDY_REPS, seed=self.seed,
                                      family=self.family, n=self.n)
        except gvcplm.GvcplmError:
            return STUDY_REPS, STUDY_REPS
        self.reports[study] = report
        return report["reps"], report["n_failures"]

    def outputs(self) -> dict:
        keep = ("reps", "n_failures", "summary", "replicates")
        return {study: json.dumps({k: self.reports[study][k] for k in keep},
                                  sort_keys=True, default=float)
                for study in STUDY_NAMES}

    def check(self, outputs: dict) -> None:
        table4 = json.loads(outputs["table4"])
        fig1 = json.loads(outputs["fig1_null"])
        checks.check_study_failures(table4)
        checks.check_study_failures(fig1)
        checks.check_study_p_values(fig1)
        checks.check_study_mc_sd(table4)


WORKLOADS = {
    "cli-poisson-n1500": CliWorkload,
    "cv-bernoulli-n400": CvWorkload,
    "study-bernoulli-n200": StudyWorkload,
}
