"""Self-test of the benchmark's correctness checks.

    python3 bench/selftest.py

Produces real outputs of every workload at small sizes (poisson n=200
fit/test, a 2-cell bernoulli CV at n=200, 3-replicate studies), shows that
each check passes on them, and then that each check fails on a deliberately
perturbed copy.  Exits 1 if a check rejects a real output or accepts a
perturbed one.
"""

import copy
import json
import os
import shutil
import sys

import run  # pins BLAS threads before numpy is imported

run.import_paths()

import checks  # noqa: E402
import workloads  # noqa: E402


def cli_outputs(workdir):
    w = workloads.CliWorkload(seed=11, workdir=workdir)
    w.n, w.datasets = 200, 1
    w.prepare()
    for _, _, op in w.operations():
        op()
    out = w.outputs()
    h = workloads.PRESET[(w.family, w.n)][1]
    return w.inputs[0], h, json.loads(out["0/fit_report.json"]), \
        json.loads(out["0/test_report.json"]), checks.read_curve_csv(out["0/curve.csv"])


def cv_outputs(workdir):
    workloads.CV_H_GRID, workloads.CV_DELTA_GRID = (0.45, 0.6), (0.005,)
    w = workloads.CvWorkload(seed=11, workdir=workdir)
    w.n, w.datasets = 200, 1
    w.prepare()
    w.operations()[0][2]()
    return w, json.loads(w.outputs()["cv_report0.json"])


def study_outputs(workdir):
    workloads.STUDY_REPS = 3
    w = workloads.StudyWorkload(seed=11, workdir=workdir)
    for _, _, op in w.operations():
        op()
    return {k: json.loads(v) for k, v in w.outputs().items()}


def perturbed(obj, edit):
    obj = copy.deepcopy(obj)
    edit(obj)
    return obj


def main() -> int:
    workdir = run.OUT / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        inputs, h, fit, test, curve = cli_outputs(workdir / "cli")
        cv_w, cv = cv_outputs(workdir / "cv")
        study = study_outputs(workdir / "study")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    beta0 = inputs.beta0
    z7 = fit["coefficients"]["z7"]
    top_p = max(fit["coefficients"], key=lambda name: fit["coefficients"][name]["p"])
    low = min(cv["cells"], key=lambda c: c["score"])
    rerun = checks.cv_one_cell(cv_w.inputs[0], (cv["best"]["delta"], cv["best"]["h"]))

    def bump_curve(c):
        c["values"][37, 0] += 1e-4

    def move_best(r):
        r["best"] = {"h": low["h"], "delta": low["delta"]}

    def shift_score(r):
        best = next(c for c in r["cells"] if c["h"] == r["best"]["h"]
                    and c["delta"] == r["best"]["delta"])
        best["score"] *= 1 + 1e-6

    cases = [
        ("curve.csv at sampled grid points", "one alpha value + 1e-4",
         lambda c: checks.check_curve(inputs, h, fit, c), curve, bump_curve),
        ("reported profile_loglik", "profile_loglik * (1 + 1e-7)",
         lambda r: checks.check_profile_loglik(inputs, h, r), fit,
         lambda r: r.update(profile_loglik=r["profile_loglik"] * (1 + 1e-7))),
        ("Wald p-values", f"p of {top_p} * (1 + 1e-6)",
         lambda r: checks.check_wald(r["coefficients"]), fit,
         lambda r: r["coefficients"][top_p].update(p=r["coefficients"][top_p]["p"] * (1 + 1e-6))),
        ("|beta_hat - beta_0| <= 5 SE", "z7 estimate set to beta_0 + 6 SE",
         lambda r: checks.check_within_5se(r["coefficients"], beta0), fit,
         lambda r: r["coefficients"]["z7"].update(estimate=beta0[6] + 6 * z7["se"])),
        ("T = 2 (l_alt - l_null)", "statistic + 0.01",
         lambda r: checks.check_test(inputs, h, r, 6), test,
         lambda r: r.update(statistic=r["statistic"] + 0.01)),
        ("T >= 0", "statistic set to -1",
         lambda r: checks.check_test(inputs, h, r, 6), test,
         lambda r: r.update(statistic=-1.0)),
        ("beta_null coordinates 7..p are zero", "beta_null[6] = 1e-6",
         lambda r: checks.check_test(inputs, h, r, 6), test,
         lambda r: r["beta_null"].__setitem__(6, 1e-6)),
        ("p = chi2.sf(T, df)", "p_value * (1 + 1e-6)",
         lambda r: checks.check_test(inputs, h, r, 6), test,
         lambda r: r.update(p_value=r["p_value"] * (1 + 1e-6))),
        ("every CV cell scored", "first cell marked failed",
         lambda r: checks.check_cv_cells(r, cv_w.n_cells), cv,
         lambda r: r["cells"][0].update(failed=True, score=None)),
        ("CV best is the argmax", "best moved to the lowest-scoring cell",
         checks.check_cv_best, cv, move_best),
        ("CV score matches a one-cell rerun", "best cell's score * (1 + 1e-6)",
         lambda r: checks.check_cv_isolation(cv_w.inputs[0], r), cv, shift_score),
        ("fold beta unchanged by its held-out y", "beta from another training set",
         lambda b: checks.compare_fold_betas(rerun.fold_betas[0][0], b),
         rerun.fold_betas[0][0], lambda b: b.__setitem__(slice(None), rerun.fold_betas[0][1])),
        ("zero study failures", "n_failures = 1",
         checks.check_study_failures, study["table4"], lambda r: r.update(n_failures=1)),
        ("study p_value = chi2.sf(t_stat, df)", "one p_value * 1.001",
         checks.check_study_p_values, study["fig1_null"],
         lambda r: r["replicates"][1].update(p_value=r["replicates"][1]["p_value"] * 1.001)),
        ("summary mc_sd = SD of row betas", "beta_3 mc_sd * (1 + 1e-6)",
         checks.check_study_mc_sd, study["table4"],
         lambda r: r["summary"]["beta_3"].update(mc_sd=r["summary"]["beta_3"]["mc_sd"] * (1 + 1e-6))),
        ("rounds give identical outputs", "second round's report differs",
         checks.check_rounds_identical, [{"r": "a"}, {"r": "a"}],
         lambda outs: outs[1].update(r="b")),
    ]
    ok = True
    for name, perturbation, check, real, edit in cases:
        bad = perturbed(real, edit)
        passes_real = _passes(check, real)
        catches = not _passes(check, bad)
        ok &= passes_real and catches
        print(f"{'ok  ' if passes_real and catches else 'FAIL'} {name}: real output "
              f"{'passes' if passes_real else 'FAILS'}; {perturbation}: "
              f"{'caught' if catches else 'NOT caught'}")
    return 0 if ok else 1


def _passes(check, value) -> bool:
    try:
        check(value)
    except checks.CheckFailed:
        return False
    return True


if __name__ == "__main__":
    sys.exit(main())
