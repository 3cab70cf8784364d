"""Per-layer reference figures of ``gvcplm fit`` for both families.

    python3 bench/reference.py [--seed N] [--sizes 200,400,800,1500]

For each family and n, a child process draws one dataset of the simulation
design (``workloads.Inputs``), runs ``gvcplm fit`` with the preset (delta, h)
once untraced and once traced, and reports the per-layer figures of the
traced fit.  ``peak_mb`` is the child's peak resident memory (both fits); ``nonzero`` is
the share of (evaluation point, observation) pairs inside the kernel window,
i.e. the share of the dense (m, n) weights that are not zero.  Prints a
markdown table.
"""

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time

import run  # pins BLAS threads before numpy is imported

COLUMNS = (
    ("fit_s", "fit s"),
    ("cli.fit_s", "traced fit s"),
    ("smoothing.fitter_builds", "builds"),
    ("smoothing.build_s", "build s"),
    ("smoothing.solve_cold_s", "cold solve s"),
    ("smoothing.solve_warm_s", "warm solve s"),
    ("smoothing.alpha_prime_s", "alpha' s"),
    ("dbe.fit_s", "DBE s"),
    ("inference.sandwich_s", "sandwich s"),
    ("smoothing.solve_peak_mb", "solve MB"),
    ("peak_mb", "peak MB"),
    ("nonzero", "nonzero"),
)


def one(family: str, n: int, seed: int) -> dict:
    run.import_paths()
    import numpy as np

    import tracing
    import workloads
    from gvcplm import cli

    workdir = run.OUT / f"reference-{os.getpid()}"
    w = workloads.CliWorkload(seed, workdir)
    w.family, w.n, w.datasets = family, n, 1
    try:
        w.prepare()
        fit_argv = w.argv[0][0]
        t0 = time.perf_counter()
        cli.main(fit_argv)
        fit_s = time.perf_counter() - t0
        rec = tracing.Recorder()
        uninstall = tracing.install(rec)
        try:
            with rec.span("cli.fit") as span:
                cli.main(fit_argv)
        finally:
            uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    h = workloads.PRESET[(family, n)][1]
    u = w.inputs[0].u
    values = rec.layer_metrics(1, [name for name, _ in COLUMNS[2:-2]])
    values.update({"fit_s": fit_s, "cli.fit_s": span["end"] - span["start"],
                   "nonzero": float(np.mean(np.abs(u[:, None] - u[None, :]) < h)),
                   "peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0})
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--sizes", default="200,400,800,1500")
    parser.add_argument("--one", nargs=2, metavar=("FAMILY", "N"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.one:
        print(json.dumps(one(args.one[0], int(args.one[1]), args.seed)))
        return 0
    print("| family | n | " + " | ".join(label for _, label in COLUMNS) + " |")
    print("|---" * (len(COLUMNS) + 2) + "|")
    for family in ("poisson", "bernoulli"):
        for n in (int(s) for s in args.sizes.split(",")):
            child = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--one", family, str(n),
                 "--seed", str(args.seed)], cwd=run.ROOT, stdout=subprocess.PIPE,
                text=True, check=False)
            if child.returncode != 0:
                print(f"| {family} | {n} | failed with exit code {child.returncode} |")
                continue
            values = json.loads(child.stdout.strip().splitlines()[-1])
            cells = [f"{values[key]:.3g}" if key in values else "absent" for key, _ in COLUMNS]
            print(f"| {family} | {n} | " + " | ".join(cells) + " |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
