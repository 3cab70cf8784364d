"""Benchmark runner for gvcplm.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  One process drives the program in a closed loop: a round runs the
workload's commands one after another, and rounds repeat until ``--seconds``
have passed (at least one round).  Every round of a run has the same inputs.

With ``--trace 0`` the program runs unmodified and the last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}`` with the
end-to-end metrics:

* ``setup_s``  median of three set-ups (this process and two child
  processes): importing the program, drawing the inputs, writing the CSV and
  one warm-up round on small inputs, which also pays lazy imports such as
  ``scipy.stats`` on the study path;
* ``round_s``  median wall time of one round;
* ``peak_mb``  peak resident memory of this process (``ru_maxrss``), which
  costs the timed rounds nothing.

With ``--trace 1`` untraced and traced rounds alternate, and the metrics are
the per-layer figures of the traced rounds (see ``tracing.py``) together with
the tracing overhead.  Correctness checks (``checks.py``) run after the timed
rounds.  BLAS runs on one thread: OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS are set to 1 before numpy is imported.

``python3 bench/selftest.py`` shows each check failing on a perturbed output;
``python3 bench/reference.py`` prints per-layer reference figures.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 120


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def import_paths() -> None:
    """Put the checkout's src/ and this directory first on sys.path."""
    if not (ROOT / "src" / "gvcplm" / "__init__.py").is_file():
        raise SystemExit(f"bench: no program source at {ROOT / 'src' / 'gvcplm'}; "
                         "run from the root of a gvcplm checkout")
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]


def set_up(name: str, seed: int, workdir: Path):
    """Import the program, make the inputs and warm up; returns the workload
    and the seconds it took."""
    t0 = time.perf_counter()
    import gvcplm
    import workloads

    if not Path(gvcplm.__file__).resolve().is_relative_to((ROOT / "src").resolve()):
        raise SystemExit(f"bench: imported gvcplm from {gvcplm.__file__}, not {ROOT / 'src'}")
    workload = workloads.WORKLOADS[name](seed, workdir)
    workload.prepare()
    workload.warm_up()
    return workload, time.perf_counter() - t0


def child_set_up(name: str, seed: int) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"set-up child failed ({done.returncode}): {done.stderr[-2000:]}")
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def run_round(workload, rec=None, round_id=None):
    """One round of the workload's operations: (seconds, attempted, failed)."""
    attempted = failed = 0
    t0 = time.perf_counter()
    for label, size, op in workload.operations():
        try:
            if rec is None:
                a, f = op()
            else:
                rec.round = round_id
                with rec.span(label) as span:
                    a, f = op()
                rec.add(f"{label}_s", span["end"] - span["start"])
        except Exception:  # an operation that crashes counts as failed
            log(f"bench: operation {label} raised:\n{traceback.format_exc()}")
            a, f = size, size
        attempted += a
        failed += f
    return time.perf_counter() - t0, attempted, failed


def measure(workload, seconds: float, trace: bool):
    """Run rounds for ``seconds``; with trace, untraced and traced rounds
    alternate.  Returns a dict of round times, counts, outputs and recorder."""
    import tracing

    res = {"plain": [], "traced": [], "attempted": 0, "failed": 0,
           "outputs": [], "rec": tracing.Recorder() if trace else None}
    start = time.perf_counter()
    while True:
        for traced in ((False, True) if trace else (False,)):
            uninstall = tracing.install(res["rec"]) if traced else None
            try:
                rid = len(res["traced"]) if traced else None
                wall, a, f = run_round(workload, res["rec"] if traced else None, rid)
            finally:
                if uninstall:
                    uninstall()
            res["traced" if traced else "plain"].append(wall)
            res["attempted"] += a
            res["failed"] += f
            res["outputs"].append(workload.outputs())
        if time.perf_counter() - start >= seconds:
            return res


def verify(workload, outputs) -> list:
    """Run the correctness checks; returns the reasons of the failed ones."""
    import checks

    problems = []
    for check in (lambda: checks.check_rounds_identical(outputs),
                  lambda: workload.check(outputs[0])):
        try:
            check()
        except checks.CheckFailed as exc:
            problems.append(str(exc))
    return problems


def _fmt(values) -> str:
    return "[" + ", ".join(f"{v:.3f}" for v in values) + "]"


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up, print {\"setup_s\": ...} and exit")
    args = parser.parse_args(argv)
    names = [w["name"] for w in spec()["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(names)}")
    import_paths()
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        workload, first_setup = set_up(args.workload, args.seed, workdir)
        if args.setup_only:
            print(json.dumps({"setup_s": first_setup}))
            return 0
        setups = [first_setup] + [child_set_up(args.workload, args.seed)
                                  for _ in range(SETUP_SAMPLES - 1)]
        res = measure(workload, args.seconds, bool(args.trace))
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        problems = verify(workload, res["outputs"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        log(f"bench: check failed: {problem}")

    if args.trace:
        metrics = trace_metrics(res, args)
    else:
        units = {m["name"]: m["unit"] for m in spec()["end_to_end"]}
        values = {"setup_s": statistics.median(setups),
                  "round_s": statistics.median(res["plain"]), "peak_mb": peak_mb}
        metrics = {name: metric(values[name], units[name]) for name in units}
    log(f"bench: {args.workload} seed {args.seed}: set-ups {_fmt(setups)} s, "
        f"plain rounds {_fmt(res['plain'])} s, traced rounds {_fmt(res['traced'])} s")
    print(json.dumps({"correct": not problems, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


def trace_metrics(res, args) -> dict:
    rec = res["rec"]
    units = {m["name"]: m["unit"] for m in spec()["per_layer"]}
    rounds = len(res["traced"])
    values = rec.layer_metrics(rounds, [n for n in units if not n.startswith("trace.")])
    traced, plain = statistics.median(res["traced"]), statistics.median(res["plain"])
    values["trace.round_s"] = traced
    values["trace.untraced_round_s"] = plain
    values["trace.overhead_pct"] = 100.0 * (traced - plain) / plain
    for name, reason in sorted(rec.absent.items()):
        log(f"bench: per-layer metric {name} absent: {reason}")
    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    spans_file.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                      "spans": rec.spans, "sums": rec.sums,
                                      "absent": rec.absent}) + "\n", encoding="utf-8")
    return {name: metric(values[name], units[name]) for name in units if name in values}


if __name__ == "__main__":
    sys.exit(main())
