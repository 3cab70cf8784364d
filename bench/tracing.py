"""Per-layer tracing of the program, installed from the benchmark's side.

``install`` wraps the public functions and methods of each layer (module) of
``gvcplm`` in spans and counters.  A function is patched under every name
that binds it in any ``gvcplm`` module, because callers look it up there:
``fit_dbe`` is bound in ``dbe``, ``profile``, ``studies`` and the package,
``profile.fit`` is bound as ``profile_fit`` in ``cli``, ``crossval`` and
``studies``.  Methods are patched on their class.  When a hooked name is
missing, or its arguments or return value no longer carry what a metric
reads, the metrics it feeds are reported absent and the run goes on.

Spans are kept in memory as (name, start, end, parent, round) and written out
when the benchmark ends.  Times are inclusive: a span's time contains the
time of the spans it caused.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

# metrics that are ratios of two accumulated sums; all other metrics are
# reported per traced round
RATIOS = {
    "smoothing.local_iters_mean": ("smoothing.local_iters_sum", "smoothing.local_points"),
    "crossval.cell_s": ("crossval.time_s", "crossval.cells"),
    "studies.replicate_s": ("studies.time_s", "studies.replicates"),
}
MAXIMA = {"smoothing.solve_peak_mb"}


class Recorder:
    """Spans and counters of the traced rounds."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.round = None
        self.sums = defaultdict(float)
        self.absent = {}

    @contextmanager
    def span(self, name: str):
        parent = self.stack[-1] if self.stack else None
        index = len(self.spans)
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": parent, "round": self.round}
        self.spans.append(record)
        self.stack.append(index)
        try:
            yield record
        finally:
            self.stack.pop()
            record["end"] = time.perf_counter()

    def inside(self, name: str) -> bool:
        return any(self.spans[i]["name"] == name for i in self.stack)

    def add(self, metric: str, value: float) -> None:
        self.sums[metric] += value

    def peak(self, metric: str, value: float) -> None:
        self.sums[metric] = max(self.sums[metric], value)

    def mark_absent(self, metrics, reason: str) -> None:
        for metric in metrics:
            self.absent.setdefault(metric, reason)

    def layer_metrics(self, rounds: int, names) -> dict:
        """Every requested metric that is not absent, per traced round."""
        values = {}
        for name in names:
            if name in self.absent:
                continue
            if name in RATIOS:
                num, den = RATIOS[name]
                if num in self.absent or den in self.absent:
                    continue
                den_value = self.sums.get(den, 0.0)
                values[name] = self.sums.get(num, 0.0) / den_value if den_value else 0.0
            elif name in MAXIMA:
                values[name] = self.sums.get(name, 0.0)
            else:
                values[name] = self.sums.get(name, 0.0) / rounds
        return values


# ---------------------------------------------------------------------------
# hooks: each returns a wrapper of ``orig`` that feeds ``rec``


def _timed(span_name, time_metric=None, count_metric=None):
    def factory(orig, rec):
        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            with rec.span(span_name) as record:
                result = orig(*args, **kwargs)
            if time_metric:
                rec.add(time_metric, record["end"] - record["start"])
            if count_metric:
                rec.add(count_metric, 1)
            return result
        return wrapper
    return factory


def _solve(orig, rec):
    # tracemalloc slows every allocation it sees, so the solve's peak memory
    # is sampled on the first solve for each number of observations only,
    # which in every workload is the largest (cold, n-point) solve
    sig = inspect.signature(orig)
    sampled = set()

    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        try:
            bound = sig.bind(*args, **kwargs).arguments
        except TypeError:
            bound = None
        key = None if bound is None else getattr(bound.get("offsets"), "shape", None)
        sample = key not in sampled and not tracemalloc.is_tracing()
        if sample:
            sampled.add(key)
            tracemalloc.start()
        try:
            with rec.span("smoothing.solve") as record:
                result = orig(*args, **kwargs)
            if sample:
                rec.peak("smoothing.solve_peak_mb", tracemalloc.get_traced_memory()[1] / 2 ** 20)
        finally:
            if sample:
                tracemalloc.stop()
        elapsed = record["end"] - record["start"]
        rec.add("smoothing.solve_calls", 1)
        if bound is None or "warm" not in sig.parameters:
            rec.mark_absent(("smoothing.solve_cold_s", "smoothing.solve_warm_s"),
                            "solve() no longer binds a 'warm' argument")
        else:
            rec.add("smoothing.solve_warm_s" if bound.get("warm") is not None
                    else "smoothing.solve_cold_s", elapsed)
        try:
            rec.add("smoothing.local_iters_sum", float(result.iterations.sum()))
            rec.add("smoothing.local_points", float(result.iterations.size))
            rec.add("smoothing.unconverged_points", float((~result.converged).sum()))
        except AttributeError:
            rec.mark_absent(("smoothing.local_iters_mean", "smoothing.unconverged_points"),
                            "solve() result has no iterations/converged")
        return result
    return wrapper


def _q(orig, rec):
    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        result = orig(*args, **kwargs)
        rec.add("families.q_s", time.perf_counter() - t0)
        rec.add("families.q_elements", getattr(result, "size", 1))
        return result
    return wrapper


def _state(orig, rec):
    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        rec.add("profile.state_calls", 1)
        return orig(*args, **kwargs)
    return wrapper


def _newton_fit(orig, rec):
    # every state evaluation beyond the start and one per accepted step is a
    # rejected trial step, i.e. a halving (no workload runs the full Hessian,
    # whose finite differences would also evaluate states)
    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        before = rec.sums["profile.state_calls"]
        with rec.span("profile.newton"):
            result = orig(*args, **kwargs)
        try:
            steps = int(result[3])
        except (TypeError, IndexError, ValueError):
            rec.mark_absent(("profile.outer_steps", "profile.halvings"),
                            "_newton_fit() no longer returns the step count fourth")
            return result
        rec.add("profile.outer_steps", steps)
        rec.add("profile.halvings", rec.sums["profile.state_calls"] - before - 1 - steps)
        return result
    return wrapper


def _profile_fit(orig, rec):
    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        if rec.inside("crossval.cross_validate"):
            rec.add("crossval.profile_fits", 1)
        with rec.span("profile.fit") as record:
            result = orig(*args, **kwargs)
        rec.add("profile.fit_s", record["end"] - record["start"])
        return result
    return wrapper


def _per_item(span_name, time_key, items_key, items, metric):
    """Time a call and count the items (cells, replicates) its result holds;
    ``metric`` is time_key / items_key over the traced rounds."""
    def factory(orig, rec):
        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            with rec.span(span_name) as record:
                result = orig(*args, **kwargs)
            rec.add(time_key, record["end"] - record["start"])
            try:
                rec.add(items_key, items(result))
            except (AttributeError, KeyError, TypeError):
                rec.mark_absent((metric,), f"{span_name} result no longer holds {items_key}")
            return result
        return wrapper
    return factory


# (module, qualified name, wrapper factory, metrics the hook feeds)
HOOKS = (
    ("gvcplm.smoothing", "CurveFitter.__init__",
     _timed("smoothing.build", "smoothing.build_s", "smoothing.fitter_builds"),
     ("smoothing.fitter_builds", "smoothing.build_s")),
    ("gvcplm.smoothing", "CurveFitter.solve", _solve,
     ("smoothing.solve_calls", "smoothing.solve_cold_s", "smoothing.solve_warm_s",
      "smoothing.solve_peak_mb", "smoothing.local_iters_mean",
      "smoothing.unconverged_points")),
    ("gvcplm.smoothing", "CurveFitter.alpha_prime",
     _timed("smoothing.alpha_prime", "smoothing.alpha_prime_s"),
     ("smoothing.alpha_prime_s",)),
    ("gvcplm.families", "FamilySpec.q", _q, ("families.q_elements", "families.q_s")),
    ("gvcplm.profile", "ProfileEngine.__init__",
     _timed("profile.engine_build", None, "profile.engine_builds"),
     ("profile.engine_builds",)),
    ("gvcplm.profile", "ProfileEngine.state", _state,
     ("profile.state_calls", "profile.halvings")),
    ("gvcplm.profile", "ProfileEngine.hessian",
     _timed("profile.hessian", "profile.hessian_s"), ("profile.hessian_s",)),
    ("gvcplm.profile", "_newton_fit", _newton_fit,
     ("profile.outer_steps", "profile.halvings")),
    ("gvcplm.profile", "fit", _profile_fit, ("profile.fit_s", "crossval.profile_fits")),
    ("gvcplm.dbe", "fit_dbe", _timed("dbe.fit_dbe", "dbe.fit_s", "dbe.calls"),
     ("dbe.calls", "dbe.fit_s")),
    ("gvcplm.inference", "sandwich_covariance",
     _timed("inference.sandwich_covariance", "inference.sandwich_s"),
     ("inference.sandwich_s",)),
    ("gvcplm.inference", "glrt", _timed("inference.glrt", "inference.glrt_s"),
     ("inference.glrt_s",)),
    ("gvcplm.crossval", "cross_validate",
     _per_item("crossval.cross_validate", "crossval.time_s", "crossval.cells",
               lambda report: len(report.grid), "crossval.cell_s"),
     ("crossval.cell_s", "crossval.profile_fits")),
    ("gvcplm.studies", "run_table",
     _per_item("studies.run_table", "studies.time_s", "studies.replicates",
               lambda report: int(report["reps"]), "studies.replicate_s"),
     ("studies.replicate_s",)),
    ("gvcplm.cli", "read_dataset_csv", _timed("cli.read_dataset_csv", "cli.read_csv_s"),
     ("cli.read_csv_s",)),
    ("gvcplm.cli", "_json_dump", _timed("cli.json_dump", "cli.write_reports_s"),
     ("cli.write_reports_s",)),
    ("gvcplm.cli", "_write_curve_csv", _timed("cli.write_curve_csv", "cli.write_reports_s"),
     ("cli.write_reports_s",)),
)


def _program_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "gvcplm" or name.startswith("gvcplm."))]


def install(rec: Recorder):
    """Patch every hook into the program; returns a function that undoes it."""
    undo = []
    for module_name, qualname, factory, metrics in HOOKS:
        try:
            owner = importlib.import_module(module_name)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            orig = inspect.getattr_static(owner, attr)
        except (ImportError, AttributeError) as exc:
            rec.mark_absent(metrics, f"{module_name}.{qualname} not found ({exc})")
            continue
        if not callable(orig):
            rec.mark_absent(metrics, f"{module_name}.{qualname} is not callable")
            continue
        wrapper = factory(orig, rec)
        if path:  # a method: looked up on its class
            targets = [(owner, attr)]
        else:     # a function: patch every module-level name bound to it
            targets = [(mod, name) for mod in _program_modules()
                       for name, value in list(vars(mod).items()) if value is orig]
        for target, name in targets:
            setattr(target, name, wrapper)
            undo.append((target, name, orig))

    def uninstall():
        for target, name, orig in reversed(undo):
            setattr(target, name, orig)

    return uninstall
