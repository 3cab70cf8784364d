"""The benchmark's tracing hooks still bind in the program.

``bench/tracing.py`` patches the program's functions and methods by name.  A
name it cannot find, or a call whose result no longer carries what a metric
reads, is reported as an absent metric, and the traced run goes on, so a
renamed or deleted hook shows only as a missing figure.  These tests load
the tracing module from its file, without changing it, and check that every
hook resolves and that a traced fit, sandwich and likelihood ratio test
report no metric absent.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

import gvcplm as g

_TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("gvcplm_bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_resolves_to_a_callable(tracing):
    # the lookup tracing.install makes
    for module_name, qualname, _, _ in tracing.HOOKS:
        owner = importlib.import_module(module_name)
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        assert callable(inspect.getattr_static(owner, attr)), f"{module_name}.{qualname}"


def test_traced_fit_sandwich_and_glrt_report_no_absent_metric(tracing):
    design = g.make_design("poisson", 200)
    data = g.generate(design, seed=g.replicate_seed(1, 0))
    delta, h = g.preset_smoothing("poisson", 200)
    cfg = g.FitConfig(smoothing=g.SmoothingParams(h=h, delta=delta))
    rec = tracing.Recorder()
    uninstall = tracing.install(rec)
    try:
        res = g.fit("poisson", data, cfg)
        g.sandwich_covariance(res)
        g.glrt("poisson", data, g.make_constraint(np.eye(design.p_dim)[6:]), cfg,
               fit_alt=res)
    finally:
        uninstall()
    assert rec.absent == {}
    assert rec.sums["smoothing.alpha_prime_s"] > 0
    assert rec.sums["inference.sandwich_s"] > 0 and rec.sums["inference.glrt_s"] > 0
