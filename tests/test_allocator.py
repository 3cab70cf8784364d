"""Importing gvcplm raises glibc's mmap and trim thresholds, so the local
solver's freed group arrays stay mapped instead of being faulted in again on
every family pass (``gvcplm.smoothing`` module docstring)."""

import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

from gvcplm import smoothing

SRC = Path(__file__).resolve().parent.parent / "src"
# minor page faults of a second bernoulli n=200 table4 study in a fresh
# process: about 3,900 with glibc's default thresholds, about 100 with them raised
FAULT_BOUND = 1000
FAULT_PROBE = (
    "import resource, gvcplm\n"
    "study = lambda: gvcplm.run_table('table4', reps=2, family='bernoulli', n=200)\n"
    "study()\n"
    "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
    "study()\n"
    "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
)


def _tuned(environ) -> bool:
    return any(key == "GLIBC_TUNABLES" or key.startswith("MALLOC_") for key in environ)


def _glibc() -> bool:
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc ")
    except (AttributeError, ValueError, OSError):
        return False


@pytest.mark.skipif(not (sys.platform.startswith("linux") and _glibc()),
                    reason="the thresholds are set on Linux with glibc only")
@pytest.mark.skipif(_tuned(os.environ), reason="the environment tunes malloc itself")
def test_a_repeated_study_faults_in_no_fresh_pages():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", FAULT_PROBE], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    faults = int(done.stdout.strip().splitlines()[-1])
    assert faults < FAULT_BOUND


@pytest.fixture
def untuned_glibc(monkeypatch):
    """A glibc process with no malloc tuning in its environment; returns the
    list of mallopt calls a fake libc records."""
    for key in list(os.environ):
        if _tuned([key]):
            monkeypatch.delenv(key)
    monkeypatch.setattr(smoothing.os, "confstr", lambda name: "glibc 2.36")
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr(smoothing.ctypes, "CDLL", lambda name: types.SimpleNamespace(
        mallopt=mallopt))
    return calls


def test_raises_both_thresholds_on_untuned_glibc(untuned_glibc):
    smoothing._keep_freed_memory_mapped()
    assert untuned_glibc == [(-3, 32 << 20), (-1, 64 << 20)]


def _raise(exc):
    def fail(*args):
        raise exc
    return fail


@pytest.mark.parametrize("confstr", [
    _raise(ValueError("unrecognized configuration name")),
    _raise(OSError("confstr failed")),
    lambda name: None,
    lambda name: "musl 1.2.4",
], ids=["confstr-value-error", "confstr-os-error", "unset", "another-libc"])
def test_leaves_other_c_libraries_alone(untuned_glibc, monkeypatch, confstr):
    monkeypatch.setattr(smoothing.os, "confstr", confstr)
    smoothing._keep_freed_memory_mapped()
    assert untuned_glibc == []


@pytest.mark.parametrize("key, value", [("GLIBC_TUNABLES", "glibc.malloc.trim_threshold=0"),
                                        ("MALLOC_ARENA_MAX", "2"),
                                        ("MALLOC_MMAP_THRESHOLD_", "65536")],
                         ids=["GLIBC_TUNABLES", "MALLOC_ARENA_MAX", "MALLOC_MMAP_THRESHOLD_"])
def test_leaves_the_users_malloc_tuning_alone(untuned_glibc, monkeypatch, key, value):
    monkeypatch.setenv(key, value)
    smoothing._keep_freed_memory_mapped()
    assert untuned_glibc == []


@pytest.mark.parametrize("cdll", [lambda name: types.SimpleNamespace(),
                                  _raise(OSError("cannot load the process image"))],
                         ids=["no-mallopt-symbol", "no-library"])
def test_a_missing_mallopt_is_not_an_error(untuned_glibc, monkeypatch, cdll):
    monkeypatch.setattr(smoothing.ctypes, "CDLL", cdll)
    smoothing._keep_freed_memory_mapped()
    assert untuned_glibc == []
