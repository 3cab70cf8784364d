"""The ridged batch solver against its eigenvalue-only ridge ladder.

``_ridged_solve`` clears most rows with one batched Cholesky and runs the
eigenvalue ladder on the rest only.  The ladder it had before, which checks
every row's eigenvalues, is kept here as the reference: ridges, results and
errors must be the reference's own, bit for bit.
"""

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gvcplm.errors import SingularityError
from gvcplm.smoothing import (
    _CONDITION_LIMIT,
    _RIDGE_LADDER,
    _log_condition_bound,
    _ridged_solve,
)


def _ladder_reference(mats, rhs, context):
    """The eigenvalue-only ridge ladder: every row's eigenvalues at every level."""
    mats = np.ascontiguousarray(mats)
    d = mats.shape[-1]
    eye = np.eye(d)
    scale = np.maximum(mats.diagonal(axis1=-2, axis2=-1).max(axis=-1), 0.0)
    lam = np.zeros(mats.shape[0])
    for step, next_lam in enumerate(_RIDGE_LADDER):
        ridged = mats + (lam * scale)[:, None, None] * eye
        ev = np.linalg.eigvalsh(ridged)
        bad = (ev[:, 0] <= 0) | (
            ev[:, -1] > _CONDITION_LIMIT * np.maximum(ev[:, 0], 1e-300)
        )
        if not bad.any():
            break
        if step == len(_RIDGE_LADDER) - 1:
            worst = int(np.flatnonzero(bad)[0])
            raise SingularityError(
                f"{context}: information matrix at point index {worst} stayed "
                f"ill-conditioned after ridge escalation"
            )
        lam[bad] = _RIDGE_LADDER[step + 1]
    if rhs.ndim == mats.ndim - 1:
        return np.linalg.solve(ridged, rhs[..., None])[..., 0]
    return np.linalg.solve(ridged, rhs)


def _spectrum(d, log10_kappa, magnitude=1.0):
    """d eigenvalues spread evenly over log10_kappa decades below magnitude."""
    return magnitude * 10.0 ** np.linspace(0.0, -log10_kappa, d)


def _symmetric(gen, ev):
    """Random symmetric matrix with eigenvalues ev."""
    basis, _ = np.linalg.qr(gen.normal(size=(ev.size, ev.size)))
    return (basis * ev) @ basis.T


@st.composite
def _batches(draw):
    d = draw(st.integers(1, 20))
    m = draw(st.integers(1, 8))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mats = np.empty((m, d, d))
    for e in range(m):
        ev = _spectrum(d, draw(st.floats(0.0, 17.0)), 10.0 ** draw(st.floats(-6.0, 6.0)))
        kind = draw(st.sampled_from(["spd"] * 8 + ["indefinite", "singular", "zero"]))
        if kind == "singular":
            ev[-1] = 0.0
        elif kind == "indefinite":
            ev[-1] *= -draw(st.floats(0.0, 1.0))
        elif kind == "zero":
            ev[:] = 0.0
        mats[e] = _symmetric(gen, ev)
    cols = draw(st.sampled_from([None, 1, 3]))
    rhs = gen.normal(size=(m, d) if cols is None else (m, d, cols))
    return mats, rhs


@settings(max_examples=300, deadline=None)
@given(_batches())
def test_matches_the_eigenvalue_ladder(batch):
    mats, rhs = batch
    try:
        expected = _ladder_reference(mats, rhs, "ctx")
    except SingularityError as exc:
        with pytest.raises(SingularityError) as got:
            _ridged_solve(mats, rhs, "ctx")
        assert str(got.value) == str(exc)
        return
    assert np.array_equal(_ridged_solve(mats, rhs, "ctx"), expected)


def test_cholesky_bound_covers_the_condition_number():
    # up to kappa = 1e10, the largest a cleared row may have; the relative
    # rounding of the eigenvalue kappa is then below d * eps * kappa < 1e-4
    gen = np.random.default_rng(7)
    for d in range(1, 21):
        spectra = [_spectrum(d, gen.uniform(0.0, 10.0), 10.0 ** gen.uniform(-6, 6))
                   for _ in range(20)]
        mats = np.stack([_symmetric(gen, ev) for ev in spectra])
        ev = np.linalg.eigvalsh(mats)
        kappa = ev[:, -1] / ev[:, 0]
        assert np.all(np.exp(_log_condition_bound(mats)) >= kappa * (1 - 1e-4))


def test_well_conditioned_batch_needs_no_eigenvalues(monkeypatch):
    gen = np.random.default_rng(3)
    mats = np.stack([_symmetric(gen, _spectrum(4, 3.0)) for _ in range(50)])
    rhs = gen.normal(size=(50, 4))
    expected = _ladder_reference(mats, rhs, "ctx")

    def no_eigvalsh(*args, **kwargs):
        raise AssertionError("eigvalsh called on a cleared batch")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
    assert np.array_equal(_ridged_solve(mats, rhs, "ctx"), expected)


def test_nan_row_raises_like_the_reference():
    # a NaN or infinite entry is rejected before the Cholesky with a
    # SingularityError naming its row; the eigenvalue ladder itself ends such
    # a row in a NaN solution or a bare LinAlgError
    rhs = np.ones((3, 4))
    for entry, value in (((1, 0, 0), np.nan), ((1, 2, 1), np.nan), ((1, 3, 3), np.inf),
                         ((2, 0, 1), -np.inf)):
        mats = np.tile(np.eye(4), (3, 1, 1))
        mats[entry] = value
        row = entry[0]
        message = f"ctx: information matrix at point index {row} has a non-finite entry"
        with pytest.raises(SingularityError, match=message):
            _ridged_solve(mats, rhs, "ctx")
        # rows named in the caller's numbering
        with pytest.raises(SingularityError, match=f"point index {40 + row} has"):
            _ridged_solve(mats, rhs, "ctx", np.arange(40, 43))


def test_zero_row_raises_naming_its_point():
    # an all-zero system has no diagonal to scale a ridge by, so it ends in
    # the ladder's error and not in a NaN solution
    mats = np.tile(np.eye(4), (3, 1, 1))
    mats[1] = 0.0
    message = ("ctx: information matrix at point index 41 stayed ill-conditioned "
               "after ridge escalation")
    with pytest.raises(SingularityError, match=message):
        _ridged_solve(mats, np.ones((3, 4)), "ctx", np.arange(40, 43))


def test_row_failing_cholesky_leaves_the_others_unchanged():
    gen = np.random.default_rng(11)
    mats = np.stack([_symmetric(gen, _spectrum(4, 2.0)) for _ in range(6)])
    mats[2] = _symmetric(gen, np.array([1.0, 0.5, 0.2, -1e-12]))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(mats)
    rhs = gen.normal(size=(6, 4, 2))
    got = _ridged_solve(mats, rhs, "ctx")
    assert np.array_equal(got, _ladder_reference(mats, rhs, "ctx"))
    others = [0, 1, 3, 4, 5]
    assert np.array_equal(got[others], np.linalg.solve(mats[others], rhs[others]))


def test_ridged_batch_logs_one_record(caplog):
    gen = np.random.default_rng(5)
    mats = np.stack([_symmetric(gen, _spectrum(4, k)) for k in (2.0, 13.0, 1.0)])
    with caplog.at_level(logging.DEBUG, logger="gvcplm"):
        _ridged_solve(mats, np.ones((3, 4)), "local Newton")
    assert len(caplog.records) == 1
    record = caplog.records[0]
    assert record.name == "gvcplm" and record.levelno == logging.DEBUG
    assert record.getMessage().startswith("local Newton: ridged 1 of 3 systems")


def test_clean_batch_logs_nothing(caplog):
    gen = np.random.default_rng(5)
    mats = np.stack([_symmetric(gen, _spectrum(4, 2.0)) for _ in range(3)])
    with caplog.at_level(logging.DEBUG, logger="gvcplm"):
        _ridged_solve(mats, np.ones((3, 4)), "local Newton")
    assert caplog.records == []
