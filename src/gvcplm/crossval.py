"""K-fold cross-validation over the smoothing pair (delta, h).

The criterion is the held-out quasi-likelihood: for each candidate cell the
model is fitted on the training folds (difference-based start plus the
accelerated Newton steps), the coefficient functions are evaluated at the
held-out index points using only training observations, and the held-out
quasi-likelihood is summed.  Held-out responses never enter the training
fit.  A cell whose fit fails on any fold is marked failed, with the reason,
and excluded from the argmax; a ParameterError (a configuration mistake) is
raised instead.  The loop runs fold -> h -> delta: the kernel windows depend
on (fold, h) only, so one training engine and one held-out fitter per
(fold, h) serve all its deltas (``with_delta``).  Each cell still starts cold
from its own delta, so its score and fold betas are bit-identical to a
one-cell run, whatever the rest of the grid holds.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import Dataset
from .errors import (
    ConditioningError,
    CrossValidationError,
    EffectiveSampleError,
    ParameterError,
    SingularityError,
)
from .families import get_family
from .profile import FitConfig, ProfileEngine, fit as profile_fit
from .smoothing import CurveFitter, SmoothingParams

DEFAULT_DELTA_GRID = (0.005, 0.01, 0.05, 0.1, 0.2)


@dataclass(frozen=True)
class CvReport:
    """Score surface of a cross-validation run.

    scores holds the summed held-out quasi-likelihood per cell (NaN where
    failed); fold_betas keeps the trained coefficient vectors per cell and
    fold, which makes training/evaluation separation auditable.  reasons
    holds, per cell, None or "<ErrorType>: <message>" of its first failure.
    """

    grid: tuple
    scores: np.ndarray
    failed: np.ndarray
    best: SmoothingParams
    fold_assignment_seed: int
    folds: tuple
    fold_betas: tuple
    reasons: tuple


def default_h_grid(data: Dataset, size: int = 10) -> np.ndarray:
    """Log-spaced bandwidths around the n^(-1/5) rule of thumb."""
    span = float(data.u.max() - data.u.min())
    rot = span * data.n ** (-0.2)
    return np.exp(np.linspace(np.log(0.5 * rot), np.log(2.0 * rot), size))


def default_smoothing_grid(family, data: Dataset, n_h: int = 10):
    """Cartesian (delta, h) grid; gaussian families only vary h."""
    fam = get_family(family)
    hs = default_h_grid(data, n_h)
    deltas = DEFAULT_DELTA_GRID if fam.needs_delta else (None,)
    return [(d, float(h)) for d in deltas for h in hs]


def cross_validate(
    family,
    data: Dataset,
    grid=None,
    k: int = 5,
    config: Optional[FitConfig] = None,
    seed: int = 0,
) -> CvReport:
    """Score every (delta, h) cell by K-fold held-out quasi-likelihood.

    Folds come from a seeded permutation and differ in size by at most one.
    Ties in the score break toward larger h, then larger delta.  config, when
    given, supplies the algorithm, step counts, kernel and degree; its h and
    delta are replaced cell by cell.
    """
    fam = get_family(family)
    data.validate_response(fam)
    if not 2 <= k <= data.n:
        raise ParameterError(f"cross-validation needs 2 <= k <= n = {data.n}, got k = {k}")
    if grid is None:
        grid = default_smoothing_grid(fam, data)
    grid = [(None if d is None else float(d), float(h)) for d, h in grid]
    if not grid:
        raise ParameterError("smoothing grid is empty")

    rng = np.random.default_rng(seed)
    perm = rng.permutation(data.n)
    folds = tuple(np.sort(part) for part in np.array_split(perm, k))

    template = config if config is not None else FitConfig(SmoothingParams(h=1.0))
    totals = np.zeros(len(grid))
    betas = [[] for _ in grid]
    reasons = [None] * len(grid)
    for fold in folds:
        mask = np.ones(data.n, dtype=bool)
        mask[fold] = False
        train = Dataset(u=data.u[mask], x=data.x[mask], z=data.z[mask], y=data.y[mask])
        for h in dict.fromkeys(h for _, h in grid):
            engine = held_out = None  # the previous (fold, h) pair is freed
            for cell in [c for c, (_, hc) in enumerate(grid)
                         if hc == h and reasons[c] is None]:
                delta = grid[cell][0]
                smoothing = dataclasses.replace(template.smoothing, h=h, delta=delta)
                cfg = dataclasses.replace(template, smoothing=smoothing)
                try:
                    if held_out is None:
                        engine = ProfileEngine(fam, train, smoothing)
                        # curves at held-out points from training observations only
                        held_out = CurveFitter(fam, train.x, train.y, train.u,
                                               smoothing, points=data.u[fold])
                    # keep beta only: the fit result pins the training engine
                    beta = profile_fit(fam, train, cfg, curve_grid=False,
                                       engine=engine.with_delta(delta)).beta
                    sol = held_out.with_delta(delta).solve(train.z @ beta)
                except (EffectiveSampleError, SingularityError, ConditioningError,
                        np.linalg.LinAlgError) as exc:
                    reasons[cell] = f"{type(exc).__name__}: {exc}"
                    continue
                mhat = (np.einsum("iq,iq->i", held_out.curve_values(sol), data.x[fold])
                        + data.z[fold] @ beta)
                totals[cell] += float(np.sum(fam.quasi_loglik(mhat, data.y[fold])))
                betas[cell].append(beta)
    failed = np.array([r is not None for r in reasons])
    scores = np.where(failed, np.nan, totals)

    if failed.all():
        raise CrossValidationError(
            f"every cross-validation cell failed; first: {reasons[0]}")
    order = [
        (scores[i], grid[i][1], -np.inf if grid[i][0] is None else grid[i][0], i)
        for i in range(len(grid))
        if not failed[i]
    ]
    _, _, _, best_idx = max(order)
    delta, h = grid[best_idx]
    best = dataclasses.replace(template.smoothing, h=h, delta=delta)
    return CvReport(
        grid=tuple(grid),
        scores=scores,
        failed=failed,
        best=best,
        fold_assignment_seed=int(seed),
        folds=folds,
        fold_betas=tuple(None if r else tuple(b) for r, b in zip(reasons, betas)),
        reasons=tuple(reasons),
    )
