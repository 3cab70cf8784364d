"""K-fold cross-validation over the smoothing pair (delta, h).

The criterion is the held-out quasi-likelihood: for each candidate cell the
model is fitted on the training folds (difference-based start plus the
accelerated Newton steps), the coefficient functions are evaluated at the
held-out index points using only training observations, and the held-out
quasi-likelihood is summed.  Held-out responses never enter the training
fit.  Cells whose local fits fail on any fold are marked failed and excluded
from the argmax.
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
from .profile import FitConfig, fit as profile_fit
from .smoothing import CurveFitter, SmoothingParams

DEFAULT_DELTA_GRID = (0.005, 0.01, 0.05, 0.1, 0.2)


@dataclass(frozen=True)
class CvReport:
    """Score surface of a cross-validation run.

    scores holds the summed held-out quasi-likelihood per cell (NaN where
    failed); fold_betas keeps the trained coefficient vectors per cell and
    fold, which makes training/evaluation separation auditable.
    """

    grid: tuple
    scores: np.ndarray
    failed: np.ndarray
    best: SmoothingParams
    fold_assignment_seed: int
    folds: tuple
    fold_betas: tuple


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
    if k < 2:
        raise ParameterError(f"cross-validation needs k >= 2 folds, got {k}")
    if grid is None:
        grid = default_smoothing_grid(fam, data)
    grid = [(None if d is None else float(d), float(h)) for d, h in grid]
    if not grid:
        raise ParameterError("smoothing grid is empty")

    rng = np.random.default_rng(seed)
    perm = rng.permutation(data.n)
    folds = tuple(np.sort(part) for part in np.array_split(perm, k))

    template = config
    scores = np.full(len(grid), np.nan)
    failed = np.zeros(len(grid), dtype=bool)
    fold_betas = []
    for cell, (delta, h) in enumerate(grid):
        total = 0.0
        betas = []
        try:
            for fold in folds:
                mask = np.ones(data.n, dtype=bool)
                mask[fold] = False
                train = Dataset(u=data.u[mask], x=data.x[mask],
                                z=data.z[mask], y=data.y[mask])
                if template is None:
                    smoothing = SmoothingParams(h=h, delta=delta)
                    cfg = FitConfig(smoothing=smoothing)
                else:
                    smoothing = dataclasses.replace(
                        template.smoothing, h=h, delta=delta
                    )
                    cfg = dataclasses.replace(template, smoothing=smoothing)
                # keep beta only: the fit result pins the training engine
                beta = profile_fit(fam, train, cfg, curve_grid=False).beta
                # curves at held-out points from training observations only
                fitter = CurveFitter(fam, train.x, train.y, train.u,
                                     smoothing, points=data.u[fold])
                sol = fitter.solve(train.z @ beta)
                alpha = fitter.curve_values(sol)
                mhat = (np.einsum("iq,iq->i", alpha, data.x[fold])
                        + data.z[fold] @ beta)
                total += float(np.sum(fam.quasi_loglik(mhat, data.y[fold])))
                betas.append(beta)
        except (EffectiveSampleError, SingularityError, ConditioningError,
                ParameterError, np.linalg.LinAlgError):
            failed[cell] = True
            fold_betas.append(None)
            continue
        scores[cell] = total
        fold_betas.append(tuple(betas))

    if failed.all():
        raise CrossValidationError("every cross-validation cell failed")
    order = [
        (scores[i], grid[i][1], -np.inf if grid[i][0] is None else grid[i][0], i)
        for i in range(len(grid))
        if not failed[i]
    ]
    _, _, _, best_idx = max(order)
    delta, h = grid[best_idx]
    base = template.smoothing if template is not None else SmoothingParams(h=h)
    best = dataclasses.replace(base, h=h, delta=delta)
    return CvReport(
        grid=tuple(grid),
        scores=scores,
        failed=failed,
        best=best,
        fold_assignment_seed=int(seed),
        folds=folds,
        fold_betas=tuple(fold_betas),
    )
