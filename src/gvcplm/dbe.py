"""Difference-based initial estimate of the parametric coefficients.

After sorting by the smoothing index u, weights w_1 .. w_{q+1} that
annihilate each window of q + 1 consecutive x rows remove the
coefficient-function contribution from the (transformed) response up to a
local linear remainder.  Regressing the differenced response on the
differenced z covariates, plus two small blocks absorbing that remainder,
gives a fast root-n consistent starting value for beta.

Non-gaussian responses are first mapped onto the linear-predictor scale by
the family's response transform (log(y + delta) for poisson,
log((y + delta) / (1 - y + delta)) for bernoulli); delta acts as a smoothing
parameter chosen alongside the bandwidth.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .data import Dataset
from .errors import ParameterError
from .families import get_family


@dataclass(frozen=True)
class DbeResult:
    """Output of the difference-based regression.

    beta0 is the initial estimate of the parametric coefficients; gamma0 and
    gamma1 absorb the local linear remainder of the coefficient functions
    inside each differencing window.
    """

    beta0: np.ndarray
    gamma0: np.ndarray
    gamma1: np.ndarray
    residual_ss: float
    n_starred: int
    rank_deficient: bool = False


def _null_directions(windows: np.ndarray) -> np.ndarray:
    """difference_weights of each stacked (q, q + 1) system, shape (k, q + 1)."""
    w = np.linalg.svd(windows, full_matrices=True)[2][:, -1]
    big = np.abs(w) > 1e-12
    flip = big.any(axis=1) & (w[np.arange(len(w)), big.argmax(axis=1)] < 0)
    return np.where(flip[:, None], -w, w)


def difference_weights(x_window: np.ndarray) -> np.ndarray:
    """Unit-norm weights annihilating a window of q + 1 consecutive x rows.

    Returns w with sum_j w_j x_window[j] = 0 (elementwise over the q
    columns).  When the stacked window has full rank q the direction is
    unique up to sign; the sign is fixed by making the first entry of
    magnitude above 1e-12 positive.  Rank-deficient windows fall back to the
    smallest-singular-value direction and never fail.
    """
    x_window = np.asarray(x_window, dtype=float)
    if x_window.ndim != 2 or x_window.shape[0] != x_window.shape[1] + 1:
        raise ParameterError(
            f"window must have shape (q+1, q), got {x_window.shape}"
        )
    # null direction of the q x (q+1) system x_window' w = 0
    return _null_directions(x_window.T[None])[0]


def fit_dbe(family, data: Dataset, delta=None) -> DbeResult:
    """Difference-based least squares estimate of beta.

    Sorts internally by u (ties broken by original row order), builds, in one
    batch, a starred row per window of q + 1 consecutive observations and
    solves an ordinary least squares problem on the n - q starred rows.
    """
    fam = get_family(family)
    data.validate_response(fam)
    n, q, p = data.n, data.n_curves, data.n_linear
    n_starred = n - q
    if n <= 3 * q + 1 + p:
        raise ParameterError(
            f"n = {n} is too small for the difference-based fit with "
            f"q = {q}, p = {p}"
        )
    order = np.argsort(data.u, kind="stable")
    u = data.u[order]
    x = data.x[order]
    z = data.z[order]
    gy = fam.transform(data.y, delta)[order]

    # one batched SVD over the windows; the stacked matmuls reproduce the
    # per-window products w @ window bit for bit (einsum does not)
    x_win = sliding_window_view(x, q + 1, axis=0)                # (k, q, q+1)
    w = _null_directions(x_win)[:, None, :]                      # (k, 1, q+1)
    y_star = (w @ sliding_window_view(gy, q + 1)[:, :, None])[:, 0, 0]
    design = np.concatenate([
        x[:n_starred, None, :] * w[:, :, :1],
        (w * sliding_window_view(u, q + 1)[:, None, :]) @ np.swapaxes(x_win, 1, 2),
        w @ np.swapaxes(sliding_window_view(z, q + 1, axis=0), 1, 2),
    ], axis=2)[:, 0]

    coef, residual, rank, _ = np.linalg.lstsq(design, y_star, rcond=None)
    rank_deficient = rank < design.shape[1]
    if rank_deficient:
        warnings.warn(
            "difference-based design is rank deficient; returning the "
            "least-norm solution",
            stacklevel=2,
        )
    if residual.size:
        rss = float(residual[0])
    else:
        rss = float(np.sum((y_star - design @ coef) ** 2))
    return DbeResult(
        beta0=coef[2 * q :].copy(),
        gamma0=coef[:q].copy(),
        gamma1=coef[q : 2 * q].copy(),
        residual_ss=rss,
        n_starred=n_starred,
        rank_deficient=bool(rank_deficient),
    )
