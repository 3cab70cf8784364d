"""Evaluation metrics for simulation studies."""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .errors import ParameterError
from .smoothing import CurveEstimate


def ar1_moment(dim: int, rho: float = 0.5) -> np.ndarray:
    """Moment matrix with entries rho^|i-j|."""
    idx = np.arange(dim)
    return rho ** np.abs(idx[:, None] - idx[None, :])


def gmse(beta_hat, beta0, moment) -> float:
    """Generalized mean squared error (b - b0)' M (b - b0)."""
    beta_hat = np.asarray(beta_hat, dtype=float)
    beta0 = np.asarray(beta0, dtype=float)
    moment = np.asarray(moment, dtype=float)
    if beta_hat.shape != beta0.shape or moment.shape != (beta0.size, beta0.size):
        raise ParameterError(
            f"dimension mismatch: beta {beta_hat.shape} vs {beta0.shape}, "
            f"moment {moment.shape}"
        )
    d = beta_hat - beta0
    return float(d @ moment @ d)


def rase(curve: CurveEstimate, alpha_funcs) -> float:
    """Root average squared error of fitted coefficient functions.

    Averages the squared Euclidean distance between fitted and true
    coefficient vectors over the curve's grid.
    """
    truth = np.column_stack([np.asarray(f(curve.grid), dtype=float) for f in alpha_funcs])
    if truth.shape != curve.values.shape:
        raise ParameterError(
            f"grid mismatch: curve values {curve.values.shape} vs truth {truth.shape}"
        )
    return float(np.sqrt(np.mean(np.sum((curve.values - truth) ** 2, axis=1))))


def sd_mad(samples) -> float:
    """Robust spread estimate: interquartile range divided by 1.349."""
    samples = np.asarray(samples, dtype=float)
    q75, q25 = np.percentile(samples, [75.0, 25.0])
    return float((q75 - q25) / 1.349)


def sample_sd(samples) -> Optional[float]:
    """Sample standard deviation (ddof 1); None for fewer than two samples,
    which carry no spread."""
    samples = np.asarray(samples, dtype=float)
    return float(np.std(samples, ddof=1)) if samples.size > 1 else None


@dataclass(frozen=True)
class MetricSummary:
    """Replicate summary of one metric; sd is None for a single sample."""

    median: float
    sd_mad: float
    mean: float
    sd: Optional[float]

    @classmethod
    def from_samples(cls, samples) -> "MetricSummary":
        samples = np.asarray(samples, dtype=float)
        return cls(
            median=float(np.median(samples)),
            sd_mad=sd_mad(samples),
            mean=float(np.mean(samples)),
            sd=sample_sd(samples),
        )

    def as_dict(self) -> dict:
        return asdict(self)
