"""Kernel functions for local polynomial smoothing."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ParameterError


@dataclass(frozen=True)
class KernelSpec:
    """A symmetric density kernel with compact (or infinite) support.

    Attributes:
        name: identifier used in configs and reports.
        eval: vectorized map u -> K(u).
        support_radius: K(u) == 0 for |u| > support_radius.  ``CurveFitter``
            keeps, per evaluation point, only the observations within
            support_radius * h of it (use ``math.inf`` for a kernel
            without compact support).
    """

    name: str
    eval: Callable[[np.ndarray], np.ndarray]
    support_radius: float


def _epanechnikov(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    return 0.75 * np.clip(1.0 - z * z, 0.0, None)


EPANECHNIKOV = KernelSpec(name="epanechnikov", eval=_epanechnikov, support_radius=1.0)


def kernel_weight(kernel: KernelSpec, t, h: float):
    """Rescaled kernel weight K(t / h) / h.

    Args:
        kernel: kernel specification.
        t: distance(s) between observation and evaluation point.
        h: bandwidth, must be positive.

    Returns:
        Array (or scalar) of nonnegative weights.
    """
    if not h > 0:
        raise ParameterError(f"bandwidth must be positive, got {h}")
    return kernel.eval(np.asarray(t, dtype=float) / h) / h
