"""Data generators for the benchmark simulation designs.

Both designs share the covariate law: u uniform on (0, 1); the linear
covariates z and the second curve covariate x2 jointly normal with mean zero
and covariance 0.5^|i-j| (z first, x2 last); x1 identically one.  The
parametric dimension grows with the sample size as floor(1.8 n^(1/3)), and
the true coefficient vector is padded with zeros to that length.

Poisson design:   log mu = alpha1(u) + alpha2(u) x2 + z' beta,
                  alpha1(u) = 4 + sin(2 pi u), alpha2(u) = 2 u (1 - u),
                  beta = (0.5, 0.3, -0.5, 1, 0.1, -0.25, 0, ...).

Bernoulli design: logit p = alpha1(u) + alpha2(u) x2 + z' beta,
                  alpha1(u) = 2 (u^3 + 2 u^2 - 2 u), alpha2(u) = 2 cos(2 pi u),
                  beta = (3, 1, -2, 0.5, 2, -2, 0, ...).
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .data import Dataset
from .errors import ParameterError
from .metrics import ar1_moment

_POISSON_BETA = (0.5, 0.3, -0.5, 1.0, 0.1, -0.25)
_BERNOULLI_BETA = (3.0, 1.0, -2.0, 0.5, 2.0, -2.0)

# bandwidths and transform offsets selected by 5-fold cross-validation for
# the benchmark designs; studies use them directly unless CV is re-enabled
PRESET_H = {
    "poisson": {200: 0.1, 400: 0.08, 800: 0.075, 1500: 0.06},
    "bernoulli": {200: 0.45, 400: 0.4, 800: 0.25, 1500: 0.18},
}
PRESET_DELTA = {"poisson": 0.1, "bernoulli": 0.005}

# (z, x2) has covariance COV_RHO^|i-j|
COV_RHO = 0.5


def parametric_dimension(n: int) -> int:
    """Growing parametric dimension floor(1.8 n^(1/3))."""
    return int(np.floor(1.8 * float(n) ** (1.0 / 3.0) + 1e-9))


@dataclass(frozen=True)
class SimDesign:
    """Complete description of one synthetic data-generating process."""

    family_name: str
    n: int
    p_dim: int
    beta0: np.ndarray
    alpha_funcs: Tuple[Callable, Callable]
    seed: int = 0

    def __post_init__(self):
        beta0 = np.asarray(self.beta0, dtype=float)
        if beta0.shape != (self.p_dim,):
            raise ParameterError(
                f"beta0 has shape {beta0.shape}, expected ({self.p_dim},)"
            )
        object.__setattr__(self, "beta0", beta0)


def _pad(values, p_dim: int) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.size > p_dim:
        raise ParameterError(
            f"design needs p >= {values.size}, got {p_dim} (sample size too small)"
        )
    return np.concatenate([values, np.zeros(p_dim - values.size)])


def poisson_design(n: int, seed: int = 0) -> SimDesign:
    p = parametric_dimension(n)
    return SimDesign(
        family_name="poisson",
        n=n,
        p_dim=p,
        beta0=_pad(_POISSON_BETA, p),
        alpha_funcs=(
            lambda u: 4.0 + np.sin(2.0 * np.pi * np.asarray(u, float)),
            lambda u: 2.0 * np.asarray(u, float) * (1.0 - np.asarray(u, float)),
        ),
        seed=seed,
    )


def bernoulli_design(n: int, seed: int = 0) -> SimDesign:
    p = parametric_dimension(n)
    return SimDesign(
        family_name="bernoulli",
        n=n,
        p_dim=p,
        beta0=_pad(_BERNOULLI_BETA, p),
        alpha_funcs=(
            lambda u: 2.0 * (np.asarray(u, float) ** 3
                             + 2.0 * np.asarray(u, float) ** 2
                             - 2.0 * np.asarray(u, float)),
            lambda u: 2.0 * np.cos(2.0 * np.pi * np.asarray(u, float)),
        ),
        seed=seed,
    )


def make_design(family: str, n: int, seed: int = 0) -> SimDesign:
    """The benchmark design of family at sample size n, an integer >= 1."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
        raise ParameterError(f"sample size n must be an integer >= 1, got {n!r}")
    if family == "poisson":
        return poisson_design(n, seed)
    if family == "bernoulli":
        return bernoulli_design(n, seed)
    raise ParameterError(f"no simulation design for family {family!r}")


def with_beta(design: SimDesign, **coordinate_values) -> SimDesign:
    """Copy of a design with selected beta coordinates replaced.

    Keys are 1-based coordinate positions given as 'b<k>', e.g.
    with_beta(design, b7=0.1, b8=0.1).
    """
    beta = design.beta0.copy()
    for key, value in coordinate_values.items():
        position = int(key.lstrip("b"))
        if not 1 <= position <= design.p_dim:
            raise ParameterError(f"design has no coordinate {key}: p = {design.p_dim}")
        beta[position - 1] = float(value)
    return dataclasses.replace(design, beta0=beta)


def design_moment(design: SimDesign) -> np.ndarray:
    """Population moment matrix E[z z'] of the design's linear covariates."""
    return ar1_moment(design.p_dim, COV_RHO)


def generate(design: SimDesign, seed=None) -> Dataset:
    """Draw one dataset from the design.

    seed overrides design.seed; it may be an int or a numpy SeedSequence,
    which is how replicate streams are split deterministically.  Bernoulli
    means come from _expit, which evaluates 1 / (1 + exp(-lp)) with the C
    library's exp through math.exp, as scipy.special.expit does, so the
    draws are the ones an expit-based generator makes.  numpy's vectorized
    np.exp is not that function: it differs by one ulp on about 2% of
    normal arguments (38,656 of 2,000,000 at sd 4, on AVX-512), and a mean
    one ulp off can flip a draw.
    """
    if seed is None:
        seed = design.seed
    rng = np.random.default_rng(seed)
    n, p = design.n, design.p_dim
    u = rng.uniform(0.0, 1.0, size=n)
    chol = np.linalg.cholesky(ar1_moment(p + 1, COV_RHO))
    zx = rng.standard_normal((n, p + 1)) @ chol.T
    z = zx[:, :p]
    x2 = zx[:, p]
    x = np.column_stack([np.ones(n), x2])
    alpha1, alpha2 = design.alpha_funcs
    lp = alpha1(u) + alpha2(u) * x2 + z @ design.beta0
    if design.family_name == "poisson":
        y = rng.poisson(np.exp(np.clip(lp, None, 30.0))).astype(float)
    elif design.family_name == "bernoulli":
        y = rng.binomial(1, _expit(lp)).astype(float)
    else:
        raise ParameterError(f"cannot sample family {design.family_name!r}")
    return Dataset(u=u, x=x, z=z, y=y)


def _expit(values: np.ndarray) -> np.ndarray:
    """Logistic function 1 / (1 + exp(-v)) of a 1-D array, element by
    element through math.exp.  Where exp(-v) overflows (v below about
    -709.78) the result is 0.0, as it is with an infinite exp; NaN stays NaN."""
    return np.array([_expit_scalar(v) for v in np.asarray(values, dtype=float).tolist()])


def _expit_scalar(v: float) -> float:
    try:
        return 1.0 / (1.0 + math.exp(-v))
    except OverflowError:
        return 0.0


def replicate_seed(master_seed: int, rep: int) -> np.random.SeedSequence:
    """Counter-based child stream: serial and parallel runs see identical data."""
    return np.random.SeedSequence(entropy=master_seed, spawn_key=(rep,))


def preset_smoothing(family: str, n: int):
    """(delta, h) used for the benchmark designs at this sample size.

    Sample sizes without a recorded bandwidth fall back to n^(-1/5) scaling
    from the nearest recorded size.
    """
    table = PRESET_H[family]
    delta = PRESET_DELTA[family]
    if n in table:
        return delta, table[n]
    anchor = min(table, key=lambda m: abs(np.log(m / n)))
    return delta, table[anchor] * (n / anchor) ** (-0.2)
