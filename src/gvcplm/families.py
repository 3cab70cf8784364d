"""Quasi-likelihood families with canonical links.

A family bundles the quasi-log-likelihood
``Q(mu, y) = int_mu^y (s - y) / V(s) ds`` of its canonical link g and variance
function V, expressed on the linear-predictor scale, and the first four
derivatives ``q_l(x, y)`` of ``Q(g^{-1}(x), y)`` with respect to the linear
predictor x; for a canonical link q_1 = y - mu and q_2 = -V(mu).  These
derivatives drive every Newton update in the package; strict negativity of
``q_2`` is what keeps the local and profile curvature matrices negative
definite.

Closed forms (constants in y dropped, since only differences of Q matter):

========== ================== ==========================================
family     Q(x, y)            q_1 .. q_4
========== ================== ==========================================
gaussian   -(y - x)^2 / 2     y - x, -1, 0, 0
poisson    y*x - exp(x)       y - e^x, then -e^x for l = 2, 3, 4
bernoulli  y*x - log(1+e^x)   y - p, -p(1-p), -p(1-p)(1-2p),
                              -p(1-p)(1 - 6p(1-p)),  p = expit(x)
========== ================== ==========================================

For the log and logit links the linear predictor is clipped to
``+/- LINEAR_PREDICTOR_MAX`` inside the evaluation only, as an exp-overflow
guard; stored parameters are never clipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special

from .errors import DomainError, ParameterError

LINEAR_PREDICTOR_MAX = 30.0


def _clip(x):
    return np.clip(x, -LINEAR_PREDICTOR_MAX, LINEAR_PREDICTOR_MAX)


# ---------------------------------------------------------------------------
# gaussian / identity


def _gauss_q(x, y):
    x, y = np.asarray(x, float), np.asarray(y, float)
    return -0.5 * (y - x) ** 2


def _gauss_q2(x, y):
    return np.broadcast_arrays(np.asarray(x, float) * 0.0 - 1.0, y)[0]


def _gauss_q34(x, y):
    return np.broadcast_arrays(np.asarray(x, float) * 0.0, y)[0]


def _gauss_q12(x, y):
    return np.asarray(y, float) - np.asarray(x, float), _gauss_q2(x, y)


# ---------------------------------------------------------------------------
# poisson / log


def _pois_q(x, y):
    xc = _clip(x)
    return np.asarray(y, float) * xc - np.exp(xc)


def _pois_q234(x, y):
    return np.broadcast_arrays(-np.exp(_clip(x)), y)[0]


def _pois_q12(x, y):
    mu = np.exp(_clip(x))
    return np.asarray(y, float) - mu, np.broadcast_arrays(-mu, y)[0]


# ---------------------------------------------------------------------------
# bernoulli / logit


def _bern_q(x, y):
    xc = _clip(x)
    return np.asarray(y, float) * xc - np.logaddexp(0.0, xc)


def _bern_q2(x, y):
    p = special.expit(_clip(x))
    return np.broadcast_arrays(-p * (1.0 - p), y)[0]


def _bern_q12(x, y):
    p = special.expit(_clip(x))
    return np.asarray(y, float) - p, np.broadcast_arrays(-p * (1.0 - p), y)[0]


def _bern_q3(x, y):
    p = special.expit(_clip(x))
    return np.broadcast_arrays(-p * (1.0 - p) * (1.0 - 2.0 * p), y)[0]


def _bern_q4(x, y):
    p = special.expit(_clip(x))
    s = p * (1.0 - p)
    return np.broadcast_arrays(-s * (1.0 - 6.0 * s), y)[0]


# ---------------------------------------------------------------------------
# response transforms used by the difference-based initializer


def _identity_transform(y, delta):
    return np.asarray(y, dtype=float)


def _log_transform(y, delta):
    if delta is None or not delta > 0:
        raise ParameterError(f"offset delta must be positive, got {delta}")
    return np.log(np.asarray(y, dtype=float) + delta)


def _logit_transform(y, delta):
    if delta is None or not delta > 0:
        raise ParameterError(f"offset delta must be positive, got {delta}")
    y = np.asarray(y, dtype=float)
    return np.log((y + delta) / (1.0 - y + delta))


# ---------------------------------------------------------------------------
# response-domain validation


def _validate_gaussian(y):
    pass


def _validate_poisson(y):
    bad = ~(np.asarray(y) >= 0)
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        raise DomainError(f"poisson response must be nonnegative; y[{i}] = {np.asarray(y).ravel()[i]}")


def _validate_bernoulli(y):
    arr = np.asarray(y)
    bad = ~((arr == 0) | (arr == 1))
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        raise DomainError(f"bernoulli response must be 0 or 1; y[{i}] = {arr.ravel()[i]}")


@dataclass(frozen=True)
class FamilySpec:
    """Immutable bundle of a quasi-likelihood family's functions.

    Instances are stateless and safe to share across workers.
    """

    name: str
    quasi_loglik: Callable            # (x, y) -> Q on the linear-predictor scale
    q12: Callable                      # (x, y) -> (q_1, q_2), one exp/expit
    q_derivs: tuple                    # q_2 .. q_4, each (x, y) -> array
    response_transform: Callable       # (y, delta) -> transformed response
    validate_response: Callable
    needs_delta: bool

    def q(self, order: int, x, y):
        """Derivative q_order(x, y) of Q(g^{-1}(x), y), order in 1..4."""
        if order not in (1, 2, 3, 4):
            raise ParameterError(f"derivative order must be in 1..4, got {order}")
        return self.q12(x, y)[0] if order == 1 else self.q_derivs[order - 2](x, y)

    def transform(self, y, delta=None):
        return self.response_transform(y, delta)


GAUSSIAN = FamilySpec(
    name="gaussian",
    quasi_loglik=_gauss_q,
    q12=_gauss_q12,
    q_derivs=(_gauss_q2, _gauss_q34, _gauss_q34),
    response_transform=_identity_transform,
    validate_response=_validate_gaussian,
    needs_delta=False,
)

POISSON = FamilySpec(
    name="poisson",
    quasi_loglik=_pois_q,
    q12=_pois_q12,
    q_derivs=(_pois_q234, _pois_q234, _pois_q234),
    response_transform=_log_transform,
    validate_response=_validate_poisson,
    needs_delta=True,
)

BERNOULLI = FamilySpec(
    name="bernoulli",
    quasi_loglik=_bern_q,
    q12=_bern_q12,
    q_derivs=(_bern_q2, _bern_q3, _bern_q4),
    response_transform=_logit_transform,
    validate_response=_validate_bernoulli,
    needs_delta=True,
)

_FAMILIES = {"gaussian": GAUSSIAN, "poisson": POISSON, "bernoulli": BERNOULLI}


def get_family(name) -> FamilySpec:
    """Resolve a family by name ("gaussian" | "poisson" | "bernoulli")."""
    if isinstance(name, FamilySpec):
        return name
    try:
        return _FAMILIES[str(name).lower()]
    except KeyError:
        raise ParameterError(
            f"unknown family {name!r}; choose from gaussian, poisson, bernoulli"
        ) from None


def eval_quasi_loglik(family, x, y):
    """Quasi-log-likelihood Q(g^{-1}(x), y) at linear predictor x.

    Validates that y lies in the family's response domain; raises
    :class:`DomainError` naming the first offending index otherwise.
    """
    fam = get_family(family)
    fam.validate_response(y)
    return fam.quasi_loglik(x, y)


def eval_q(family, order: int, x, y):
    """Derivative q_order(x, y) of the quasi-log-likelihood, order in 1..4."""
    fam = get_family(family)
    fam.validate_response(y)
    return fam.q(order, x, y)


def transform_response(family, y, delta=None):
    """Transform a response onto the linear-predictor scale.

    Identity for the gaussian family (delta ignored); log(y + delta) for
    poisson; log((y + delta) / (1 - y + delta)) for bernoulli.  delta must be
    positive for the non-gaussian families.
    """
    fam = get_family(family)
    fam.validate_response(y)
    return fam.transform(y, delta)
