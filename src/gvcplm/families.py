"""Quasi-likelihood families with canonical links.

A family bundles the quasi-log-likelihood
``Q(mu, y) = int_mu^y (s - y) / V(s) ds`` of its canonical link g and variance
function V, expressed on the linear-predictor scale, and the first four
derivatives ``q_l(x, y)`` of ``Q(g^{-1}(x), y)`` with respect to the linear
predictor x.  With cumulant function b, Q = y*x - b(x), q_1 = y - b'(x) = y - mu
and q_l = -b^(l)(x) for l >= 2, so q_2 = -V(mu) (McCullagh & Nelder, 1989).
These derivatives drive every Newton update; strict negativity of ``q_2`` keeps
the local and profile curvature matrices negative definite.  Closed forms
(constants in y dropped, since only differences of Q matter):

========== =========== ================== =================================
family     b(x)        Q(x, y)            q_1 .. q_4
========== =========== ================== =================================
gaussian   x^2 / 2     -(y - x)^2 / 2     y - x, -1, 0, 0
poisson    e^x         y*x - e^x          y - e^x, then -e^x for l = 2, 3, 4
bernoulli  log(1+e^x)  y*x - log(1+e^x)   y - p, -p(1-p), -p(1-p)(1-2p),
                                          -p(1-p)(1 - 6p(1-p)),  p = expit(x)
========== =========== ================== =================================

``FamilySpec.q012`` returns (Q, q_1, q_2) from one transcendental pass.  The
gaussian Q keeps the residual form, since y*x - x^2/2 - y^2/2 cancels.  The
bernoulli forms use only e = exp(-|x|), as Q = y*x - max(x, 0) - log1p(e) and
p = 1/(1+e) or e/(1+e): finite for every finite x, with no clip.  Only e^x
overflows, so only the poisson predictor is clipped, to +/- LINEAR_PREDICTOR_MAX
and inside the evaluation; stored parameters are never clipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, ParameterError

LINEAR_PREDICTOR_MAX = 30.0


def _operands(x, y):
    """x and y as float arrays of their common broadcast shape."""
    return np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))


# ---------------------------------------------------------------------------
# gaussian / identity


def _gauss_q012(x, y):
    x, y = _operands(x, y)
    resid = y - x
    return -0.5 * resid ** 2, resid, np.full(resid.shape, -1.0)


def _gauss_q34(x, y):
    zero = np.zeros(_operands(x, y)[0].shape)
    return zero, zero


# ---------------------------------------------------------------------------
# poisson / log


def _pois_q012(x, y):
    # in place where an operand is not needed again, to hold fewer arrays
    x, y = _operands(x, y)
    q = np.clip(x, -LINEAR_PREDICTOR_MAX, LINEAR_PREDICTOR_MAX)
    mu = np.exp(q)
    q *= y
    q -= mu
    return q, y - mu, -mu


def _pois_q34(x, y):
    q2 = _pois_q012(x, y)[2]    # every derivative of e^x is e^x
    return q2, q2


# ---------------------------------------------------------------------------
# bernoulli / logit


def _logistic(x):
    """e = exp(-|x|), p = expit(x) and p(1-p), finite for every finite x."""
    e = np.exp(-np.abs(x))
    r = 1.0 / (1.0 + e)
    s = e * r
    p = np.where(x >= 0.0, r, s)
    s *= r
    return e, p, s


def _bern_q012(x, y):
    # in place, and operands dropped once used, to hold fewer arrays at once
    x, y = _operands(x, y)
    e, p, s = _logistic(x)
    q = y * x
    q -= np.maximum(x, 0.0)
    q -= np.log1p(e)
    q1 = y - p
    del e, p
    return q, q1, -s


def _bern_q34(x, y):
    _, p, s = _logistic(_operands(x, y)[0])
    return -s * (1.0 - 2.0 * p), -s * (1.0 - 6.0 * s)


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
    q012: Callable                     # (x, y) -> (Q, q_1, q_2), one pass
    q34: Callable                      # (x, y) -> (q_3, q_4)
    response_transform: Callable       # (y, delta) -> transformed response
    validate_response: Callable
    needs_delta: bool

    def quasi_loglik(self, x, y):
        """Q(g^{-1}(x), y) on the linear-predictor scale."""
        return self.q012(x, y)[0]

    def q(self, order: int, x, y):
        """Derivative q_order(x, y) of Q(g^{-1}(x), y), order in 1..4."""
        if order not in (1, 2, 3, 4):
            raise ParameterError(f"derivative order must be in 1..4, got {order}")
        return self.q012(x, y)[order] if order <= 2 else self.q34(x, y)[order - 3]

    def transform(self, y, delta=None):
        return self.response_transform(y, delta)


GAUSSIAN = FamilySpec(
    name="gaussian",
    q012=_gauss_q012,
    q34=_gauss_q34,
    response_transform=_identity_transform,
    validate_response=_validate_gaussian,
    needs_delta=False,
)

POISSON = FamilySpec(
    name="poisson",
    q012=_pois_q012,
    q34=_pois_q34,
    response_transform=_log_transform,
    validate_response=_validate_poisson,
    needs_delta=True,
)

BERNOULLI = FamilySpec(
    name="bernoulli",
    q012=_bern_q012,
    q34=_bern_q34,
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
