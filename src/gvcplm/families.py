"""Quasi-likelihood families with canonical links.

A family bundles the quasi-log-likelihood
``Q(mu, y) = int_mu^y (s - y) / V(s) ds`` of its canonical link g and variance
function V, expressed on the linear-predictor scale, and the first two
derivatives ``q_l(x, y)`` of ``Q(g^{-1}(x), y)`` with respect to the linear
predictor x.  With cumulant function b, Q = y*x - b(x), q_1 = y - b'(x) = y - mu
and q_2 = -b''(x) = -V(mu) (McCullagh & Nelder, 1989).  These derivatives drive
every Newton update; strict negativity of ``q_2`` keeps the local and profile
curvature matrices negative definite.  Closed forms (constants in y dropped,
since only differences of Q matter):

========== =========== ================== ================================
family     b(x)        Q(x, y)            q_1, q_2
========== =========== ================== ================================
gaussian   x^2 / 2     -(y - x)^2 / 2     y - x, -1
poisson    e^x         y*x - e^x          y - e^x, -e^x
bernoulli  log(1+e^x)  y*x - log(1+e^x)   y - p, -p(1-p),  p = expit(x)
========== =========== ================== ================================

Each family has one evaluator, ``FamilySpec.evaluate(x, y, w, objective)``
-> (Q or None, w q_1, w b''): one transcendental pass, in place on the
predictor's buffer x, with b'' = -q_2 >= 0 the variance function and w the
kernel weights (an array of x's shape, or a scalar); no output aliases y or
w.  Without objective it skips the log1p and the assembly of Q, which the
local Newton solve (``gvcplm.smoothing``) needs only where a step's ascent
cannot be certified.  ``FamilySpec.q012(x, y, objective=True)`` -> (Q, q_1,
q_2) is the pass on a copy of x at w = 1, its w b'' negated: multiplying by
1 and negating are exact, so q012 rounds as the evaluator does.

The gaussian Q keeps the residual form, since y*x - x^2/2 - y^2/2 cancels.
The bernoulli forms use only e = exp(-|x|), as Q = y*x - max(x, 0) -
log1p(e) and p = 1/(1+e) or e/(1+e): finite for every finite x, with no
clip.  Only e^x overflows, so only the poisson exponent is capped, at c =
clip(x, +/- LINEAR_PREDICTOR_MAX) inside the evaluation (stored parameters
are never clipped): mu = e^c, q_1 = y - e^c, q_2 = -e^c, and Q is extended
linearly from the cap, Q(x) = Q(c) + q_1(c) (x - c), which is y*x - e^x bit
for bit where |x| <= 30.  So q_1 is Q's derivative for every x, and Q is
concave and C^1 everywhere; q_2 keeps the curvature at the cap.  (The form
y*x - e^c (1 + x - c) would give inf - inf at an infinite x.)  At y = 0 the
slope past -30 is -e^{-30}, so Q rises about 1e-13 per unit as x -> -inf,
as the true Q nears its supremum 0; past +30 it is y - e^30, so counts y >
e^30 are rejected, for Q has no maximum.  Counts near e^30 may still leave
fitted predictors past +/-30.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, ParameterError

LINEAR_PREDICTOR_MAX = 30.0


# ---------------------------------------------------------------------------
# gaussian / identity


def _gauss_pass(x, y, w, objective):
    np.subtract(y, x, out=x)   # the residual, q_1
    q = None
    if objective:
        q = np.square(x, out=np.empty(x.shape))
        q *= -0.5
    x *= w
    return q, x, np.multiply(w, 1.0, out=np.empty(x.shape))   # w b'', b'' = 1


# ---------------------------------------------------------------------------
# poisson / log


def _pois_pass(x, y, w, objective):
    c = np.clip(x, -LINEAR_PREDICTOR_MAX, LINEAR_PREDICTOR_MAX,
                out=np.empty(x.shape) if objective else x)
    mu = np.exp(c, out=np.empty(x.shape))
    wq1 = np.subtract(y, mu, out=np.empty(x.shape) if objective else x)
    q = None
    if objective:   # Q(c) + q_1 (x - c), in x
        x -= c
        x *= wq1
        c *= y
        c -= mu
        q = np.add(c, x, out=x)
    wq1 *= w
    mu *= w
    return q, wq1, mu


# ---------------------------------------------------------------------------
# bernoulli / logit


def _bern_pass(x, y, w, objective):
    """With e = exp(-|x|) and r = 1/(1+e), p = expit(x) is r where x >= 0
    and e r elsewhere, formed as max([x >= 0], e) r: 1 r = r and e r are the
    very products a select would pick (e <= 1), and a NaN x gives a NaN p
    either way.  b'' = p(1-p) = e r r."""
    # explicit outputs, so that a 0-d x gives 0-d arrays, not scalars
    e = np.abs(x, out=np.empty(x.shape))
    np.negative(e, out=e)
    np.exp(e, out=e)
    t = np.empty(x.shape)
    q = None
    if objective:
        q = np.multiply(y, x, out=np.empty(x.shape))
        q -= np.maximum(x, 0.0, out=t)
        q -= np.log1p(e, out=t)
    r = np.add(e, 1.0, out=t)
    np.divide(1.0, r, out=r)
    p = np.greater_equal(x, 0.0, out=x)
    np.maximum(p, e, out=p)
    p *= r
    wq1 = np.subtract(y, p, out=p)
    wq1 *= w
    e *= r
    e *= r
    e *= w
    return q, wq1, e


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
    arr = np.asarray(y)   # a mean past e^30 is out of the capped exponent's reach
    bad = ~((arr >= 0) & (arr <= np.exp(LINEAR_PREDICTOR_MAX)))
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        raise DomainError(f"poisson response must be in [0, e^30]; y[{i}] = {arr.ravel()[i]}")


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
    # (x, y, w, objective) -> (Q or None, w q_1, w b''), one pass overwriting x
    evaluate: Callable
    transform: Callable                # (y, delta) -> transformed response
    validate_response: Callable        # y -> None, or DomainError
    needs_delta: bool

    def q012(self, x, y, objective=True):
        """(Q, q_1, q_2) at (x, y), or (None, q_1, q_2) without objective:
        the evaluator on a copy of x at w = 1, its w b'' negated."""
        x, y = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))
        q, q1, b2 = self.evaluate(x.copy(), y, 1.0, objective)
        return q, q1, np.negative(b2, out=b2)

    def q(self, order: int, x, y):
        """Derivative q_order(x, y) of Q(g^{-1}(x), y), order 1 or 2."""
        if order not in (1, 2):
            raise ParameterError(f"derivative order must be 1 or 2, got {order}")
        return self.q012(x, y, objective=False)[order]


GAUSSIAN = FamilySpec(
    name="gaussian",
    evaluate=_gauss_pass,
    transform=_identity_transform,
    validate_response=_validate_gaussian,
    needs_delta=False,
)

POISSON = FamilySpec(
    name="poisson",
    evaluate=_pois_pass,
    transform=_log_transform,
    validate_response=_validate_poisson,
    needs_delta=True,
)

BERNOULLI = FamilySpec(
    name="bernoulli",
    evaluate=_bern_pass,
    transform=_logit_transform,
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
