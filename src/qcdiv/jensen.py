"""Jensen-type gap divergences for quasiconvex and quasiconcave generators.

All four divergences are plain formulas valid for any generator; only the
sign guarantees (nonnegativity, law of the indiscernibles) need the declared
class, so a class mismatch warns instead of raising.
"""

from __future__ import annotations

import math
import sys
import warnings

from .core import Generator, GeneratorClassWarning, NonPositiveError, _eval, _in_range, _lerp, _pair


# The declared classes that void each divergence's sign guarantees.
_VOIDING = {"qcvx_jensen": ("quasiconcave",), "qccv_jensen": ("convex", "quasiconvex")}


# fn's argument checks: alpha strictly inside (0, 1), then a warning from the
# caller of fn when the declared class of Q voids fn's sign guarantees.
def _skew(fn: str, Q: Generator, alpha: float) -> tuple:
    a = float(alpha)
    if not 0.0 < a < 1.0:
        raise ValueError(f"skew alpha must lie in (0, 1), got {a}")
    if Q.declared_class in _VOIDING.get(fn, ()):
        warnings.warn(f"{fn} with {Q.declared_class} generator {Q.name or '?'}: "
                      "sign guarantees do not apply", GeneratorClassWarning, stacklevel=3)
    return (a,)


def _qcvx_jensen(Q: Generator, a: float, t, tp, qt: float, qtp: float) -> float:
    return _in_range(max(qt, qtp) - _eval(Q, _lerp(t, tp, a)), "qcvx_jensen value")


def qcvx_jensen(Q: Generator, theta, theta_p, alpha: float) -> float:
    """max{Q(theta), Q(theta_p)} - Q((1-alpha)*theta + alpha*theta_p).

    Nonnegative for strictly quasiconvex Q, zero iff the points coincide.
    """
    return _qcvx_jensen(Q, *_skew("qcvx_jensen", Q, alpha), *_pair(Q, theta, theta_p))


def _qccv_jensen(H: Generator, a: float, t, tp, ht: float, htp: float) -> float:
    return _in_range(_eval(H, _lerp(t, tp, a)) - min(ht, htp), "qccv_jensen value")


def qccv_jensen(H: Generator, theta, theta_p, alpha: float) -> float:
    """H((1-alpha)*theta + alpha*theta_p) - min{H(theta), H(theta_p)}.

    Equals qcvx_jensen of the negated generator.
    """
    return _qccv_jensen(H, *_skew("qccv_jensen", H, alpha), *_pair(H, theta, theta_p))


def _log_ratio_gap(Q: Generator, a: float, t, tp, qt: float, qtp: float) -> float:
    qmid = _eval(Q, _lerp(t, tp, a))
    top = max(qt, qtp)
    if qmid <= 0.0:
        raise NonPositiveError(f"log_ratio_gap: generator value {qmid} at the interpolated point")
    if top <= 0.0:
        raise NonPositiveError(f"log_ratio_gap: endpoint maximum {top} is not positive")
    ratio = qmid / top
    if sys.float_info.min <= ratio < math.inf:
        return -math.log(ratio)
    # The quotient left the normal floats (0, subnormal or inf), so take logs first.
    return math.log(top) - math.log(qmid)


def log_ratio_gap(Q: Generator, theta, theta_p, alpha: float) -> float:
    """-log( Q(midpoint) / max{Q(theta), Q(theta_p)} ).

    Requires the values actually used to be strictly positive; a vanishing or
    negative generator value is reported as an error since the ratio gap is
    then undefined.
    """
    return _log_ratio_gap(Q, *_skew("log_ratio_gap", Q, alpha), *_pair(Q, theta, theta_p))


def _extended_jensen(Q: Generator, a: float, t, tp, qt: float, qtp: float) -> float:
    return _in_range((1.0 - a) * qt + a * qtp - _eval(Q, _lerp(t, tp, a)), "extended_jensen value")


def extended_jensen(Q: Generator, theta, theta_p, alpha: float) -> float:
    """(1-alpha)*Q(theta) + alpha*Q(theta_p) - Q(interpolation).

    The ordinary skewed Jensen gap, extended to arbitrary generators; may be
    negative when Q is not convex (e.g. Q = log).
    """
    return _extended_jensen(Q, *_skew("extended_jensen", Q, alpha), *_pair(Q, theta, theta_p))
