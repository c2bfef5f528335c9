"""Jensen-type gap divergences for quasiconvex and quasiconcave generators.

All four divergences are plain formulas valid for any generator; only the
sign guarantees (nonnegativity, law of the indiscernibles) need the declared
class, so a class mismatch warns instead of raising.
"""

from __future__ import annotations

import math
import sys
import warnings

from .core import (Generator, GeneratorClassWarning, NonPositiveError, _eval, _lerp,
                   _points, _values)


def validate_skew(alpha: float) -> float:
    """Skew parameters live strictly inside (0, 1)."""
    a = float(alpha)
    if not 0.0 < a < 1.0:
        raise ValueError(f"skew alpha must lie in (0, 1), got {a}")
    return a


def _warn_class(fn: str, g: Generator) -> None:
    """Warn from the caller of ``fn`` that g's declared class voids its sign guarantees."""
    warnings.warn(
        f"{fn} with {g.declared_class} generator {g.name or '?'}: sign guarantees do not apply",
        GeneratorClassWarning,
        stacklevel=3,
    )


def _three_values(Q: Generator, theta, theta_p, alpha: float):
    t, tp = _points(theta, theta_p)
    qt, qtp = _values(Q, t, tp)
    return qt, qtp, _eval(Q, _lerp(t, tp, alpha))


def qcvx_jensen(Q: Generator, theta, theta_p, alpha: float) -> float:
    """max{Q(theta), Q(theta_p)} - Q((1-alpha)*theta + alpha*theta_p).

    Nonnegative for strictly quasiconvex Q, zero iff the points coincide.
    """
    a = validate_skew(alpha)
    if Q.declared_class == "quasiconcave":
        _warn_class("qcvx_jensen", Q)
    qt, qtp, qmid = _three_values(Q, theta, theta_p, a)
    return max(qt, qtp) - qmid


def qccv_jensen(H: Generator, theta, theta_p, alpha: float) -> float:
    """H((1-alpha)*theta + alpha*theta_p) - min{H(theta), H(theta_p)}.

    Equals qcvx_jensen of the negated generator.
    """
    a = validate_skew(alpha)
    if H.declared_class in ("convex", "quasiconvex"):
        _warn_class("qccv_jensen", H)
    ht, htp, hmid = _three_values(H, theta, theta_p, a)
    return hmid - min(ht, htp)


def log_ratio_gap(Q: Generator, theta, theta_p, alpha: float) -> float:
    """-log( Q(midpoint) / max{Q(theta), Q(theta_p)} ).

    Requires the values actually used to be strictly positive; a vanishing or
    negative generator value is reported as an error since the ratio gap is
    then undefined.
    """
    a = validate_skew(alpha)
    qt, qtp, qmid = _three_values(Q, theta, theta_p, a)
    top = max(qt, qtp)
    if qmid <= 0.0:
        raise NonPositiveError(
            f"log_ratio_gap: generator value {qmid} at the interpolated point"
        )
    if top <= 0.0:
        raise NonPositiveError(f"log_ratio_gap: endpoint maximum {top} is not positive")
    ratio = qmid / top
    if sys.float_info.min <= ratio < math.inf:
        return -math.log(ratio)
    # The quotient left the normal floats (0, subnormal or inf), so take logs first.
    return math.log(top) - math.log(qmid)


def extended_jensen(Q: Generator, theta, theta_p, alpha: float) -> float:
    """(1-alpha)*Q(theta) + alpha*Q(theta_p) - Q(interpolation).

    The ordinary skewed Jensen gap, extended to arbitrary generators; may be
    negative when Q is not convex (e.g. Q = log).
    """
    a = validate_skew(alpha)
    qt, qtp, qmid = _three_values(Q, theta, theta_p, a)
    return (1.0 - a) * qt + a * qtp - qmid
