"""Weighted bivariate means and the comparative-convexity divergences built on them.

Power means are evaluated in normalized/log form so that exponents as large as
2**20 neither overflow nor lose the max/min limit behavior.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional

from .core import (
    DimensionError,
    ExtReal,
    Generator,
    NonPositiveError,
    _eval,
    _gradient,
    _in_range,
    _lerp,
    _points,
    _values,
)

_LOG_MAX = math.log(sys.float_info.max)  # ~709.78, the overflow threshold
_NORMAL_MIN = sys.float_info.min

MEAN_KINDS = ("arithmetic", "power", "quasi-arithmetic", "max", "min")


@dataclass(frozen=True)
class MeanSpec:
    """A weighted bivariate mean: arithmetic, power(delta), quasi-arithmetic(f), max, or min.

    power(0) is the geometric mean; quasi-arithmetic needs a strictly
    increasing 1-D generator f, inverted by bracketed bisection.
    """

    kind: str
    delta: Optional[float] = None
    f: Optional[Generator] = None

    def __post_init__(self):
        if self.kind not in MEAN_KINDS:
            raise ValueError(f"unknown mean kind {self.kind!r}")
        if self.kind == "power" and self.delta is None:
            raise ValueError("power mean needs an exponent delta")
        if self.kind == "quasi-arithmetic":
            if self.f is None:
                raise ValueError("quasi-arithmetic mean needs a 1-D generator f")
            if self.f.dim != 1:
                raise DimensionError("quasi-arithmetic generator must be 1-D")

    @classmethod
    def arithmetic(cls) -> "MeanSpec":
        return cls("arithmetic")

    @classmethod
    def power(cls, delta: float) -> "MeanSpec":
        return cls("power", delta=float(delta))

    @classmethod
    def quasi_arithmetic(cls, f: Generator) -> "MeanSpec":
        return cls("quasi-arithmetic", f=f)

    @classmethod
    def maximum(cls) -> "MeanSpec":
        return cls("max")

    @classmethod
    def minimum(cls) -> "MeanSpec":
        return cls("min")


def _validate_weight(alpha: float) -> float:
    a = float(alpha)
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"mean weight must lie in [0, 1], got {a}")
    return a


def _power_mean(x: float, y: float, alpha: float, delta: float) -> float:
    if delta == 0.0:
        return math.exp((1.0 - alpha) * math.log(x) + alpha * math.log(y))
    # Normalize by the dominating argument so |ratio| <= 1 before powering:
    # max for delta > 0, min for delta < 0.  Underflow of the other term is
    # exactly the max/min limit.
    m = max(x, y) if delta > 0.0 else min(x, y)
    # Both ratios^delta are <= 1 by the choice of m, so s <= 1 up to rounding.
    s = min((1.0 - alpha) * _ratio_pow(x, m, delta) + alpha * _ratio_pow(y, m, delta), 1.0)
    if s == 0.0:
        return m
    return m * math.exp(math.log(s) / delta)


def _ratio_pow(v: float, m: float, delta: float) -> float:
    """(v / m) ** delta for v, m > 0, in the log domain when v / m is not a normal float."""
    r = v / m
    if _NORMAL_MIN <= r < math.inf:
        return r**delta
    return math.exp(delta * (math.log(v) - math.log(m)))


def _qa_inverse(f: Generator, target: float, lo: float, hi: float,
                flo: float, fhi: float) -> float:
    """Solve f(z) = target for z in [lo, hi] by bisection to 1e-13; flo, fhi = f(lo), f(hi)."""
    fe = f.eval
    if not flo <= fhi:
        raise NonPositiveError(
            f"quasi-arithmetic generator {f.name or '?'} is not increasing on [{lo}, {hi}]"
        )
    if target <= flo:
        if target < flo - 1e-12 * (1.0 + abs(flo)):
            raise ValueError("quasi-arithmetic inverse: bracket failure below")
        return lo
    if target >= fhi:
        if target > fhi + 1e-12 * (1.0 + abs(fhi)):
            raise ValueError("quasi-arithmetic inverse: bracket failure above")
        return hi
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if fe((mid,)) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def weighted_mean(spec: MeanSpec, x: float, y: float, alpha: float) -> float:
    """Evaluate the weighted mean M_alpha(x, y); alpha in [0, 1].

    Power and quasi-arithmetic kinds require strictly positive arguments.
    The result is clamped into [min(x, y), max(x, y)] so in-betweenness holds
    exactly despite rounding.
    """
    a = _validate_weight(alpha)
    x, y = float(x), float(y)
    if spec.kind == "arithmetic":
        return (1.0 - a) * x + a * y
    if spec.kind == "max":
        return max(x, y)
    if spec.kind == "min":
        return min(x, y)
    if x <= 0.0 or y <= 0.0:
        raise NonPositiveError(
            f"{spec.kind} mean requires strictly positive arguments, got ({x}, {y})"
        )
    lo, hi = min(x, y), max(x, y)
    if spec.kind == "power":
        value = _power_mean(x, y, a, spec.delta)
    else:
        fx = _eval(spec.f, (x,))
        fy = _eval(spec.f, (y,))
        flo, fhi = (fx, fy) if x <= y else (fy, fx)
        value = _qa_inverse(spec.f, (1.0 - a) * fx + a * fy, lo, hi, flo, fhi)
    return min(max(value, lo), hi)


def mn_jensen(F: Generator, M: MeanSpec, N: MeanSpec, alpha: float,
              theta, theta_p) -> float:
    """N_alpha(F(theta), F(theta_p)) - F(M_alpha(theta, theta_p)).

    Nonnegative when F is (M, N)-strictly convex.  Non-arithmetic M means are
    defined on reals only, so they require 1-D parameters; the arithmetic M
    works coordinatewise in any dimension.
    """
    t, tp = _points(theta, theta_p)
    a = _validate_weight(alpha)
    if M.kind != "arithmetic" and len(t) != 1:
        raise DimensionError(
            f"non-arithmetic argument mean {M.kind!r} requires 1-D parameters"
        )
    ft, ftp = _values(F, t, tp)
    if M.kind == "arithmetic":
        mpoint = _lerp(t, tp, a)
    else:
        mpoint = (weighted_mean(M, t[0], tp[0], a),)
    return weighted_mean(N, ft, ftp, a) - _eval(F, mpoint)


def power_mean_jensen(F: Generator, delta: float, alpha: float,
                      theta, theta_p) -> float:
    """Weighted power mean of the F values minus F at the interpolated point.

    Requires F(theta) > 0 and F(theta_p) > 0.  Tends to the quasiconvex
    Jensen divergence as delta grows.
    """
    t, tp = _points(theta, theta_p)
    a = _validate_weight(alpha)
    ft, ftp = _values(F, t, tp)
    if ft <= 0.0 or ftp <= 0.0:
        raise NonPositiveError(
            f"power_mean_jensen requires positive F values, got ({ft}, {ftp})"
        )
    return weighted_mean(MeanSpec.power(delta), ft, ftp, a) - _eval(F, _lerp(t, tp, a))


def _real_pow(base: float, expo: float, what: str) -> float:
    if base == 0.0:
        if expo > 0.0:
            return 0.0
        raise ZeroDivisionError(f"{what}: zero base with exponent {expo}")
    if base < 0.0 and expo != int(expo):
        raise NonPositiveError(f"{what}: negative base {base} with non-integer exponent {expo}")
    return math.pow(base, expo)


def _power_gap(direct, x: float, y: float, d: float) -> float:
    """``direct()``'s (x^d - y^d) / (d y^(d-1)), or (y/d)((x/y)^d - 1) in logs if a power overflows."""
    try:
        gap = direct()
    except OverflowError:
        gap = math.inf
    if math.isfinite(gap) or not (x > 0.0 and y > 0.0):
        return gap
    log_ratio = d * (math.log(x) - math.log(y))
    if log_ratio < _LOG_MAX:
        return y * (math.expm1(log_ratio) / d)
    log_gap = math.log(y) + log_ratio - math.log(abs(d))
    return math.copysign(math.exp(log_gap), d) if log_gap < _LOG_MAX else math.inf


def power_mean_bregman(F: Generator, delta1: float, delta2: float,
                       p: float, q: float) -> float:
    """Two-exponent power-mean Bregman divergence of a scalar generator.

    (F(p)^d2 - F(q)^d2) / (d2 * F(q)^(d2-1)) - (p^d1 - q^d1) / (d1 * q^(d1-1)) * F'(q)
    with d1, d2 nonzero and p, q > 0; RangeError when the value leaves the floats.
    """
    d1, d2 = float(delta1), float(delta2)
    if d1 == 0.0 or d2 == 0.0:
        raise ValueError("power exponents delta1, delta2 must be nonzero")
    if F.dim != 1:
        raise DimensionError("power_mean_bregman is defined for 1-D generators")
    p, q = float(p), float(q)
    if p <= 0.0 or q <= 0.0:
        raise NonPositiveError(f"power_mean_bregman requires p, q > 0, got ({p}, {q})")
    fp, fq = _values(F, (p,), (q,))
    if fq == 0.0:
        raise ZeroDivisionError("power_mean_bregman: F(q) = 0")
    fprime = _gradient(F, (q,))[0]
    term1 = _power_gap(lambda: (_real_pow(fp, d2, "F(p)^delta2") - _real_pow(fq, d2, "F(q)^delta2"))
                       / (d2 * _real_pow(fq, d2 - 1.0, "F(q)^(delta2-1)")), fp, fq, d2)
    term2 = _power_gap(lambda: (p**d1 - q**d1) / (d1 * q ** (d1 - 1.0)), p, q, d1) * fprime
    return _in_range(term1 - term2, "power_mean_bregman value")


def r_power_bregman(F: Generator, r: float, theta: float, theta_p: float) -> ExtReal:
    """One-exponent power Bregman divergence; tends to qcvx_bregman as r grows.

    F(theta)^r / (r * F(theta_p)^(r-1)) - F(theta_p)/r - (theta - theta_p) * F'(theta_p),
    with the first term evaluated in the log domain.  Returns +inf once the
    log-domain exponent passes the float overflow threshold, matching the
    analytic r -> inf divergence when F(theta) > F(theta_p).
    """
    r = float(r)
    if r < 1.0:
        raise ValueError(f"r must be >= 1, got {r}")
    if F.dim != 1:
        raise DimensionError("r_power_bregman is defined for 1-D generators")
    t, tp = _points(theta, theta_p)
    ft, ftp = _values(F, t, tp)
    if ft <= 0.0 or ftp <= 0.0:
        raise NonPositiveError(
            f"r_power_bregman requires positive F values, got ({ft}, {ftp})"
        )
    log_term = r * math.log(ft) - (r - 1.0) * math.log(ftp) - math.log(r)
    if log_term > _LOG_MAX:
        return ExtReal(math.inf)
    fprime = _gradient(F, tp)[0]
    return ExtReal(math.exp(log_term) - ftp / r - (t[0] - tp[0]) * fprime)
