"""Weighted bivariate means and the comparative-convexity divergences built on them.

Power means are evaluated in normalized/log form so that exponents as large as
2**20 neither overflow nor lose the max/min limit behavior.
"""

from __future__ import annotations

import math
import sys
import warnings
from typing import Optional

from .core import (
    DimensionError,
    ExtReal,
    Generator,
    GeneratorClassWarning,
    NonPositiveError,
    RangeError,
    _Frozen,
    _check_finite,
    _eval,
    _gradient,
    _in_range,
    _lerp,
    _pair,
    _validate_weight,
)
from .bregman import _linear_term

_LOG_MAX = math.log(sys.float_info.max)  # ~709.78, the overflow threshold
_NORMAL_MIN = sys.float_info.min
_SMALL_DELTA = 2.0**-10  # power means with |delta| up to this sum expm1 terms
# The quasi-arithmetic inverse: secant steps that leave more than half the
# bracket before bisection takes over, and how far inside an end it probes.
_SLOW_STEPS = 8
_PROBE_ULPS = 4.0

MEAN_KINDS = ("arithmetic", "power", "quasi-arithmetic", "max", "min")


class MeanSpec(_Frozen):
    """A weighted bivariate mean: arithmetic, power(delta), quasi-arithmetic(f), max, or min.

    power(0) is the geometric mean; quasi-arithmetic needs a strictly
    increasing 1-D generator f, inverted by bracketed regula falsi (Illinois)
    finished by bisection: about 10 evaluations of f per mean, and
    bisection's float whenever f is non-decreasing.  An f not declared
    quasilinear warns ``GeneratorClassWarning``, as the root may not be unique.
    """

    _fields = ("kind", "delta", "f")

    def __init__(self, kind: str, delta: Optional[float] = None, f: Optional[Generator] = None):
        if kind not in MEAN_KINDS:
            raise ValueError(f"unknown mean kind {kind!r}")
        if kind == "power":
            if delta is None:
                raise ValueError("power mean needs an exponent delta")
            if math.isnan(float(delta)):
                raise ValueError(f"power mean exponent delta must be a number, got {delta}")
        if kind == "quasi-arithmetic":
            if f is None:
                raise ValueError("quasi-arithmetic mean needs a 1-D generator f")
            if f.dim != 1:
                raise DimensionError("quasi-arithmetic generator must be 1-D")
            if f.declared_class != "quasilinear":  # not monotone, as far as f declares
                warnings.warn(f"quasi-arithmetic mean with {f.declared_class} generator "
                              f"{f.name or '?'}: the mean may be one of several roots",
                              GeneratorClassWarning, stacklevel=2)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "delta", None if delta is None else float(delta))
        object.__setattr__(self, "f", f)

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


_ARITHMETIC = MeanSpec("arithmetic")


def _power_mean(x: float, y: float, alpha: float, delta: float) -> float:
    # Below 1e-300 the power mean is the geometric mean to the last bit, and
    # delta * log(v / m) could be subnormal.
    if abs(delta) < 1e-300:
        return math.exp((1.0 - alpha) * math.log(x) + alpha * math.log(y))
    # Normalize by the dominating argument so |ratio| <= 1 before powering:
    # max for delta > 0, min for delta < 0.  Underflow of the other term is
    # exactly the max/min limit.
    m = max(x, y) if delta > 0.0 else min(x, y)
    if abs(delta) <= _SMALL_DELTA:
        # log(s) / delta would divide the rounding of s by delta.  Each
        # delta * log(v / m) lies in [-1.43, 0] for positive floats, so the sum
        # of the expm1 terms is in [-0.76, 0] and log1p cancels nothing.
        lm = math.log(m)
        s = ((1.0 - alpha) * math.expm1(delta * (math.log(x) - lm))
             + alpha * math.expm1(delta * (math.log(y) - lm)))
        return math.exp(lm + math.log1p(s) / delta)
    # Both ratios^delta are <= 1 by the choice of m, so s <= 1 up to rounding.
    s = min((1.0 - alpha) * _ratio_pow(x, m, delta) + alpha * _ratio_pow(y, m, delta), 1.0)
    if s == 0.0:  # m has weight 0 and the other term underflowed: the mean is the other
        return min(x, y) if delta > 0.0 else max(x, y)
    z = math.log(s) / delta
    # Past exp's normal range m * exp(z) overflows or keeps few digits, where
    # the mean itself may not.
    return m * math.exp(z) if abs(z) < 708.0 else math.exp(math.log(m) + z)


def _ratio_pow(v: float, m: float, delta: float) -> float:
    """(v / m) ** delta for v, m > 0, in the log domain when v / m is not a normal float."""
    r = v / m
    if _NORMAL_MIN <= r < math.inf:
        return r**delta
    return math.exp(delta * (math.log(v) - math.log(m)))


def _qa_inverse(f: Generator, target: float, lo: float, hi: float,
                flo: float, fhi: float) -> float:
    """Solve f(z) = target for z in [lo, hi], where flo, fhi = f(lo), f(hi).

    Every step keeps the bracket f(lo) < target <= f(hi).  Regula falsi with
    the Illinois rule (Dowell and Jarratt, BIT 11, 1971) narrows it while its
    point falls strictly inside, up to _SLOW_STEPS slow steps; then one probe
    _PROBE_ULPS inside the end it moved last, and bisection down to adjacent
    floats.  For arguments in [0.05, 20] that is about 10 evaluations of f
    for log, sqrt and cubic and 4 for linear, where bisection alone takes
    about 52.  When f is non-decreasing on the floats of [lo, hi] the
    crossing is unique, so the result is bisection's float; the count exceeds
    bisection's by at most the _SLOW_STEPS budget and a few steps.
    """
    fe = f.eval
    if not flo <= fhi:
        raise NonPositiveError(
            f"quasi-arithmetic generator {f.name or '?'} is not increasing on [{lo}, {hi}]"
        )
    # The target is a convex combination of flo and fhi, so past either end
    # it is only rounding.
    if target <= flo:
        return lo
    if target >= fhi:
        return hi
    # glo < 0 <= ghi are f - target at the ends; the end that stays put twice
    # in a row has its value halved.  A step that leaves more than half the
    # bracket is slow; slow steps are budgeted, so that a secant crawling
    # across many decades falls back to bisection.
    glo, ghi, side, slow = flo - target, fhi - target, 0, _SLOW_STEPS
    while glo < 0.0 < ghi and slow:
        z = lo + glo / (glo - ghi) * (hi - lo)
        if not lo < z < hi:  # rounded onto an end, or NaN
            break
        width = hi - lo
        gz = fe((z,)) - target
        if gz < 0.0:
            lo, glo = z, gz
            if side < 0:
                ghi *= 0.5
            side = -1
        else:
            hi, ghi = z, gz
            if side > 0:
                glo *= 0.5
            side = 1
        if hi - lo > 0.5 * width:
            slow -= 1
    p = lo + _PROBE_ULPS * math.ulp(lo) if side < 0 else hi - _PROBE_ULPS * math.ulp(hi)
    if lo < p < hi:
        if fe((p,)) < target:
            lo = p
        else:
            hi = p
    # Halving each end first keeps the midpoint of two huge ends finite.
    while True:
        mid = 0.5 * lo + 0.5 * hi
        if mid <= lo or mid >= hi:
            return mid
        if fe((mid,)) < target:
            lo = mid
        else:
            hi = mid


def weighted_mean(spec: MeanSpec, x: float, y: float, alpha: float) -> float:
    """Evaluate the weighted mean M_alpha(x, y); alpha in [0, 1].

    Every kind raises DomainError for a non-finite argument; power and
    quasi-arithmetic kinds also require strictly positive arguments.
    The result is clamped into [min(x, y), max(x, y)] so in-betweenness holds
    exactly despite rounding.
    """
    a = _validate_weight(alpha)
    x, y = float(x), float(y)
    _check_finite((x, y))
    return _weighted_mean(spec, x, y, a)


# weighted_mean on checked arguments: finite floats x and y and a weight a in
# [0, 1].  _mn_jensen and the means suite call it on values already checked.
def _weighted_mean(spec: MeanSpec, x: float, y: float, a: float) -> float:
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


# The argument checks of mn_jensen: alpha in [0, 1].
def _weight(fn: str, F: Generator, alpha: float, M: MeanSpec, N: MeanSpec) -> tuple:
    return _validate_weight(alpha), M, N


# The argument checks of power_mean_jensen: alpha in [0, 1], then the exponent,
# which the kernel takes as its power mean.
def _power_weight(fn: str, F: Generator, alpha: float, delta: float) -> tuple:
    return _validate_weight(alpha), MeanSpec.power(delta)


def _mn_jensen(F: Generator, a: float, M, N, t, tp, ft: float, ftp: float) -> float:
    if M.kind == "arithmetic":
        mpoint = _lerp(t, tp, a)
    elif len(t) != 1:
        raise DimensionError(f"non-arithmetic argument mean {M.kind!r} requires 1-D parameters")
    else:
        mpoint = (_weighted_mean(M, t[0], tp[0], a),)
    return _in_range(_weighted_mean(N, ft, ftp, a) - _eval(F, mpoint), "the (M, N)-Jensen gap")


def mn_jensen(F: Generator, M: MeanSpec, N: MeanSpec, alpha: float,
              theta, theta_p) -> float:
    """N_alpha(F(theta), F(theta_p)) - F(M_alpha(theta, theta_p)).

    Nonnegative when F is (M, N)-strictly convex.  Non-arithmetic M means are
    defined on reals only, so they require 1-D parameters; the arithmetic M
    works coordinatewise in any dimension.
    """
    return _mn_jensen(F, *_weight("mn_jensen", F, alpha, M, N), *_pair(F, theta, theta_p))


def _power_mean_jensen(F: Generator, a: float, N: MeanSpec, t, tp, ft: float, ftp: float) -> float:
    if ft <= 0.0 or ftp <= 0.0:
        raise NonPositiveError(f"power_mean_jensen requires positive F values, got ({ft}, {ftp})")
    return _mn_jensen(F, a, _ARITHMETIC, N, t, tp, ft, ftp)


def power_mean_jensen(F: Generator, delta: float, alpha: float,
                      theta, theta_p) -> float:
    """Weighted power mean of the F values minus F at the interpolated point.

    mn_jensen's (arithmetic, P_delta) comparative Jensen gap.  Requires
    F(theta) > 0 and F(theta_p) > 0.  Tends to the quasiconvex Jensen
    divergence as delta grows.
    """
    return _power_mean_jensen(F, *_power_weight("power_mean_jensen", F, alpha, delta),
                              *_pair(F, theta, theta_p))


def _real_pow(base: float, expo: float, what: str) -> float:
    if base == 0.0:
        if expo > 0.0:
            return 0.0
        raise RangeError(f"{what}: zero base with exponent {expo}")
    if base < 0.0 and expo != int(expo):
        raise NonPositiveError(f"{what}: negative base {base} with non-integer exponent {expo}")
    return math.pow(base, expo)


def _power_gap(direct, x: float, y: float, d: float) -> float:
    """``direct()``'s (x^d - y^d) / (d y^(d-1)), or (y/d)((x/y)^d - 1) in logs if that fails."""
    try:
        gap = direct()
    except OverflowError:
        gap = math.inf
    except ZeroDivisionError:  # d y^(d-1) underflowed to 0
        if not (x > 0.0 and y > 0.0):
            raise RangeError(
                f"power gap: d * y^(d-1) underflows to 0 at y = {y}, d = {d}") from None
        gap = math.inf
    if math.isfinite(gap) or not (x > 0.0 and y > 0.0):
        return gap
    log_ratio = d * (math.log(x) - math.log(y))
    if log_ratio < _LOG_MAX:
        return y * (math.expm1(log_ratio) / d)
    log_gap = math.log(y) + log_ratio - math.log(abs(d))
    return math.copysign(math.exp(log_gap), d) if log_gap < _LOG_MAX else math.inf


# The argument checks of power_mean_bregman: nonzero exponents, a 1-D generator.
def _exponents(fn: str, F: Generator, delta1: float, delta2: float) -> tuple:
    d1, d2 = float(delta1), float(delta2)
    if d1 == 0.0 or d2 == 0.0:
        raise ValueError("power exponents delta1, delta2 must be nonzero")
    if math.isnan(d1) or math.isnan(d2):
        raise ValueError(f"power exponents delta1, delta2 must be numbers, got ({d1}, {d2})")
    if F.dim != 1:
        raise DimensionError(f"{fn} is defined for 1-D generators")
    return d1, d2


# The kernel takes p and q as given: its check names both before it evaluates either.
def _power_mean_bregman(F: Generator, d1: float, d2: float, p: float, q: float) -> float:
    p, q = float(p), float(q)
    if p <= 0.0 or q <= 0.0:
        raise NonPositiveError(f"power_mean_bregman requires p, q > 0, got ({p}, {q})")
    fp, fq = _eval(F, (p,)), _eval(F, (q,))
    if fq == 0.0:
        raise RangeError("power_mean_bregman: F(q) = 0")
    fprime = _gradient(F, (q,))[0]
    term1 = _power_gap(lambda: (_real_pow(fp, d2, "F(p)^delta2") - _real_pow(fq, d2, "F(q)^delta2"))
                       / (d2 * _real_pow(fq, d2 - 1.0, "F(q)^(delta2-1)")), fp, fq, d2)
    term2 = _power_gap(lambda: (p**d1 - q**d1) / (d1 * q ** (d1 - 1.0)), p, q, d1) * fprime
    return _in_range(term1 - term2, "power_mean_bregman value")


def power_mean_bregman(F: Generator, delta1: float, delta2: float,
                       p: float, q: float) -> float:
    """Two-exponent power-mean Bregman divergence of a scalar generator.

    (F(p)^d2 - F(q)^d2) / (d2 * F(q)^(d2-1)) - (p^d1 - q^d1) / (d1 * q^(d1-1)) * F'(q)
    with d1, d2 nonzero and p, q > 0.  RangeError when F(q) = 0, when F(p) = 0
    meets d2 < 0, when d2 * F(q)^(d2-1) underflows to 0 for F values that are
    not both positive, or when the value leaves the floats.
    """
    return _power_mean_bregman(F, *_exponents("power_mean_bregman", F, delta1, delta2), p, q)


# The argument checks of r_power_bregman: r >= 1, a 1-D generator.
def _r_exponent(fn: str, F: Generator, r: float) -> tuple:
    r = float(r)
    if not r >= 1.0:
        raise ValueError(f"r must be >= 1, got {r}")
    if F.dim != 1:
        raise DimensionError(f"{fn} is defined for 1-D generators")
    return (r,)


def _r_power_bregman(F: Generator, grad, r: float, t, tp, ft: float, ftp: float) -> ExtReal:
    if ft <= 0.0 or ftp <= 0.0:
        raise NonPositiveError(f"r_power_bregman requires positive F values, got ({ft}, {ftp})")
    log_term = r * math.log(ft) - (r - 1.0) * math.log(ftp) - math.log(r)
    if log_term != log_term:  # both powers overflowed: inf - inf
        log_term = r * (math.log(ft) - math.log(ftp)) + math.log(ftp) - math.log(r)
        if r == math.inf:  # the r -> inf limit of F(theta)^r / (r F(theta_p)^(r-1))
            log_term = math.inf if ft > ftp else -math.inf
    if log_term > _LOG_MAX:
        return ExtReal(math.inf)
    return ExtReal(_in_range(math.exp(log_term) - ftp / r - _linear_term(F, grad, t, tp),
                             "r_power_bregman value"))


def r_power_bregman(F: Generator, r: float, theta: float, theta_p: float) -> ExtReal:
    """One-exponent power Bregman divergence; tends to qcvx_bregman as r grows.

    F(theta)^r / (r * F(theta_p)^(r-1)) - F(theta_p)/r - (theta - theta_p) * F'(theta_p),
    with the first term evaluated in the log domain.  Returns +inf once the
    log-domain exponent passes the float overflow threshold, matching the
    r -> inf limit when F(theta) > F(theta_p); r = inf is qcvx_bregman's value.
    Below the threshold, RangeError when the linear term or the value leaves the floats.
    """
    return _r_power_bregman(F, _gradient, *_r_exponent("r_power_bregman", F, r),
                            *_pair(F, theta, theta_p))
