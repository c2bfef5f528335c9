"""KL divergence for nested-support families and exponential-family identities.

The two families here have parameter-ordered supports (0, e^theta), so the KL
divergence is finite in exactly one orientation, which is what connects it to
the quasiconvex Bregman divergence of the identity generator.  All densities
are with respect to Lebesgue measure on an interval.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .core import (
    ExtReal,
    Generator,
    PreconditionError,
    _tie_sensitive,
    as_vector,
    check_same_dim,
    eval_generator,
    gradient,
    interpolate,
)
from .bregman import bregman


def _validate_positive(name: str, value: float) -> float:
    v = float(value)
    if not v > 0.0:
        raise ValueError(f"{name} must be > 0, got {v}")
    return v


@dataclass(frozen=True)
class NestedUniform:
    """Uniform density on (0, e^theta): p(x) = exp(-theta) there, 0 elsewhere."""

    theta: float

    def __post_init__(self):
        _validate_positive("theta", self.theta)

    def support(self):
        return (0.0, math.exp(self.theta))

    def pdf(self, x: float) -> float:
        lo, hi = self.support()
        return math.exp(-self.theta) if lo < x < hi else 0.0

    def log_pdf(self, x: float) -> float:
        return -self.theta


@dataclass(frozen=True)
class PowerNested:
    """Density alpha * x^(alpha-1) * exp(-theta*alpha) on (0, e^theta), alpha > 1."""

    alpha: float
    theta: float

    def __post_init__(self):
        if not self.alpha > 1.0:
            raise ValueError(f"power family exponent alpha must be > 1, got {self.alpha}")
        _validate_positive("theta", self.theta)

    def support(self):
        return (0.0, math.exp(self.theta))

    def pdf(self, x: float) -> float:
        lo, hi = self.support()
        if not lo < x < hi:
            return 0.0
        return self.alpha * x ** (self.alpha - 1.0) * math.exp(-self.theta * self.alpha)

    def log_pdf(self, x: float) -> float:
        return math.log(self.alpha) + (self.alpha - 1.0) * math.log(x) - self.theta * self.alpha


def kl_nested_uniform(theta: float, theta_p: float) -> ExtReal:
    """KL between nested uniforms: theta_p - theta when theta <= theta_p, else +inf.

    Support inclusion supp(p_theta) within supp(p_theta_p) holds exactly when
    theta <= theta_p; the closed form equals the quasiconvex Bregman
    divergence of the identity generator.
    """
    t = _validate_positive("theta", theta)
    tp = _validate_positive("theta_p", theta_p)
    tie = _tie_sensitive(t, tp)
    if t <= tp:
        return ExtReal(tp - t, tie_sensitive=tie)
    return ExtReal(math.inf, tie_sensitive=tie)


def kl_power_nested(alpha: float, theta: float, theta_p: float) -> ExtReal:
    """KL between power-nested densities: alpha * (theta_p - theta) when theta <= theta_p."""
    a = float(alpha)
    if not a > 1.0:
        raise ValueError(f"power family exponent alpha must be > 1, got {a}")
    t = _validate_positive("theta", theta)
    tp = _validate_positive("theta_p", theta_p)
    tie = _tie_sensitive(t, tp)
    if t <= tp:
        return ExtReal(a * (tp - t), tie_sensitive=tie)
    return ExtReal(math.inf, tie_sensitive=tie)


@dataclass(frozen=True)
class ExpFamily:
    """An exponential family represented by its cumulant generator F.

    F must be strictly convex and differentiable on its domain; that claim is
    checkable with ``validate_convexity`` (second differences along random
    segments), not enforced at construction.
    """

    F: Generator

    def validate_convexity(self, box, n_lines: int = 16, n_points: int = 33,
                           seed: int = 0) -> bool:
        rng = random.Random(seed)
        fe = self.F.eval
        for _ in range(n_lines):
            p = tuple(rng.uniform(iv.lower, iv.upper) for iv in box.intervals)
            q = tuple(rng.uniform(iv.lower, iv.upper) for iv in box.intervals)
            if p == q:
                continue
            vals = [fe(interpolate(p, q, i / (n_points - 1))) for i in range(n_points)]
            scale = 1.0 + max(abs(v) for v in vals)
            for i in range(1, n_points - 1):
                second = vals[i - 1] - 2.0 * vals[i] + vals[i + 1]
                if second <= -1e-9 * scale:
                    return False
        return True


def expfam_cross_entropy(fam: ExpFamily, theta, theta_p) -> float:
    """Cross-entropy h(p_theta : p_theta_p) = F(theta_p) - <theta_p, grad F(theta)>.

    Entropies here are relative to the family's carrier measure, so negative
    values are expected (e.g. the Gaussian natural-parameter family).
    """
    t, tp = as_vector(theta), as_vector(theta_p)
    check_same_dim(t, tp)
    g = gradient(fam.F, t)
    return eval_generator(fam.F, tp) - sum(y * gi for y, gi in zip(tp, g))


def expfam_entropy(fam: ExpFamily, theta) -> float:
    """Entropy h(p_theta) = F(theta) - <theta, grad F(theta)>."""
    t = as_vector(theta)
    g = gradient(fam.F, t)
    return eval_generator(fam.F, t) - sum(x * gi for x, gi in zip(t, g))


def expfam_kl(fam: ExpFamily, theta, theta_p) -> float:
    """KL between family members is the reverse Bregman divergence of the cumulant."""
    return bregman(fam.F, theta_p, theta)


def qcvx_bregman_from_kl(fam: ExpFamily, theta, theta_p) -> ExtReal:
    """Recover qcvx_bregman(F, theta_p, theta) from the KL divergence.

    KL(p_theta : p_theta_p) + F(theta) - F(theta_p), valid when
    F(theta_p) <= F(theta); callers on the other branch should query the
    reverse orientation.
    """
    t, tp = as_vector(theta), as_vector(theta_p)
    check_same_dim(t, tp)
    ft = eval_generator(fam.F, t)
    ftp = eval_generator(fam.F, tp)
    if ftp > ft:
        raise PreconditionError(
            f"qcvx_bregman_from_kl needs F(theta_p) <= F(theta); "
            f"got F(theta_p)={ftp} > F(theta)={ft}: query the reverse orientation"
        )
    return ExtReal(expfam_kl(fam, t, tp) + ft - ftp)
