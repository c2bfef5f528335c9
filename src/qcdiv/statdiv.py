"""KL divergence for nested-support families and exponential-family identities.

The power family alpha * x^(alpha-1) * exp(-theta*alpha), alpha >= 1, has
parameter-ordered supports (0, e^theta), so the KL divergence is finite in
exactly one orientation, which is what connects it to the quasiconvex Bregman
divergence of the identity generator.  ``NestedUniform`` is its member at
alpha = 1 and ``PowerNested`` the members past it; one private base class
computes both.  All densities are with respect to Lebesgue measure on an
interval.
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple

from .core import (
    DomainError,
    ExtReal,
    Generator,
    PreconditionError,
    RangeError,
    _Frozen,
    _check_dim,
    _check_domain,
    _eval,
    _gradient,
    _in_range,
    _pair,
    _points,
    _segments,
    _validate_positive,
    as_vector,
)
from .bregman import _branch, _bregman


# The argument check of PowerNested and kl_power_nested, which shows alpha as given.
def _alpha(alpha) -> float:
    a = float(alpha)
    if not a > 1.0:
        raise ValueError(f"power family exponent alpha must be > 1, got {alpha}")
    return a


class _PowerFamily(_Frozen):
    """Density alpha * x^(alpha-1) * exp(-theta*alpha) on (0, e^theta), alpha >= 1."""

    def __init__(self, alpha: float, theta: float):
        t = _validate_positive("theta", theta)
        # On the floats log x > -745, so |log density| < alpha * (theta + 745).
        if not math.isfinite(alpha * (t + 745.0)):
            raise RangeError(f"the log density leaves the floats: alpha = {alpha!r}, theta = {t!r}")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "theta", t)
        # Per-call constants, computed once: e^theta (inf past the floats),
        # log alpha and theta * alpha.
        try:
            hi = math.exp(t)
        except OverflowError:
            hi = math.inf
        object.__setattr__(self, "_hi", hi)
        object.__setattr__(self, "_log_alpha", math.log(alpha))
        object.__setattr__(self, "_theta_alpha", t * alpha)

    def support(self):
        """(0, e^theta); RangeError when e^theta leaves the floats."""
        if self._hi < math.inf:
            return (0.0, self._hi)
        raise RangeError(f"the support (0, e^theta) leaves the floats: theta = {self.theta!r}")

    def pdf(self, x: float) -> float:
        if not 0.0 < x < self._hi:
            return 0.0
        # The density is at most alpha * e^-theta; a product past that, or
        # one that raised, overflowed on the way, and the log form has it.
        try:
            p = self.alpha * x ** (self.alpha - 1.0) * math.exp(-self._theta_alpha)
            if p < math.inf:
                return p
        except OverflowError:
            pass
        return math.exp(self.log_pdf(x))

    def log_pdf(self, x: float) -> float:
        """The log density at x in (0, e^theta); DomainError elsewhere, where the density is 0."""
        if 0.0 < x < self._hi:
            return self._log_alpha + (self.alpha - 1.0) * math.log(x) - self._theta_alpha
        raise DomainError(f"log_pdf needs x in (0, e^theta) = (0.0, {self._hi!r}), got {x!r}")


class NestedUniform(_PowerFamily):
    """Uniform density on (0, e^theta): p(x) = exp(-theta) there, 0 elsewhere (alpha = 1)."""

    _fields = ("theta",)

    def __init__(self, theta: float):
        super().__init__(1.0, theta)


class PowerNested(_PowerFamily):
    """Density alpha * x^(alpha-1) * exp(-theta*alpha) on (0, e^theta), alpha > 1."""

    _fields = ("alpha", "theta")

    def __init__(self, alpha: float, theta: float):
        super().__init__(_alpha(alpha), theta)


# The nested-support KL kernel takes the points as given: it checks theta and
# theta_p before it compares them.  kl_nested_uniform is its own kernel.  It is
# the branch rule of the quasiconvex Bregman divergence on the identity.
def _kl_power_nested(a: float, theta, theta_p) -> ExtReal:
    """a * (theta_p - theta) when theta <= theta_p, else +inf: the nested-support KL."""
    t = _validate_positive("theta", theta)
    tp = _validate_positive("theta_p", theta_p)
    if t <= tp < math.inf:  # at theta_p = inf, +inf is the answer, not an overflow
        _in_range(a * (tp - t), "kl_power_nested value")
    return _branch(t, tp, operator.mul, a, tp - t)


def kl_nested_uniform(theta: float, theta_p: float) -> ExtReal:
    """KL between nested uniforms: theta_p - theta when theta <= theta_p, else +inf.

    Support inclusion supp(p_theta) within supp(p_theta_p) holds exactly when
    theta <= theta_p; the closed form equals the quasiconvex Bregman
    divergence of the identity generator.
    """
    return _kl_power_nested(1.0, theta, theta_p)


# The argument check of kl_power_nested, which shows alpha as a float.
def _exponent(fn: str, alpha: float) -> tuple:
    return (_alpha(float(alpha)),)


def kl_power_nested(alpha: float, theta: float, theta_p: float) -> ExtReal:
    """KL between power-nested densities: alpha * (theta_p - theta) when theta <= theta_p."""
    return _kl_power_nested(*_exponent("kl_power_nested", alpha), theta, theta_p)


class ExpFamily(NamedTuple):
    """An exponential family represented by its cumulant generator F.

    F must be strictly convex and differentiable on its domain; that claim is
    checkable with ``validate_convexity`` (second differences along random
    segments), not enforced at construction.
    """

    F: Generator

    def validate_convexity(self, box, n_lines: int = 16, n_points: int = 33,
                           seed: int = 0) -> bool:
        """False when a second difference of F along a seeded segment in box is negative.

        The preconditions are those of ``check_quasiconvex``: ``n_points >= 3``,
        ``n_lines >= 1``, and a bounded box whose closed hull lies inside the
        domain of F.
        """
        for _, _, _, vals in _segments(self.F, box, n_lines, n_points, seed):
            scale = 1.0 + max(abs(v) for v in vals)
            for i in range(1, len(vals) - 1):
                second = vals[i - 1] - 2.0 * vals[i] + vals[i + 1]
                if second <= -1e-9 * scale:
                    return False
        return True


# The cross-entropy F(theta_p) - <theta_p, g> with g = grad F(theta), over
# values already taken; the identities suite runs it on the pair it draws.
def _cross_entropy(g, tp, ftp: float) -> float:
    return _in_range(ftp - sum(map(operator.mul, tp, g)), "the cross-entropy")


def expfam_cross_entropy(fam: ExpFamily, theta, theta_p) -> float:
    """Cross-entropy h(p_theta : p_theta_p) = F(theta_p) - <theta_p, grad F(theta)>.

    Entropies here are relative to the family's carrier measure, so negative
    values are expected (e.g. the Gaussian natural-parameter family).
    """
    t, tp = _points(theta, theta_p)
    _check_dim(fam.F, t)
    _check_domain(fam.F, t)  # theta and its gradient come before F(theta_p)
    g = _gradient(fam.F, t)
    return _cross_entropy(g, tp, _eval(fam.F, tp))


def expfam_entropy(fam: ExpFamily, theta) -> float:
    """Entropy h(p_theta) = F(theta) - <theta, grad F(theta)>, the cross-entropy at theta."""
    t = as_vector(theta)  # once, so that an iterator is read once
    return expfam_cross_entropy(fam, t, t)


# expfam_kl is the Bregman kernel on its checked pair with the points swapped.
def expfam_kl(fam: ExpFamily, theta, theta_p) -> float:
    """KL between family members is the reverse Bregman divergence of the cumulant."""
    return _bregman(fam.F, _gradient, *_pair(fam.F, theta_p, theta))


# The KL identity's precondition and value, over a checked pair and its values.
def _from_kl(F: Generator, t, tp, ft: float, ftp: float) -> ExtReal:
    if ftp > ft:
        raise PreconditionError(
            f"qcvx_bregman_from_kl needs F(theta_p) <= F(theta); "
            f"got F(theta_p)={ftp} > F(theta)={ft}: query the reverse orientation"
        )
    return ExtReal(_in_range(_bregman(F, _gradient, tp, t, ftp, ft) + ft - ftp,
                             "qcvx_bregman_from_kl value"))


def qcvx_bregman_from_kl(fam: ExpFamily, theta, theta_p) -> ExtReal:
    """Recover qcvx_bregman(F, theta_p, theta) from the KL divergence.

    KL(p_theta : p_theta_p) + F(theta) - F(theta_p), valid when
    F(theta_p) <= F(theta); callers on the other branch should query the
    reverse orientation.
    """
    return _from_kl(fam.F, *_pair(fam.F, theta, theta_p))
