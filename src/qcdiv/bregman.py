"""Bregman divergence, its quasiconvex pseudo-divergence, and the delta-averaged repair.

The three branch divergences share one kernel: Q(theta) > Q(theta_p) gives
+inf, otherwise each computes its own finite value.  Branch decisions compare
generator values with exact floating comparison and the result carries
``tie_sensitive`` under the tie policy in ``core``, because the finite/infinite
branch is discontinuous there and a one-ulp perturbation can flip the
orientation.

The reverse divergence D^r(theta:theta_p) = D(theta_p:theta) is argument
swapping, not a separate code path.
"""

from __future__ import annotations

import math

from .core import (
    DomainError,
    ExtReal,
    Generator,
    _eval,
    _gradient,
    _points,
    _tie_sensitive,
    _validate_positive,
    _values,
)


def _linear_term(F: Generator, t, tp) -> float:
    """<theta - theta_p, grad F(theta_p)>."""
    g = _gradient(F, tp)
    return sum((x - y) * gi for x, y, gi in zip(t, tp, g))


def _branch(Q: Generator, theta, theta_p, finite) -> ExtReal:
    """+inf when Q(theta) > Q(theta_p), else ``finite(t, tp, qt, qtp)``."""
    t, tp = _points(theta, theta_p)
    qt, qtp = _values(Q, t, tp)
    tie = _tie_sensitive(qt, qtp)
    if qt > qtp:
        return ExtReal(math.inf, tie_sensitive=tie)
    return ExtReal(finite(t, tp, qt, qtp), tie_sensitive=tie)


def bregman(F: Generator, theta, theta_p) -> float:
    """F(theta) - F(theta_p) - <theta - theta_p, grad F(theta_p)>."""
    t, tp = _points(theta, theta_p)
    ft, ftp = _values(F, t, tp)
    return ft - ftp - _linear_term(F, t, tp)


def qcvx_bregman(Q: Generator, theta, theta_p) -> ExtReal:
    """Quasiconvex Bregman pseudo-divergence.

    -<theta - theta_p, grad Q(theta_p)> when Q(theta) <= Q(theta_p), +inf
    otherwise.  Nonnegative on the finite branch for quasiconvex Q, but only a
    pseudo-divergence: it vanishes for theta != theta_p when the gradient at
    theta_p does (e.g. the cubic at its inflection point).  For a separable
    generator ({"separable": [...]}) the branch compares the total values, so
    the divergence of the sum is not the sum of per-coordinate divergences.
    """
    return _branch(Q, theta, theta_p, lambda t, tp, qt, qtp: -_linear_term(Q, t, tp))


def delta_averaged_qcvx_bregman(Q: Generator, theta, theta_p, delta: float) -> ExtReal:
    """(1/delta) * (Q(theta_p + delta*(theta_p - theta)) - Q(theta_p)) on the finite branch.

    Averages the pseudo-divergence over a segment past theta_p, which restores
    the law of the indiscernibles and needs no differentiability.  Finite when
    Q(theta_p) >= Q(theta), +inf otherwise.  delta is the ratio between the
    averaging length and theta_p - theta.
    """
    d = _validate_positive("averaging ratio delta", delta)

    def finite(t, tp, qt, qtp):
        extrap = tuple(y + d * (y - x) for x, y in zip(t, tp))
        problem = Q.domain.violation(extrap)
        if problem is not None:
            raise DomainError(
                f"delta-averaging needs the domain of {Q.name or 'generator'} to "
                f"cover the extrapolated point {extrap}: {problem}"
            )
        return (_eval(Q, extrap) - qtp) / d

    return _branch(Q, theta, theta_p, finite)


def extended_bregman(Q: Generator, theta, theta_p) -> ExtReal:
    """Q(theta) - Q(theta_p) + qcvx_bregman on the finite branch, +inf otherwise.

    For convex Q this collapses to the ordinary Bregman divergence; for merely
    quasiconvex Q the finite branch may be negative.
    """
    return _branch(Q, theta, theta_p,
                   lambda t, tp, qt, qtp: qt - qtp - _linear_term(Q, t, tp))
