"""Bregman divergence, its quasiconvex pseudo-divergence, and the delta-averaged repair.

The three branch divergences share one branch rule: Q(theta) > Q(theta_p)
gives +inf, otherwise each kernel computes its own finite value.  Branch
decisions compare generator values with exact floating comparison and the
result carries ``tie_sensitive`` under the tie policy in ``core``, because the
finite/infinite branch is discontinuous there and a one-ulp perturbation can
flip the orientation.

The reverse divergence D^r(theta:theta_p) = D(theta_p:theta) is argument
swapping, not a separate code path.
"""

from __future__ import annotations

import math
from operator import mul, sub

from .core import (
    DomainError,
    ExtReal,
    Generator,
    _eval,
    _ext_real,
    _gradient,
    _in_range,
    _pair,
    _tie_sensitive,
    _validate_positive,
)


# The kernels that read grad F(theta_p) take its source ``grad``, called as
# grad(F, theta_p): every public function passes core._gradient, and ``qcdiv
# table`` a memo that takes each column's gradient once.
def _linear_term(F: Generator, grad, t, tp) -> float:
    """<theta - theta_p, grad F(theta_p)>; RangeError when it overflows."""
    g = grad(F, tp)
    # One gradient component makes the sum one term p.  sum starts from the
    # int 0, so it returns 0.0 + p, which turns -0.0 into 0.0: the scalar form
    # adds 0.0 too, for the same bits.
    if len(g) == 1:
        return _in_range(0.0 + (t[0] - tp[0]) * g[0], "the linear term")
    return _in_range(sum(map(mul, map(sub, t, tp), g)), "the linear term")


def _branch(qt: float, qtp: float, finite, *args) -> ExtReal:
    """+inf when Q(theta) > Q(theta_p), else ``finite(*args)``, which is a float."""
    tie = _tie_sensitive(qt, qtp)
    return _ext_real(math.inf if qt > qtp else finite(*args), tie)


def _bregman(F: Generator, grad, t, tp, ft: float, ftp: float) -> float:
    return _in_range(ft - ftp - _linear_term(F, grad, t, tp), "the Bregman value")


def bregman(F: Generator, theta, theta_p) -> float:
    """F(theta) - F(theta_p) - <theta - theta_p, grad F(theta_p)>."""
    return _bregman(F, _gradient, *_pair(F, theta, theta_p))


# The finite branch is -<theta - theta_p, grad Q(theta_p)>, taken as 0.0 minus
# it: that is _bregman with both values 0, (0.0 - 0.0) - lin, bit for bit, and a
# finite linear term keeps it finite.  It differs from the negation only in the
# sign of a zero, and ExtReal hands out no -0.0.
def _pseudo(Q: Generator, grad, t, tp) -> float:
    return 0.0 - _linear_term(Q, grad, t, tp)


def _qcvx_bregman(Q: Generator, grad, t, tp, qt: float, qtp: float) -> ExtReal:
    return _branch(qt, qtp, _pseudo, Q, grad, t, tp)


def qcvx_bregman(Q: Generator, theta, theta_p) -> ExtReal:
    """Quasiconvex Bregman pseudo-divergence.

    -<theta - theta_p, grad Q(theta_p)> when Q(theta) <= Q(theta_p), +inf
    otherwise.  Nonnegative on the finite branch for quasiconvex Q, but only a
    pseudo-divergence: it vanishes for theta != theta_p when the gradient at
    theta_p does (e.g. the cubic at its inflection point).  For a separable
    generator ({"separable": [...]}) the branch compares the total values, so
    the divergence of the sum is not the sum of per-coordinate divergences.
    """
    return _qcvx_bregman(Q, _gradient, *_pair(Q, theta, theta_p))


# The argument check of delta_averaged_qcvx_bregman: delta > 0.
def _ratio(fn: str, Q: Generator, delta: float) -> tuple:
    return (_validate_positive("averaging ratio delta", delta),)


def _averaged_gap(Q: Generator, d: float, t, tp, qtp: float) -> float:
    """(Q(theta_p + d*(theta_p - theta)) - Q(theta_p)) / d."""
    extrap = ((tp[0] + d * (tp[0] - t[0]),) if len(t) == 1
              else tuple(y + d * (y - x) for x, y in zip(t, tp)))
    problem = Q.domain.violation(extrap)
    if problem is not None:
        raise DomainError(
            f"delta-averaging needs the domain of {Q.name or 'generator'} to "
            f"cover the extrapolated point {extrap}: {problem}"
        )
    return _in_range((_eval(Q, extrap) - qtp) / d, "delta_averaged_qcvx_bregman value")


def _delta_averaged_qcvx_bregman(Q: Generator, d: float, t, tp, qt: float, qtp: float) -> ExtReal:
    return _branch(qt, qtp, _averaged_gap, Q, d, t, tp, qtp)


def delta_averaged_qcvx_bregman(Q: Generator, theta, theta_p, delta: float) -> ExtReal:
    """(1/delta) * (Q(theta_p + delta*(theta_p - theta)) - Q(theta_p)) on the finite branch.

    Averages the pseudo-divergence over a segment past theta_p, which restores
    the law of the indiscernibles and needs no differentiability.  Finite when
    Q(theta_p) >= Q(theta), +inf otherwise.  delta is the ratio between the
    averaging length and theta_p - theta.
    """
    return _delta_averaged_qcvx_bregman(Q, *_ratio("delta_averaged_qcvx_bregman", Q, delta),
                                        *_pair(Q, theta, theta_p))


def _extended_bregman(Q: Generator, grad, t, tp, qt: float, qtp: float) -> ExtReal:
    return _branch(qt, qtp, _bregman, Q, grad, t, tp, qt, qtp)


def extended_bregman(Q: Generator, theta, theta_p) -> ExtReal:
    """Q(theta) - Q(theta_p) + qcvx_bregman on the finite branch, +inf otherwise.

    For convex Q this collapses to the ordinary Bregman divergence; for merely
    quasiconvex Q the finite branch may be negative.
    """
    return _extended_bregman(Q, _gradient, *_pair(Q, theta, theta_p))
