"""Independent numeric verification engines: quadrature and limit studies.

These are the oracles the acceptance suite runs against the closed forms:
adaptive quadrature for the delta-average integral and the nested-family KL
integrals, and dyadic limit schedules for the three divergence limits
(alpha -> 1-, delta -> inf, r -> inf).  Schedules are dyadic so convergence is
log-linear and monotonicity checks are meaningful; no extrapolation is applied
since the closed forms themselves are the targets.
"""

from __future__ import annotations

import heapq
import math
import operator
import sys
from typing import NamedTuple

from .core import (ExtReal, Generator, PreconditionError, RangeError, _check_dim, _count,
                   _eval, _fmt, _pair, as_vector)
from .bregman import _qcvx_bregman, _ratio
from .jensen import _qcvx_jensen, _skew
from .means import MeanSpec, _power_mean_jensen, _r_exponent, _r_power_bregman

# The QUADPACK qk15 rule (Piessens et al., QUADPACK, 1983) on [-1, 1]: 15 Kronrod
# abscissae in increasing order with their weights, and the weights of the
# embedded 7-point Gauss rule, whose abscissae are GK15_NODES[1::2].
GK15_NODES = (
    -0.991455371120812639206854697526329, -0.949107912342758524526189684047851,
    -0.864864423359769072789712788640926, -0.741531185599394439863864773280788,
    -0.586087235467691130294144845693013, -0.405845151377397166906606412076961,
    -0.207784955007898467600689403773245, 0.0,
    0.207784955007898467600689403773245, 0.405845151377397166906606412076961,
    0.586087235467691130294144845693013, 0.741531185599394439863864773280788,
    0.864864423359769072789712788640926, 0.949107912342758524526189684047851,
    0.991455371120812639206854697526329,
)
GK15_WEIGHTS = (
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
    0.204432940075298892414161999234649, 0.190350578064785409913256402421014,
    0.169004726639267902826583426598550, 0.140653259715525918745189590510238,
    0.104790010322250183839876322541518, 0.063092092629978553290700663189204,
    0.022935322010529224963732008058970,
)
G7_WEIGHTS = (
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327,
    0.381830050505118944950369775488975, 0.279705391489276667901467771423780,
    0.129484966168869693270611432679082,
)

# A panel whose error estimate is within this multiple of its absolute mass
# (the K15 value of |f|) is at the rounding floor: splitting it further only
# resamples rounding noise.  QUADPACK's qk15 floors its estimate at the same
# 50 * epsilon times that mass.
_ROUNDING_FLOOR = 50.0 * sys.float_info.epsilon

# The most leaf panels one integral may use, as QUADPACK's ``limit``: far above
# the 43 that the library's own integrals reach.
MAX_PANELS = 2000

# Past this many bisections a panel is final, never split.
MAX_DEPTH = 40

# A finite run cannot witness +inf; a value past this many multiples of the
# problem scale counts as an unbounded trend.
UNBOUNDED_FACTOR = 1e6


class QuadratureResult(NamedTuple):
    """``value`` with ``error_bound``, the summed panel estimates |K15 - G7|.

    That is an estimate, not a bound: x^-0.9 on [0, 1] reports 0.058 against a
    true error of 0.286, so rely on ``converged`` (``error_bound`` met
    ``abs_tol``).  ``panels`` counts the leaf panels summed into ``value``.
    """

    value: float
    error_bound: float
    panels: int
    converged: bool


def _gk15(f, a: float, b: float):
    """(K15 value, |K15 - G7|, K15 value of |f|) of one panel; 15 calls of f."""
    h = 0.5 * (b - a)
    c = 0.5 * (a + b)
    ys = [f(c + h * x) for x in GK15_NODES]
    # A NaN or infinite value of f makes the mass so, and fsum can then no
    # longer fail on inf - inf in the other two sums.  fsum raises
    # OverflowError when finite values sum past the floats; |h * k15| is at
    # most the scaled mass, so the value is finite when the mass is.
    try:
        mass = math.fsum(map(operator.mul, GK15_WEIGHTS, map(abs, ys)))
        if not math.isfinite(mass):
            raise RangeError(f"integrand is not finite on the panel [{a}, {b}]")
        k15 = math.fsum(map(operator.mul, GK15_WEIGHTS, ys))
        g7 = math.fsum(map(operator.mul, G7_WEIGHTS, ys[1::2]))
        err, mass = abs(h * (k15 - g7)), h * mass
    except OverflowError:
        err = mass = math.inf
    if not (math.isfinite(err) and math.isfinite(mass)):
        raise RangeError(f"the quadrature sums on the panel [{a}, {b}] leave the floats")
    return h * k15, err, mass


def integrate(f, a: float, b: float, abs_tol: float = 1e-10) -> QuadratureResult:
    """Globally adaptive Gauss-Kronrod (G7/K15) quadrature of f on [a, b].

    Each panel costs 15 calls of f; its value is the Kronrod estimate and its
    error estimate |K15 - G7|.  The panel with the largest estimate is bisected
    until the estimates sum to at most ``abs_tol``.  A panel is final, never
    split, once it has been bisected ``MAX_DEPTH + 1`` (41) times, i.e. its width
    is (b - a) / 2^41, or once its estimate is at the rounding floor.
    Splitting also stops when the final panels' estimates alone exceed
    ``abs_tol``, since no further split can then meet it, and once there are
    ``MAX_PANELS`` leaf panels.  So f is called at most 15 * (2 * MAX_PANELS
    - 1) times, and ``converged`` reads False when ``abs_tol`` was not met.

    ``panels`` counts the leaf panels summed into ``value``.  Nodes are
    strictly interior, so integrands that are singular exactly at an endpoint
    (e.g. log x at 0) are never evaluated there.

    An empty interval, or one whose ends or width b - a are not finite, raises
    ValueError.  An integrand value that is NaN or infinite, or a panel's
    weighted sums (before or after scaling by its half-width) leaving the
    floats, raises RangeError naming the panel; a total that leaves the floats
    raises RangeError naming [a, b].  So ``value`` and ``error_bound`` are
    always finite.
    """
    if not a < b:
        raise ValueError(f"integration interval is empty: [{a}, {b}]")
    if not math.isfinite(b - a):
        raise ValueError(f"integration interval must have finite ends and width: [{a}, {b}]")
    tol = float(abs_tol)
    final = []  # (value, error) of panels that are never split
    heap = []  # (-error, lo, hi, depth, value) of panels that may be split

    def add(lo, hi, depth):
        nonlocal final_err
        value, err, mass = _gk15(f, lo, hi)
        if depth > MAX_DEPTH or err <= _ROUNDING_FLOOR * mass:
            final.append((value, err))
            final_err += err
        else:
            heapq.heappush(heap, (-err, lo, hi, depth, value))
        return err

    final_err = 0.0
    total = add(a, b, 0)
    while heap and final_err <= tol < total and len(final) + len(heap) < MAX_PANELS:
        neg_err, lo, hi, depth, _ = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        total += add(lo, mid, depth + 1) + add(mid, hi, depth + 1) + neg_err
    panels = final + [(p[4], -p[0]) for p in heap]
    try:
        value, error_bound = math.fsum(v for v, _ in panels), math.fsum(e for _, e in panels)
    except OverflowError:
        raise RangeError(f"the integral over [{a}, {b}] leaves the floats") from None
    return QuadratureResult(value, error_bound, len(panels), error_bound <= tol)


class InfiniteIntegrandError(RuntimeError):
    """The pseudo-divergence hit its infinite branch inside the averaging range."""


class NonConvergenceError(RuntimeError):
    """The quadrature's error estimate did not reach the requested tolerance."""


def _converged_value(result: QuadratureResult, what: str) -> float:
    if not result.converged:
        raise NonConvergenceError(
            f"{what}: error estimate {result.error_bound:.3g} over "
            f"{result.panels} panels misses the tolerance"
        )
    return result.value


def integrate_delta_average(Q: Generator, theta: float, theta_p: float,
                            delta: float) -> float:
    """Quadrature oracle for the delta-averaged divergence (1-D, finite branch).

    Averages qcvx_bregman(theta+u : theta_p+u) over u between 0 and
    delta*(theta_p - theta) and must match the closed form for differentiable
    Q.  An infinite integrand value anywhere in the range contradicts the
    nestedness of the shifted sublevel values and is reported, not averaged;
    an integral that misses abs_tol 1e-10 raises NonConvergenceError.  A range
    so long that theta + u and theta_p + u round to one float at its far end
    raises RangeError: the integrand reads 0 there, not the divergence.
    """
    d, = _ratio("integrate_delta_average", Q, delta)
    t, tp = as_vector(theta), as_vector(theta_p)
    if len(t) != 1 or len(tp) != 1:
        raise ValueError("the quadrature cross-check is defined for 1-D parameters")
    _check_dim(Q, t)
    qt, qtp = _eval(Q, t), _eval(Q, tp)
    if qtp < qt:
        raise PreconditionError(
            f"integrate_delta_average needs Q(theta_p) >= Q(theta), got {qtp} < {qt}"
        )
    x, y = t[0], tp[0]
    span = d * (y - x)
    if span == 0.0:
        return 0.0
    if math.isfinite(span) and x + span == y + span:
        raise RangeError(f"delta-average quadrature: theta + u and theta_p + u are one float "
                         f"at u = {span}")

    # Q is checked, and _eval checks the shifted points: pointwise runs the kernel.
    def pointwise(u: float) -> float:
        a, b = (x + u,), (y + u,)
        v = _qcvx_bregman(Q, a, b, _eval(Q, a), _eval(Q, b))
        if v.is_inf:
            raise InfiniteIntegrandError(
                f"qcvx_bregman({x + u} : {y + u}) is infinite inside the "
                "averaging range"
            )
        return float(v)

    lo, hi = (0.0, span) if span > 0.0 else (span, 0.0)
    result = integrate(pointwise, lo, hi, abs_tol=1e-10)
    return _converged_value(result, "delta-average quadrature") / abs(span)


def kl_quadrature(p, q, abs_tol: float = 1e-10) -> ExtReal:
    """Numeric KL divergence between two densities with interval supports.

    Integrates p(x) * (log p(x) - log q(x)) over supp(p) when supp(p) is
    contained in supp(q), else +inf.  Replaces the computer-algebra check of
    the nested-family closed forms.  Raises NonConvergenceError when the
    integral misses ``abs_tol``.
    """
    plo, phi = p.support()
    qlo, qhi = q.support()
    if plo < qlo or phi > qhi:
        return ExtReal(math.inf)

    # From log_pdf alone: a density that underflows still has its logarithm.
    def integrand(x: float) -> float:
        lp = p.log_pdf(x)
        return math.exp(lp) * (lp - q.log_pdf(x))

    return ExtReal(_converged_value(integrate(integrand, plo, phi, abs_tol=abs_tol), "KL quadrature"))


class LimitStudy(NamedTuple):
    """One dyadic convergence run against a closed-form target.

    ``errors[i]`` is |values[i] - target| when both are finite, 0.0 when both
    are infinite, and inf when exactly one is.  ``tol`` is the final-error
    criterion multiplier applied to (1 + |target|); ``scale`` feeds the
    unbounded-trend threshold on the infinite branch.
    """

    name: str
    ks: tuple
    params: tuple
    values: tuple
    target: ExtReal
    tol: float
    scale: float

    @property
    def errors(self) -> tuple:
        out = []
        for v in self.values:
            vinf = math.isinf(v)
            if vinf and self.target.is_inf:
                out.append(0.0)
            elif vinf or self.target.is_inf:
                out.append(math.inf)
            else:
                out.append(abs(float(v) - float(self.target)))
        return tuple(out)

    @property
    def final_error(self) -> float:
        return self.errors[-1]

    def errors_nonincreasing_from(self, k: int) -> bool:
        errs = [e for kk, e in zip(self.ks, self.errors) if kk >= k]
        return all(b <= a for a, b in zip(errs, errs[1:]))

    @property
    def unbounded_trend(self) -> bool:
        """Finite prefix strictly increasing, then +inf or past the threshold."""
        finite = [float(v) for v in self.values if math.isfinite(v)]
        n_inf = len(self.values) - len(finite)
        if n_inf and any(math.isfinite(v) for v in self.values[-n_inf:]):
            return False  # an inf value must never be followed by a finite one
        if any(b <= a for a, b in zip(finite, finite[1:])):
            return False
        if n_inf:
            return True
        return finite[-1] > UNBOUNDED_FACTOR * self.scale

    @property
    def converged(self) -> bool:
        if self.target.is_inf:
            return self.unbounded_trend
        return self.final_error <= self.tol * (1.0 + abs(float(self.target)))

    def csv_rows(self):
        yield "k,param,value,error"
        for k, p, v, e in zip(self.ks, self.params, self.values, self.errors):
            yield f"{k},{_fmt(p)},{_fmt(v)},{_fmt(e)}"


def _dyadic_study(name, Q, theta, theta_p, k_max, *, k_min, k_top, param, target, check,
                  value, tol) -> LimitStudy:
    """``value(Q, param(k), *pair)`` for k = k_min..k_max against ``target(Q, *pair)``.

    ``pair`` is (t, tp, Q(t), Q(tp)), theta and theta_p checked and evaluated once;
    the argument ``check`` runs once, after the target.  Past ``k_top`` the parameter
    leaves the floats the step accepts.  The unbounded-trend scale is 1 + |Q(t) - Q(tp)|.
    """
    k_max = _count("k_max", k_max)
    if k_max < 4:
        raise ValueError("k_max must be >= 4")
    if k_max > k_top:
        raise ValueError(f"k_max must be <= {k_top}: the {name} schedule leaves the floats "
                         f"past it, got {k_max}")
    t, tp, qt, qtp = _pair(Q, theta, theta_p)
    goal = target(Q, t, tp, qt, qtp)
    # Every alpha_k lies in (0, 1) and every r_k is >= 1, so no step can fail a
    # range check: what is left of the steps' argument checks runs once here.
    check()
    ks = tuple(range(k_min, k_max + 1))
    params = tuple(param(k) for k in ks)
    values = tuple(value(Q, p, t, tp, qt, qtp) for p in params)
    return LimitStudy(name, ks, params, values, goal, tol, 1.0 + abs(qt - qtp))


def limit_scaled_jensen(Q: Generator, theta, theta_p, k_max: int) -> LimitStudy:
    """Scaled skewed Jensen values at alpha_k = 1 - 2^-k against the gradient closed form.

    The scaled divergence qcvx_jensen / (alpha * (1 - alpha)) tends to
    qcvx_bregman as alpha -> 1-; on the infinite branch the values grow like
    2^k instead.  k_max is at most 53, past which alpha_k rounds to 1.
    """
    return _dyadic_study(
        "scaled-jensen", Q, theta, theta_p, k_max, k_min=4, k_top=53, tol=1e-4,
        param=lambda k: 1.0 - 2.0 ** (-k), target=_qcvx_bregman,
        check=lambda: _skew("qcvx_jensen", Q, 0.5),
        value=lambda Q, alpha, *pair: ExtReal(_qcvx_jensen(Q, alpha, *pair)
                                              / (alpha * (1.0 - alpha))))


def limit_power_jensen(F: Generator, theta, theta_p, k_max: int) -> LimitStudy:
    """Power-mean Jensen values at delta_k = 2^k, k <= 1023, against qcvx_jensen at alpha = 1/2."""
    return _dyadic_study(
        "power-jensen", F, theta, theta_p, k_max, k_min=0, k_top=1023, tol=1e-3,
        param=lambda k: 2.0**k, target=lambda F, *pair: ExtReal(_qcvx_jensen(F, 0.5, *pair)),
        check=lambda: _skew("qcvx_jensen", F, 0.5),
        value=lambda F, delta, *pair: ExtReal(
            _power_mean_jensen(F, 0.5, MeanSpec.power(delta), *pair)))


def limit_r_power_bregman(F: Generator, theta, theta_p, k_max: int) -> LimitStudy:
    """r-power Bregman values at r_k = 2^k >= 1, k <= 1023, against qcvx_bregman (1-D)."""
    return _dyadic_study(
        "r-power-bregman", F, theta, theta_p, k_max, k_min=0, k_top=1023, tol=1e-3,
        param=lambda k: 2.0**k, target=_qcvx_bregman,
        check=lambda: _r_exponent("r_power_bregman", F, 1.0), value=_r_power_bregman)
