"""Independent numeric verification engines: quadrature and limit studies.

These are the oracles the acceptance suite runs against the closed forms:
adaptive quadrature for the delta-average integral and the nested-family KL
integrals, and dyadic limit schedules for the three divergence limits
(alpha -> 1-, delta -> inf, r -> inf).  Schedules are dyadic so convergence is
log-linear and monotonicity checks are meaningful; no extrapolation is applied
since the closed forms themselves are the targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy.polynomial.legendre as _leg

from .core import ExtReal, Generator, PreconditionError, as_vector, eval_generator
# A private alias keeps this precondition check in the oracles layer of the
# traced benchmark (bench/spans.py wraps public names only), as when it was inline.
from .bregman import qcvx_bregman, validate_ratio as _validate_ratio
from .jensen import qcvx_jensen
from .means import power_mean_jensen, r_power_bregman

_nodes, _weights = _leg.leggauss(15)
GL15_NODES = tuple(float(x) for x in _nodes)
GL15_WEIGHTS = tuple(float(w) for w in _weights)
del _nodes, _weights

# A finite run cannot witness +inf; a value past this many multiples of the
# problem scale counts as an unbounded trend.
UNBOUNDED_FACTOR = 1e6


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_bound: float
    panels: int


def _gl15(f, a: float, b: float) -> float:
    h = 0.5 * (b - a)
    c = 0.5 * (a + b)
    return h * math.fsum(w * f(c + h * x) for x, w in zip(GL15_NODES, GL15_WEIGHTS))


def integrate(f, a: float, b: float, abs_tol: float = 1e-10,
              max_depth: int = 40) -> QuadratureResult:
    """Adaptive quadrature of f on [a, b] by recursive interval bisection.

    Each panel uses a fixed 15-point Gauss-Legendre rule; a panel is split
    until the whole-vs-halves difference drops below its share of abs_tol or
    the depth cap is hit.  Nodes are strictly interior, so integrands that are
    singular exactly at an endpoint (e.g. log x at 0) are never evaluated there.
    """
    if not a < b:
        raise ValueError(f"integration interval is empty: [{a}, {b}]")
    value, err, panels = _adaptive(f, a, b, float(abs_tol), 0, int(max_depth))
    return QuadratureResult(value, err, panels)


def _adaptive(f, a, b, tol, depth, max_depth):
    whole = _gl15(f, a, b)
    mid = 0.5 * (a + b)
    left = _gl15(f, a, mid)
    right = _gl15(f, mid, b)
    diff = abs(whole - (left + right))
    if diff <= tol or depth >= max_depth:
        return left + right, diff, 2
    lv, le, lp = _adaptive(f, a, mid, 0.5 * tol, depth + 1, max_depth)
    rv, re, rp = _adaptive(f, mid, b, 0.5 * tol, depth + 1, max_depth)
    return lv + rv, le + re, lp + rp


class InfiniteIntegrandError(RuntimeError):
    """The pseudo-divergence hit its infinite branch inside the averaging range."""


def integrate_delta_average(Q: Generator, theta: float, theta_p: float,
                            delta: float) -> float:
    """Quadrature oracle for the delta-averaged divergence (1-D, finite branch).

    Averages qcvx_bregman(theta+u : theta_p+u) over u between 0 and
    delta*(theta_p - theta) and must match the closed form for differentiable
    Q.  An infinite integrand value anywhere in the range contradicts the
    nestedness of the shifted sublevel values and is reported, not averaged.
    """
    d = _validate_ratio(delta)
    t, tp = as_vector(theta), as_vector(theta_p)
    if len(t) != 1 or len(tp) != 1:
        raise ValueError("the quadrature cross-check is defined for 1-D parameters")
    qt = eval_generator(Q, t)
    qtp = eval_generator(Q, tp)
    if qtp < qt:
        raise PreconditionError(
            f"integrate_delta_average needs Q(theta_p) >= Q(theta), got {qtp} < {qt}"
        )
    x, y = t[0], tp[0]
    span = d * (y - x)
    if span == 0.0:
        return 0.0

    def pointwise(u: float) -> float:
        v = qcvx_bregman(Q, (x + u,), (y + u,))
        if v.is_inf:
            raise InfiniteIntegrandError(
                f"qcvx_bregman({x + u} : {y + u}) is infinite inside the "
                "averaging range"
            )
        return float(v)

    lo, hi = (0.0, span) if span > 0.0 else (span, 0.0)
    result = integrate(pointwise, lo, hi, abs_tol=1e-10)
    return result.value / abs(span)


def kl_quadrature(p, q, abs_tol: float = 1e-10) -> ExtReal:
    """Numeric KL divergence between two densities with interval supports.

    Integrates p(x) * (log p(x) - log q(x)) over supp(p) when supp(p) is
    contained in supp(q), else +inf.  Replaces the computer-algebra check of
    the nested-family closed forms.
    """
    plo, phi = p.support()
    qlo, qhi = q.support()
    if plo < qlo or phi > qhi:
        return ExtReal(math.inf)

    def integrand(x: float) -> float:
        return p.pdf(x) * (p.log_pdf(x) - q.log_pdf(x))

    return ExtReal(integrate(integrand, plo, phi, abs_tol=abs_tol).value)


@dataclass(frozen=True)
class LimitStudy:
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
            yield f"{k},{_csv_num(p)},{_csv_num(v)},{_csv_num(e)}"


def _csv_num(x: float) -> str:
    return "inf" if math.isinf(x) else format(float(x), ".17g")


def _dyadic_study(name, Q, theta, theta_p, k_max, *, k_min, param, value, target,
                  tol) -> LimitStudy:
    """Evaluate ``value(t, tp, param(k))`` for k = k_min..k_max against ``target(t, tp)``.

    The unbounded-trend scale is 1 + |Q(theta) - Q(theta_p)|.
    """
    if k_max < 4:
        raise ValueError("k_max must be >= 4")
    t, tp = as_vector(theta), as_vector(theta_p)
    goal = target(t, tp)
    scale = 1.0 + abs(eval_generator(Q, t) - eval_generator(Q, tp))
    ks = tuple(range(k_min, k_max + 1))
    params = tuple(param(k) for k in ks)
    values = tuple(value(t, tp, p) for p in params)
    return LimitStudy(name, ks, params, values, goal, tol, scale)


def limit_scaled_jensen(Q: Generator, theta, theta_p, k_max: int) -> LimitStudy:
    """Scaled skewed Jensen values at alpha_k = 1 - 2^-k against the gradient closed form.

    The scaled divergence qcvx_jensen / (alpha * (1 - alpha)) tends to
    qcvx_bregman as alpha -> 1-; on the infinite branch the values grow like
    2^k instead.
    """
    return _dyadic_study(
        "scaled-jensen", Q, theta, theta_p, k_max, k_min=4, tol=1e-4,
        param=lambda k: 1.0 - 2.0 ** (-k),
        value=lambda t, tp, alpha: ExtReal(qcvx_jensen(Q, t, tp, alpha) / (alpha * (1.0 - alpha))),
        target=lambda t, tp: qcvx_bregman(Q, t, tp))


def limit_power_jensen(F: Generator, theta, theta_p, k_max: int) -> LimitStudy:
    """Power-mean Jensen values at delta_k = 2^k against qcvx_jensen at alpha = 1/2."""
    return _dyadic_study(
        "power-jensen", F, theta, theta_p, k_max, k_min=0, tol=1e-3,
        param=lambda k: 2.0**k,
        value=lambda t, tp, delta: ExtReal(power_mean_jensen(F, delta, 0.5, t, tp)),
        target=lambda t, tp: ExtReal(qcvx_jensen(F, t, tp, 0.5)))


def limit_r_power_bregman(F: Generator, theta, theta_p, k_max: int) -> LimitStudy:
    """r-power Bregman values at r_k = 2^k against qcvx_bregman (1-D)."""
    return _dyadic_study(
        "r-power-bregman", F, theta, theta_p, k_max, k_min=0, tol=1e-3,
        param=lambda k: 2.0**k,
        value=lambda t, tp, r: r_power_bregman(F, r, t[0], tp[0]),
        target=lambda t, tp: qcvx_bregman(F, t, tp))
