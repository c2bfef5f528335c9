"""Randomized property suites behind ``qcdiv check`` and the acceptance tests.

Every suite is deterministic given (samples, seed) and reports the first few
failing witnesses instead of stopping at the first failure.

A suite is a tuple of property rows ``(count, draw, ((label, check), ...))``
run by one driver, ``_run``.  For i in range(count) it calls ``draw(i)``,
skips a ``None`` draw, and calls each ``check(*drawn)``.  A check returns True
when the property holds, the witness detail when it fails, and None when it
does not apply to the draw.  The rows draw from the suite's
``random.Random(seed)`` in row order.
"""

from __future__ import annotations

import functools
import math
import random
from typing import NamedTuple

from .core import (Box, ExtReal, Generator, _count, _eval, _gradient, bounded_box,
                   build_generator, sample_point)
from .jensen import _extended_jensen, _qccv_jensen, _qcvx_jensen
from .bregman import _bregman, _delta_averaged_qcvx_bregman, _qcvx_bregman
from .means import MeanSpec, _mn_jensen, _weighted_mean
from .statdiv import (NestedUniform, PowerNested, _cross_entropy, _from_kl, kl_nested_uniform,
                      kl_power_nested)
from .oracles import NonConvergenceError, integrate, kl_quadrature

MAX_WITNESSES = 50


class SuiteResult(NamedTuple):
    """One suite run: its checks, failures and the first MAX_WITNESSES witnesses."""

    suite: str
    checked: int = 0
    failures: tuple = ()
    failed: int = 0

    @property
    def passed(self) -> bool:
        return not self.failed

    def report_lines(self):
        status = "PASS" if self.passed else "FAIL"
        yield f"suite {self.suite}: {self.checked} checks, {self.failed} failures -> {status}"
        for w in self.failures[:5]:
            yield f"  witness: {w}"


class SweepCase(NamedTuple):
    """A catalog generator paired with a bounded sampling box inside its domain."""

    generator: Generator
    box: Box


# The suites' generators, one per spec text, each built on first use and kept
# for the process.  The key is text, never a generator, so a catalog patched
# with other generators cannot leave them here.
_generator = functools.cache(build_generator)


# The identities suite's wrappers of a catalog generator, keyed on its spec
# text for the same reason, each built once, so that a draw builds nothing.
@functools.cache
def _negated(spec: str) -> Generator:
    return build_generator({"negate": spec})


@functools.cache
def _scaled(a: float, b: float, spec: str) -> Generator:
    return build_generator({"affine": {"a": a, "b": b, "inner": spec}})


@functools.cache
def sweep_catalog():
    """The quasiconvex catalog with sampling boxes for randomized sweeps, built once."""
    return (
        SweepCase(_generator("linear"), bounded_box((-5, 5))),
        SweepCase(_generator("quadratic"), bounded_box((-5, 5))),
        SweepCase(_generator("cubic"), bounded_box((-4, 4))),
        SweepCase(_generator("sqrt"), bounded_box((0.1, 10))),
        SweepCase(_generator("log"), bounded_box((0.1, 10))),
        SweepCase(_generator("abs"), bounded_box((-5, 5))),
        SweepCase(_generator("neg-gauss"), bounded_box((-3, 3))),
        SweepCase(_generator('{"name": "log-norm-sq", "dim": 2}'),
                  bounded_box((0.1, 10), (0.1, 10))),
        SweepCase(_generator('{"name": "linear-fractional", "a": 1, "b": 0, "c": 1, "d": 2}'),
                  bounded_box((-1.5, 10))),
    )


_HALF_QUAD = '{"affine": {"a": 0.5, "b": 0.0, "inner": {"name": "quadratic"}}}'


@functools.cache
def _cumulants():
    """The cumulants of the identities suite's two exponential families, with boxes."""
    return (
        SweepCase(_generator(_HALF_QUAD), bounded_box((-4, 4))),
        SweepCase(_generator(f'{{"separable": [{_HALF_QUAD}, {_HALF_QUAD}]}}'),
                  bounded_box((-4, 4), (-4, 4))),
    )


def _run(suite: str, rows) -> SuiteResult:
    """Run property rows in order; a witness reads ``"<label>: <detail>"``."""
    passed = failed = 0
    witnesses = []
    for count, draw, checks in rows:
        for i in range(count):
            drawn = draw(i)
            if drawn is None:
                continue
            for label, check in checks:
                out = check(*drawn)
                if out is True:
                    passed += 1
                elif out is not None:
                    failed += 1
                    if failed <= MAX_WITNESSES:
                        witnesses.append(f"{label}: {out}")
    return SuiteResult(suite, passed + failed, tuple(witnesses), failed)


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * (1.0 + max(abs(a), abs(b)))


def _valued(Q: Generator, t, tp):
    """(t, tp, Q(t), Q(tp)) at float tuples of Q's dimension, which are not coerced."""
    return t, tp, _eval(Q, t), _eval(Q, tp)


def _two(Q: Generator, rng: random.Random, box: Box):
    """(t, tp, Q(t), Q(tp)) at two points of box.

    The points need no coercion: a sweep box is bounded, of Q's dimension and
    inside Q's domain, so ``sample_point`` returns float tuples that
    ``_eval``'s domain check passes.
    """
    return _valued(Q, sample_point(rng, box), sample_point(rng, box))


def _order(t, tp, qt, qtp):
    """The pair ordered so that qt <= qtp; a tie keeps the given order."""
    return (tp, t, qtp, qt) if qt > qtp else (t, tp, qt, qtp)


def _catalog_pairs(rng: random.Random, cases):
    """Draw i is (i, Q, t, tp, qt, qtp, alpha) from the case that i cycles to."""
    def draw(i):
        Q, box = cases[i % len(cases)]
        return (i, Q, *_two(Q, rng, box), rng.uniform(0.05, 0.95))
    return draw


_SCALE_FACTORS = (0.5, 2.0, 10.0)
_SCALE_OFFSETS = (-3.0, 0.0, 7.0)


def suite_identities(samples: int, seed: int) -> SuiteResult:
    """Algebraic identities of the Jensen/Bregman/KL formulas, 1e-10 relative."""
    rng = random.Random(seed)
    cases = sweep_catalog()
    n = len(cases)
    pairs = _catalog_pairs(rng, cases)
    cumulants = _cumulants()

    # The wrappers are other generators, evaluated at the points the draw checked.
    def negate(i, Q, t, tp, qt, qtp, alpha):
        H = _negated(Q.spec)  # the negation is quasiconcave
        lhs = _qccv_jensen(H, alpha, t, tp, _eval(H, t), _eval(H, tp))
        rhs = _qcvx_jensen(Q, alpha, t, tp, qt, qtp)
        return (abs(lhs - rhs) <= 1e-14 * (1.0 + abs(rhs))
                or f"{Q.name} t={t} tp={tp} a={alpha}: {lhs} vs {rhs}")

    # Draw i scales case i % n by a, b from k = (i // n) % 9, so the first 9n
    # draws cover every (case, a, b).
    def scaling(i, Q, t, tp, qt, qtp, alpha):
        k = i // n % 9
        a = _SCALE_FACTORS[k % 3]
        wrapped = _scaled(a, _SCALE_OFFSETS[k // 3], Q.spec)
        lhs = _qcvx_jensen(wrapped, alpha, t, tp, _eval(wrapped, t), _eval(wrapped, tp))
        rhs = a * _qcvx_jensen(Q, alpha, t, tp, qt, qtp)
        return _close(lhs, rhs, 1e-10) or f"{wrapped.name} t={t} tp={tp} a={alpha}: {lhs} vs {rhs}"

    def half(i, Q, t, tp, qt, qtp, alpha):
        lhs = _qcvx_jensen(Q, 0.5, t, tp, qt, qtp)
        rhs = _extended_jensen(Q, 0.5, t, tp, qt, qtp) + 0.5 * abs(qt - qtp)
        return _close(lhs, rhs, 1e-10) or f"{Q.name} t={t} tp={tp}: {lhs} vs {rhs}"

    def skewed(i, Q, t, tp, qt, qtp, alpha):
        lhs = _qcvx_jensen(Q, alpha, t, tp, qt, qtp)
        rhs = (_extended_jensen(Q, alpha, t, tp, qt, qtp) + 0.5 * abs(qt - qtp)
               + qt * (alpha - 0.5) + qtp * (0.5 - alpha))
        return _close(lhs, rhs, 1e-10) or f"{Q.name} t={t} tp={tp} a={alpha}: {lhs} vs {rhs}"

    def below(i, Q, t, tp, qt, qtp, alpha):
        ej, qj = _extended_jensen(Q, alpha, t, tp, qt, qtp), _qcvx_jensen(Q, alpha, t, tp, qt, qtp)
        return (ej <= qj + 1e-10 * (1.0 + abs(qj))
                or f"{Q.name} t={t} tp={tp} a={alpha}: {ej} > {qj}")

    def above(i, Q, t, tp, qt, qtp, alpha):
        lower = -0.5 * abs(qt - qtp)
        ej = _extended_jensen(Q, 0.5, t, tp, qt, qtp)
        return (ej >= lower - 1e-10 * (1.0 + abs(lower))
                or f"{Q.name} t={t} tp={tp}: {ej} < {lower}")

    # A family is its cumulant F; KL(p_t : p_tp) is the Bregman divergence B_F(tp : t).
    def fam_pairs(i):
        F, box = cumulants[i % len(cumulants)]
        return F, *_two(F, rng, box)

    def cross_entropy(F, t, tp, ft, ftp):
        g = _gradient(F, t)  # grad F(t), shared by the cross-entropy and the entropy
        kl = _bregman(F, _gradient, tp, t, ftp, ft)
        ce, h = _cross_entropy(g, tp, ftp), _cross_entropy(g, t, ft)
        return _close(kl, ce - h, 1e-10) or f"t={t} tp={tp}: {kl} vs {ce - h}"

    def from_kl(F, t, tp, ft, ftp):
        tp, t, ftp, ft = _order(tp, t, ftp, ft)  # F(tp) <= F(t)
        lhs, rhs = _from_kl(F, t, tp, ft, ftp), _qcvx_bregman(F, _gradient, tp, t, ftp, ft)
        return _close(float(lhs), float(rhs), 1e-10) or f"t={t} tp={tp}: {lhs} vs {rhs}"

    return _run("identities", (
        (samples, pairs, (("qccv/negate", negate),)),
        (samples, pairs, (("scaling", scaling),)),
        (samples, pairs, (("half-decomposition", half),)),
        (samples, pairs, (("alpha-decomposition", skewed),)),
        (samples, pairs, (("eJ<=qcvxJ", below), ("eJ>=-|dQ|/2", above))),
        (samples, fam_pairs, (("kl=cross-entropy", cross_entropy),)),
        (samples, fam_pairs, (("qcvxB-from-kl", from_kl),)),
    ))


def _first_order(Q, t, tp, qt, qtp):
    v = float(_qcvx_bregman(Q, _gradient, t, tp, qt, qtp))
    return v >= -1e-9 or f"{Q.name} t={t} tp={tp}: {v}"


def suite_first_order(samples: int, seed: int) -> SuiteResult:
    """Finite-branch nonnegativity of qcvx_bregman for every catalog generator."""
    rng = random.Random(seed)

    def ordered(case):
        Q = case.generator
        return lambda i: (Q, *_order(*_two(Q, rng, case.box)))

    return _run("first-order", tuple((samples, ordered(case), (("first-order", _first_order),))
                                     for case in sweep_catalog()))


def _one_sided(Q, t, tp, qt, qtp):
    fwd, rev = (_qcvx_bregman(Q, _gradient, t, tp, qt, qtp),
                _qcvx_bregman(Q, _gradient, tp, t, qtp, qt))
    return fwd.is_inf != rev.is_inf or f"{Q.name} t={t} tp={tp}: fwd={fwd} rev={rev}"


def suite_one_sided_infinity(samples: int, seed: int) -> SuiteResult:
    """For Q(t) != Q(tp), exactly one orientation of qcvx_bregman is infinite."""
    rng = random.Random(seed)

    def distinct(case):
        def draw(i):
            while True:  # redraw both points until Q(t) != Q(tp)
                t, tp, qt, qtp = _two(case.generator, rng, case.box)
                if qt != qtp:
                    return case.generator, t, tp, qt, qtp
        return draw

    return _run("one-sided-infinity", tuple((samples, distinct(case), (("one-sided", _one_sided),))
                                            for case in sweep_catalog()))


# ``pair`` is (t, tp, Q(t), Q(tp)) over float tuples, from _valued; the witness
# shows t and tp as drawn, so the cubic row's witnesses print scalars.
def _positive(Q, t, tp, delta, pair):
    v = float(_delta_averaged_qcvx_bregman(Q, delta, *pair))
    return v > 0.0 or f"{Q.name} t={t} tp={tp} delta={delta}: {v}"


def suite_delta_positivity(samples: int, seed: int) -> SuiteResult:
    """Strict positivity of the delta-averaged divergence at distinct points.

    Covers the cubic inflection case (theta_p = 0 exactly) and, for the open
    question about ties in higher dimension, 2-D radial pairs with equal
    generator values.
    """
    rng = random.Random(seed)
    cubic = _generator("cubic")
    quad2 = _generator('{"separable": [{"name": "quadratic"}, {"name": "quadratic"}]}')
    gauss2 = _generator('{"name": "neg-gauss", "dim": 2}')

    def cubic_pair(i):
        delta = rng.uniform(0.05, 2.0)
        if i % 10 == 0:
            t, tp = rng.uniform(-4.0, -0.01), 0.0  # inflection point of the cubic
        else:  # cubic is increasing: Q(tp) >= Q(t)
            t, tp = sorted((rng.uniform(-4, 4), rng.uniform(-4, 4)))
        return None if t == tp else (cubic, t, tp, delta, _valued(cubic, (t,), (tp,)))

    def radial_pair(i):
        Q = quad2 if i % 2 == 0 else gauss2
        r = rng.uniform(0.5, 2.5)
        a1, a2 = rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)
        if a1 == a2:
            return None
        pair = _order(*_valued(Q, (r * math.cos(a1), r * math.sin(a1)),
                               (r * math.cos(a2), r * math.sin(a2))))
        return Q, *pair[:2], rng.uniform(0.05, 2.0), pair

    return _run("delta-positivity", (
        (samples, cubic_pair, (("delta-positivity", _positive),)),
        (samples, radial_pair, (("delta-positivity-2d", _positive),)),
    ))


def _nested_kl_row(rng, samples, name, draw_params, family, closed_form):
    """A nested family's row: closed-form KL against quadrature both ways, and normalization.

    ``draw_params()`` draws the family's parameters before theta.
    """
    def draw(i):
        params = draw_params()
        a, b = rng.uniform(0.2, 3.0), rng.uniform(0.2, 3.0)
        t, tp = min(a, b), max(a, b)
        prefix = "".join(f"alpha={x} " for x in params)
        return params, prefix, t, tp, family(*params, t), family(*params, tp)

    def forward(params, prefix, t, tp, p, q):
        closed = closed_form(*params, t, tp)
        try:
            quad = kl_quadrature(p, q)
        except NonConvergenceError as e:  # a failed check, not a crash
            quad = e
        return (isinstance(quad, ExtReal) and abs(float(quad) - float(closed)) <= 1e-6
                or f"{prefix}t={t} tp={tp}: closed={closed} quad={quad}")

    def reverse(params, prefix, t, tp, p, q):
        if t == tp:
            return None
        return (kl_quadrature(q, p).is_inf and closed_form(*params, tp, t).is_inf
                or f"{prefix}t={t} tp={tp}")

    def normalization(params, prefix, t, tp, p, q):
        mass = integrate(p.pdf, *p.support())
        return (mass.converged and abs(mass.value - 1.0) <= 1e-10
                or f"{prefix}theta={t}: {mass.value} converged={mass.converged}")

    return samples, draw, ((f"kl-{name}", forward), (f"kl-{name}-reverse not inf", reverse),
                           (f"{name} normalization", normalization))


def suite_kl_quadrature(samples: int, seed: int) -> SuiteResult:
    """Closed-form nested-family KL against numeric quadrature, plus normalization."""
    rng = random.Random(seed)
    return _run("kl-quadrature", (
        _nested_kl_row(rng, samples, "uniform", lambda: (), NestedUniform, kl_nested_uniform),
        _nested_kl_row(rng, samples, "power", lambda: (rng.uniform(1.2, 4.0),), PowerNested,
                       kl_power_nested),
    ))


_ALPHA_GRID = tuple(k / 10.0 for k in range(1, 10))


def suite_means(samples: int, seed: int) -> SuiteResult:
    """Mean axioms: in-betweenness, power-mean monotonicity, special cases, max limit."""
    rng = random.Random(seed)
    arith, geo = MeanSpec.arithmetic(), MeanSpec.power(0.0)
    qa_id = MeanSpec.quasi_arithmetic(_generator("linear"))
    qa_log = MeanSpec.quasi_arithmetic(_generator("log"))
    kinds = (arith, MeanSpec.power(-2.0), MeanSpec.power(-1.0), geo, MeanSpec.power(0.5),
             MeanSpec.power(1.0), MeanSpec.power(3.0), qa_id, qa_log, MeanSpec.maximum(),
             MeanSpec.minimum())
    powers = tuple(MeanSpec.power(2.0**k) for k in range(0, 11))

    def on_grid(i):
        x, y = rng.uniform(0.05, 20.0), rng.uniform(0.05, 20.0)
        return i, x, y, _ALPHA_GRID[i % len(_ALPHA_GRID)]

    def between(i, x, y, alpha):
        spec = kinds[i % len(kinds)]
        m = _weighted_mean(spec, x, y, alpha)
        return (min(x, y) <= m <= max(x, y)
                or f"{spec.kind}({spec.delta}) x={x} y={y} a={alpha}: {m}")

    def exponents(i):
        x, y = rng.uniform(0.05, 20.0), rng.uniform(0.05, 20.0)
        d1, d2 = sorted((rng.uniform(-5, 5), rng.uniform(-5, 5)))
        return None if d1 == d2 else (x, y, d1, d2)

    def monotone(x, y, d1, d2):
        p1 = _weighted_mean(MeanSpec.power(d1), x, y, 0.5)
        p2 = _weighted_mean(MeanSpec.power(d2), x, y, 0.5)
        return p1 <= p2 + 1e-12 * (1.0 + p2) or f"x={x} y={y} d1={d1} d2={d2}: {p1} > {p2}"

    def agree(spec, ref):
        return lambda i, x, y, alpha: (
            _close(_weighted_mean(spec, x, y, alpha), _weighted_mean(ref, x, y, alpha), 1e-10)
            or f"x={x} y={y} a={alpha}")

    def toward_max(i):
        x = rng.uniform(0.5, 5.0)
        y = x * rng.uniform(0.1, 10.0)
        if x == y:
            return None
        top = max(x, y)
        return x, y, top, [abs(_weighted_mean(p, x, y, 0.5) - top) for p in powers]

    def limit_monotone(x, y, top, errs):
        return (all(b <= a + 1e-15 * top for a, b in zip(errs, errs[1:]))
                or f"x={x} y={y}: {errs}")

    def limit_reached(x, y, top, errs):
        return errs[-1] <= 1e-3 * top or f"x={x} y={y}: {errs[-1]}"

    def mn_skewed(i, F, t, tp, ft, ftp, alpha):
        lhs = _mn_jensen(F, alpha, arith, arith, t, tp, ft, ftp)
        rhs = _extended_jensen(F, alpha, t, tp, ft, ftp)
        return _close(lhs, rhs, 1e-12) or f"{F.name} t={t} tp={tp} a={alpha}: {lhs} vs {rhs}"

    return _run("means", (
        (samples, on_grid, (("in-betweenness", between),)),
        (samples, exponents, (("power-monotone", monotone),)),
        (samples, on_grid, (("qa(id)=arithmetic", agree(qa_id, arith)),
                            ("qa(log)=geometric", agree(qa_log, geo)))),
        (max(1, samples // 10), toward_max, (("max-limit not monotone", limit_monotone),
                                              ("max-limit too far", limit_reached))),
        (samples, _catalog_pairs(rng, [c for c in sweep_catalog() if c.generator.dim == 1]),
         (("mn(A,A)=skewed-jensen", mn_skewed),)),
    ))


SUITES = {
    "identities": suite_identities,
    "first-order": suite_first_order,
    "one-sided-infinity": suite_one_sided_infinity,
    "delta-positivity": suite_delta_positivity,
    "kl-quadrature": suite_kl_quadrature,
    "means": suite_means,
}


def run_suite(name: str, samples: int, seed: int) -> SuiteResult:
    """Suite ``name`` on ``samples`` draws from ``seed``; samples must be a whole number >= 1."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](_count("samples", samples, 1), seed)
