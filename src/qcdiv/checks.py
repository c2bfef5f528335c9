"""Randomized property suites behind ``qcdiv check`` and the acceptance tests.

Every suite is deterministic given (samples, seed) and reports the first few
failing witnesses instead of stopping at the first failure.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .core import Box, Generator, bounded_box, build_generator
from .jensen import extended_jensen, qccv_jensen, qcvx_jensen
from .bregman import delta_averaged_qcvx_bregman, qcvx_bregman
from .means import MeanSpec, mn_jensen, weighted_mean
from .statdiv import (
    ExpFamily,
    NestedUniform,
    PowerNested,
    expfam_cross_entropy,
    expfam_entropy,
    expfam_kl,
    kl_nested_uniform,
    kl_power_nested,
    qcvx_bregman_from_kl,
)
from .oracles import integrate, kl_quadrature

MAX_WITNESSES = 50


@dataclass
class SuiteResult:
    suite: str
    checked: int = 0
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def check(self, ok: bool, witness) -> None:
        self.checked += 1
        if not ok and len(self.failures) < MAX_WITNESSES:
            self.failures.append(witness() if callable(witness) else witness)

    def report_lines(self):
        status = "PASS" if self.passed else "FAIL"
        yield f"suite {self.suite}: {self.checked} checks, {len(self.failures)} failures -> {status}"
        for w in self.failures[:5]:
            yield f"  witness: {w}"


@dataclass(frozen=True)
class SweepCase:
    """A catalog generator paired with a bounded sampling box inside its domain."""

    generator: Generator
    box: Box


def sweep_catalog():
    """The quasiconvex catalog with sampling boxes for randomized sweeps."""
    return (
        SweepCase(build_generator("linear"), bounded_box((-5, 5))),
        SweepCase(build_generator("quadratic"), bounded_box((-5, 5))),
        SweepCase(build_generator("cubic"), bounded_box((-4, 4))),
        SweepCase(build_generator("sqrt"), bounded_box((0.1, 10))),
        SweepCase(build_generator("log"), bounded_box((0.1, 10))),
        SweepCase(build_generator("abs"), bounded_box((-5, 5))),
        SweepCase(build_generator("neg-gauss"), bounded_box((-3, 3))),
        SweepCase(build_generator({"name": "log-norm-sq", "dim": 2}),
                  bounded_box((0.1, 10), (0.1, 10))),
        SweepCase(
            build_generator({"name": "linear-fractional", "a": 1, "b": 0, "c": 1, "d": 2}),
            bounded_box((-1.5, 10)),
        ),
    )


def sample_point(rng: random.Random, box: Box):
    return tuple(rng.uniform(iv.lower, iv.upper) for iv in box.intervals)


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * (1.0 + max(abs(a), abs(b)))


_SCALE_FACTORS = (0.5, 2.0, 10.0)
_SCALE_OFFSETS = (-3.0, 0.0, 7.0)


def suite_identities(samples: int, seed: int) -> SuiteResult:
    """Algebraic identities of the Jensen/Bregman/KL formulas, 1e-10 relative."""
    res = SuiteResult("identities")
    rng = random.Random(seed)
    cases = sweep_catalog()
    negated = tuple(build_generator({"negate": c.generator.spec}) for c in cases)

    def draw(i):
        case = cases[i % len(cases)]
        t = sample_point(rng, case.box)
        tp = sample_point(rng, case.box)
        alpha = rng.uniform(0.05, 0.95)
        return case, t, tp, alpha

    for i in range(samples):
        case, t, tp, alpha = draw(i)
        neg = negated[i % len(cases)]
        lhs = qccv_jensen(neg, t, tp, alpha)   # neg is quasiconcave
        rhs = qcvx_jensen(case.generator, t, tp, alpha)
        res.check(
            abs(lhs - rhs) <= 1e-14 * (1.0 + abs(rhs)),
            lambda: f"qccv/negate: {case.generator.name} t={t} tp={tp} a={alpha}: {lhs} vs {rhs}",
        )

    for i in range(samples):
        case, t, tp, alpha = draw(i)
        a = _SCALE_FACTORS[i % 3]
        b = _SCALE_OFFSETS[(i // 3) % 3]
        wrapped = build_generator(
            {"affine": {"a": a, "b": b, "inner": case.generator.spec}}
        )
        lhs = qcvx_jensen(wrapped, t, tp, alpha)
        rhs = a * qcvx_jensen(case.generator, t, tp, alpha)
        res.check(
            _close(lhs, rhs, 1e-10),
            lambda: f"scaling: {wrapped.name} t={t} tp={tp} a={alpha}: {lhs} vs {rhs}",
        )

    for i in range(samples):
        case, t, tp, _ = draw(i)
        Q = case.generator
        qt, qtp = Q(t), Q(tp)
        lhs = qcvx_jensen(Q, t, tp, 0.5)
        rhs = extended_jensen(Q, t, tp, 0.5) + 0.5 * abs(qt - qtp)
        res.check(
            _close(lhs, rhs, 1e-10),
            lambda: f"half-decomposition: {Q.name} t={t} tp={tp}: {lhs} vs {rhs}",
        )

    for i in range(samples):
        case, t, tp, alpha = draw(i)
        Q = case.generator
        qt, qtp = Q(t), Q(tp)
        lhs = qcvx_jensen(Q, t, tp, alpha)
        rhs = (extended_jensen(Q, t, tp, alpha) + 0.5 * abs(qt - qtp)
               + qt * (alpha - 0.5) + qtp * (0.5 - alpha))
        res.check(
            _close(lhs, rhs, 1e-10),
            lambda: f"alpha-decomposition: {Q.name} t={t} tp={tp} a={alpha}: {lhs} vs {rhs}",
        )

    for i in range(samples):
        case, t, tp, alpha = draw(i)
        Q = case.generator
        ej = extended_jensen(Q, t, tp, alpha)
        qj = qcvx_jensen(Q, t, tp, alpha)
        res.check(
            ej <= qj + 1e-10 * (1.0 + abs(qj)),
            lambda: f"eJ<=qcvxJ: {Q.name} t={t} tp={tp} a={alpha}: {ej} > {qj}",
        )
        lower = -0.5 * abs(Q(t) - Q(tp))
        ej_half = extended_jensen(Q, t, tp, 0.5)
        res.check(
            ej_half >= lower - 1e-10 * (1.0 + abs(lower)),
            lambda: f"eJ>=-|dQ|/2: {Q.name} t={t} tp={tp}: {ej_half} < {lower}",
        )

    fams = _expfam_cases()
    for i in range(samples):
        fam, box = fams[i % len(fams)]
        t = sample_point(rng, box)
        tp = sample_point(rng, box)
        kl = expfam_kl(fam, t, tp)
        ce = expfam_cross_entropy(fam, t, tp)
        h = expfam_entropy(fam, t)
        res.check(
            _close(kl, ce - h, 1e-10),
            lambda: f"kl=cross-entropy: t={t} tp={tp}: {kl} vs {ce - h}",
        )

    for i in range(samples):
        fam, box = fams[i % len(fams)]
        t = sample_point(rng, box)
        tp = sample_point(rng, box)
        if fam.F(tp) > fam.F(t):
            t, tp = tp, t
        lhs = qcvx_bregman_from_kl(fam, t, tp)
        rhs = qcvx_bregman(fam.F, tp, t)
        res.check(
            _close(float(lhs), float(rhs), 1e-10),
            lambda: f"qcvxB-from-kl: t={t} tp={tp}: {lhs} vs {rhs}",
        )
    return res


def _expfam_cases():
    half_quad = {"affine": {"a": 0.5, "b": 0.0, "inner": {"name": "quadratic"}}}
    return (
        (ExpFamily(build_generator(half_quad)), bounded_box((-4, 4))),
        (ExpFamily(build_generator({"separable": [half_quad, half_quad]})),
         bounded_box((-4, 4), (-4, 4))),
    )


def suite_first_order(samples: int, seed: int) -> SuiteResult:
    """Finite-branch nonnegativity of qcvx_bregman for every catalog generator."""
    res = SuiteResult("first-order")
    rng = random.Random(seed)
    for case in sweep_catalog():
        Q = case.generator
        for _ in range(samples):
            t = sample_point(rng, case.box)
            tp = sample_point(rng, case.box)
            if Q(t) > Q(tp):
                t, tp = tp, t
            v = qcvx_bregman(Q, t, tp)
            res.check(
                float(v) >= -1e-9,
                lambda: f"first-order: {Q.name} t={t} tp={tp}: {float(v)}",
            )
    return res


def suite_one_sided_infinity(samples: int, seed: int) -> SuiteResult:
    """For Q(t) != Q(tp), exactly one orientation of qcvx_bregman is infinite."""
    res = SuiteResult("one-sided-infinity")
    rng = random.Random(seed)
    for case in sweep_catalog():
        Q = case.generator
        done = 0
        while done < samples:
            t = sample_point(rng, case.box)
            tp = sample_point(rng, case.box)
            if Q(t) == Q(tp):
                continue
            done += 1
            fwd = qcvx_bregman(Q, t, tp)
            rev = qcvx_bregman(Q, tp, t)
            res.check(
                fwd.is_inf != rev.is_inf,
                lambda: f"one-sided: {Q.name} t={t} tp={tp}: fwd={fwd} rev={rev}",
            )
    return res


def suite_delta_positivity(samples: int, seed: int) -> SuiteResult:
    """Strict positivity of the delta-averaged divergence at distinct points.

    Covers the cubic inflection case (theta_p = 0 exactly) and, for the open
    question about ties in higher dimension, 2-D radial pairs with equal
    generator values.
    """
    res = SuiteResult("delta-positivity")
    rng = random.Random(seed)
    cubic = build_generator("cubic")
    for i in range(samples):
        delta = rng.uniform(0.05, 2.0)
        if i % 10 == 0:
            t, tp = rng.uniform(-4.0, -0.01), 0.0  # inflection point of the cubic
        else:
            a, b = rng.uniform(-4, 4), rng.uniform(-4, 4)
            if a == b:
                continue
            t, tp = min(a, b), max(a, b)  # cubic is increasing: Q(tp) >= Q(t)
        v = delta_averaged_qcvx_bregman(cubic, t, tp, delta)
        res.check(
            float(v) > 0.0,
            lambda: f"delta-positivity: cubic t={t} tp={tp} delta={delta}: {float(v)}",
        )

    quad2 = build_generator({"separable": [{"name": "quadratic"}, {"name": "quadratic"}]})
    gauss2 = build_generator({"name": "neg-gauss", "dim": 2})
    for i in range(samples):
        Q = quad2 if i % 2 == 0 else gauss2
        r = rng.uniform(0.5, 2.5)
        a1, a2 = rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)
        if a1 == a2:
            continue
        t = (r * math.cos(a1), r * math.sin(a1))
        tp = (r * math.cos(a2), r * math.sin(a2))
        if Q(tp) < Q(t):
            t, tp = tp, t
        delta = rng.uniform(0.05, 2.0)
        v = delta_averaged_qcvx_bregman(Q, t, tp, delta)
        res.check(
            float(v) > 0.0,
            lambda: f"delta-positivity-2d: {Q.name} t={t} tp={tp} delta={delta}: {float(v)}",
        )
    return res


def suite_kl_quadrature(samples: int, seed: int) -> SuiteResult:
    """Closed-form nested-family KL against numeric quadrature, plus normalization."""
    res = SuiteResult("kl-quadrature")
    rng = random.Random(seed)
    for _ in range(samples):
        a, b = rng.uniform(0.2, 3.0), rng.uniform(0.2, 3.0)
        t, tp = min(a, b), max(a, b)
        p, q = NestedUniform(t), NestedUniform(tp)
        closed = kl_nested_uniform(t, tp)
        quad = kl_quadrature(p, q)
        res.check(
            abs(float(quad) - float(closed)) <= 1e-6,
            lambda: f"kl-uniform: t={t} tp={tp}: closed={closed} quad={quad}",
        )
        if t != tp:
            res.check(
                kl_quadrature(q, p).is_inf and kl_nested_uniform(tp, t).is_inf,
                lambda: f"kl-uniform-reverse not inf: t={t} tp={tp}",
            )
        lo, hi = p.support()
        mass = integrate(p.pdf, lo, hi).value
        res.check(
            abs(mass - 1.0) <= 1e-10,
            lambda: f"uniform normalization: theta={t}: {mass}",
        )

    for _ in range(samples):
        alpha = rng.uniform(1.2, 4.0)
        a, b = rng.uniform(0.2, 3.0), rng.uniform(0.2, 3.0)
        t, tp = min(a, b), max(a, b)
        p, q = PowerNested(alpha, t), PowerNested(alpha, tp)
        closed = kl_power_nested(alpha, t, tp)
        quad = kl_quadrature(p, q)
        res.check(
            abs(float(quad) - float(closed)) <= 1e-6,
            lambda: f"kl-power: alpha={alpha} t={t} tp={tp}: closed={closed} quad={quad}",
        )
        if t != tp:
            res.check(
                kl_quadrature(q, p).is_inf and kl_power_nested(alpha, tp, t).is_inf,
                lambda: f"kl-power-reverse not inf: alpha={alpha} t={t} tp={tp}",
            )
        lo, hi = p.support()
        mass = integrate(p.pdf, lo, hi).value
        res.check(
            abs(mass - 1.0) <= 1e-10,
            lambda: f"power normalization: alpha={alpha} theta={t}: {mass}",
        )
    return res


_ALPHA_GRID = tuple(k / 10.0 for k in range(1, 10))


def suite_means(samples: int, seed: int) -> SuiteResult:
    """Mean axioms: in-betweenness, power-mean monotonicity, special cases, max limit."""
    res = SuiteResult("means")
    rng = random.Random(seed)
    kinds = (
        MeanSpec.arithmetic(),
        MeanSpec.power(-2.0),
        MeanSpec.power(-1.0),
        MeanSpec.power(0.0),
        MeanSpec.power(0.5),
        MeanSpec.power(1.0),
        MeanSpec.power(3.0),
        MeanSpec.quasi_arithmetic(build_generator("linear")),
        MeanSpec.quasi_arithmetic(build_generator("log")),
        MeanSpec.maximum(),
        MeanSpec.minimum(),
    )
    for i in range(samples):
        x, y = rng.uniform(0.05, 20.0), rng.uniform(0.05, 20.0)
        alpha = _ALPHA_GRID[i % len(_ALPHA_GRID)]
        spec = kinds[i % len(kinds)]
        m = weighted_mean(spec, x, y, alpha)
        res.check(
            min(x, y) <= m <= max(x, y),
            lambda: f"in-betweenness: {spec.kind}({spec.delta}) x={x} y={y} a={alpha}: {m}",
        )

    for _ in range(samples):
        x, y = rng.uniform(0.05, 20.0), rng.uniform(0.05, 20.0)
        d1, d2 = sorted((rng.uniform(-5, 5), rng.uniform(-5, 5)))
        if d1 == d2:
            continue
        p1 = weighted_mean(MeanSpec.power(d1), x, y, 0.5)
        p2 = weighted_mean(MeanSpec.power(d2), x, y, 0.5)
        res.check(
            p1 <= p2 + 1e-12 * (1.0 + p2),
            lambda: f"power-monotone: x={x} y={y} d1={d1} d2={d2}: {p1} > {p2}",
        )

    qa_id = MeanSpec.quasi_arithmetic(build_generator("linear"))
    qa_log = MeanSpec.quasi_arithmetic(build_generator("log"))
    for i in range(samples):
        x, y = rng.uniform(0.05, 20.0), rng.uniform(0.05, 20.0)
        alpha = _ALPHA_GRID[i % len(_ALPHA_GRID)]
        res.check(
            _close(weighted_mean(qa_id, x, y, alpha),
                   weighted_mean(MeanSpec.arithmetic(), x, y, alpha), 1e-10),
            lambda: f"qa(id)=arithmetic: x={x} y={y} a={alpha}",
        )
        res.check(
            _close(weighted_mean(qa_log, x, y, alpha),
                   weighted_mean(MeanSpec.power(0.0), x, y, alpha), 1e-10),
            lambda: f"qa(log)=geometric: x={x} y={y} a={alpha}",
        )

    for _ in range(max(1, samples // 10)):
        x = rng.uniform(0.5, 5.0)
        y = x * rng.uniform(0.1, 10.0)
        if x == y:
            continue
        top = max(x, y)
        errs = [abs(weighted_mean(MeanSpec.power(2.0**k), x, y, 0.5) - top)
                for k in range(0, 11)]
        res.check(
            all(b <= a + 1e-15 * top for a, b in zip(errs, errs[1:])),
            lambda: f"max-limit not monotone: x={x} y={y}: {errs}",
        )
        res.check(
            errs[-1] <= 1e-3 * top,
            lambda: f"max-limit too far: x={x} y={y}: {errs[-1]}",
        )

    cases = [c for c in sweep_catalog() if c.generator.dim == 1]
    arith = MeanSpec.arithmetic()
    for i in range(samples):
        case = cases[i % len(cases)]
        F = case.generator
        t = sample_point(rng, case.box)
        tp = sample_point(rng, case.box)
        alpha = rng.uniform(0.05, 0.95)
        lhs = mn_jensen(F, arith, arith, alpha, t, tp)
        rhs = extended_jensen(F, t, tp, alpha)
        res.check(
            _close(lhs, rhs, 1e-12),
            lambda: f"mn(A,A)=skewed-jensen: {F.name} t={t} tp={tp} a={alpha}: {lhs} vs {rhs}",
        )
    return res


SUITES = {
    "identities": suite_identities,
    "first-order": suite_first_order,
    "one-sided-infinity": suite_one_sided_infinity,
    "delta-positivity": suite_delta_positivity,
    "kl-quadrature": suite_kl_quadrature,
    "means": suite_means,
}


def run_suite(name: str, samples: int, seed: int) -> SuiteResult:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](samples, seed)
