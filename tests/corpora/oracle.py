"""The oracles' calls: the seeded corpus of ``data/oracle_pins.json``.

The file holds, for every call of the corpus below, what the oracle returned
or raised, as ``pins.outcome`` encodes it: values as ``float.hex``, tie flags,
``converged``, ``panels`` and ``error_bound``, the error type and message, and
the ``GeneratorClassWarning``s it issued with their counts.  The corpus covers
``integrate``, ``kl_quadrature``, ``integrate_delta_average`` and the three
limit studies on both branches, a quasiconcave generator and error cases, all
on inputs that every version of the oracles accepts or rejects alike: finite
intervals with finite integrands and schedules up to ``k_max = 40``.
"""

import math
import random

import pins
from qcdiv import oracles
from qcdiv.checks import sample_point, sweep_catalog
from qcdiv.core import build_generator
from qcdiv.statdiv import NestedUniform, PowerNested


def _integrate_cases(rng):
    for i in range(8):
        s, b = rng.uniform(-0.9, 1.5), rng.uniform(0.5, 3.0)
        tol = (1e-6, 1e-10)[i % 2]
        yield (f"x^{s!r} on [0, {b!r}] tol={tol}",
               lambda s=s, b=b, tol=tol: oracles.integrate(lambda x: x**s, 0.0, b, abs_tol=tol))
    yield "x*x on int [0, 1]", lambda: oracles.integrate(lambda x: x * x, 0, 1)
    yield "sin on [0, pi]", lambda: oracles.integrate(math.sin, 0.0, math.pi)
    yield "log on [0, 1]", lambda: oracles.integrate(math.log, 0.0, 1.0)
    yield ("gauss-cos on [-2, 2] tol=1e-8",
           lambda: oracles.integrate(lambda x: math.exp(-x * x) * math.cos(3 * x), -2, 2,
                                     abs_tol=1e-8))
    yield ("1e9(1+sin) on [-2, 2.3]",
           lambda: oracles.integrate(lambda x: 1e9 * (1.0 + math.sin(x)), -2.0, 2.3))
    yield "x^-0.35 misses", lambda: oracles.integrate(lambda x: x**-0.35, 0.0, 1.0)
    yield "empty interval", lambda: oracles.integrate(math.sin, 1.0, 1.0)
    yield "reversed interval", lambda: oracles.integrate(math.sin, 2.0, 1.0)


def _kl_cases(rng):
    for i in range(6):
        alpha, t1, t2 = rng.uniform(1.2, 4.0), rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0)
        yield (f"power {alpha!r} {t1!r} : {t2!r}",
               lambda a=alpha, t1=t1, t2=t2: oracles.kl_quadrature(PowerNested(a, t1),
                                                                    PowerNested(a, t2)))
    for i in range(4):
        t1, t2 = rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0)
        yield (f"uniform {t1!r} : {t2!r}",
               lambda t1=t1, t2=t2: oracles.kl_quadrature(NestedUniform(t1), NestedUniform(t2)))
    yield ("power tol=1e-8", lambda: oracles.kl_quadrature(PowerNested(2.5, 1.0),
                                                            PowerNested(2.5, 1.7), abs_tol=1e-8))
    yield ("power tol=0 misses", lambda: oracles.kl_quadrature(PowerNested(2.5, 1.0),
                                                               PowerNested(2.5, 2.0), abs_tol=0.0))


def _delta_cases(rng):
    for case in sweep_catalog():
        Q = case.generator
        if Q.dim != 1:
            continue
        for j in range(3):
            t, tp = sample_point(rng, case.box)[0], sample_point(rng, case.box)[0]
            # Two of three ordered for the finite branch, one as drawn.
            if j < 2 and Q((t,)) > Q((tp,)):
                t, tp = tp, t
            delta = rng.uniform(0.1, 1.5)
            yield (f"{Q.name} {t!r} : {tp!r} delta={delta!r}",
                   lambda Q=Q, t=t, tp=tp, d=delta: oracles.integrate_delta_average(Q, t, tp, d))
    log, sine, quad = map(build_generator, ("log", "sine", "quadratic"))
    two_d = build_generator({"name": "log-norm-sq", "dim": 2})
    sep = build_generator({"separable": ["quadratic", "cubic"]})
    calls = {
        "sine infinite integrand": (sine, 0.0, 3.0, 1.0),
        "neg(log) shifted point leaves the domain": (build_generator({"negate": "log"}),
                                                     2.0, 1.0, 1.5),
        "log precondition": (log, 2.0, 1.5, 0.5),
        "quadratic identical points": (quad, 1.0, 1.0, 0.5),
        "quadratic reversed orientation": (quad, 1.0, -2.0, 0.5),
        "delta zero": (quad, 1.0, 2.0, 0.0),
        "delta nan": (quad, 1.0, 2.0, math.nan),
        "theta nan": (quad, math.nan, 2.0, 0.5),
        "theta_p out of domain": (log, 1.0, -2.0, 0.5),
        "2-D points": (two_d, (1.0, 2.0), (2.0, 3.0), 0.5),
        "generator dimension": (two_d, 1.0, 2.0, 0.5),
        "quadratic shifted points merge": (quad, 0.5, 1.0, 1e19),
        "cubic shifted points merge": (build_generator("cubic"), -1.0, 0.5, 3e18),
        "log shifted points merge": (log, 1.0, 2.0, 1e50),
        "quadratic infinite span": (quad, 1.0, 3.0, 1e308),
        "3-D neg-gauss": (build_generator({"name": "neg-gauss", "dim": 3}),
                          (0.1, -0.4, 0.3), (0.9, 0.2, -1.1), 0.8),
        "2-D separable": (sep, (-1.0, 0.5), (2.0, 1.0), 0.5),
        "2-D separable infinite integrand": (sep, (2.2, -1.6), (1.6, 0.2), 0.5),
        "2-D one coordinate fixed": (two_d, (1.0, 2.0), (1.0, 3.0), 0.5),
        "2-D shifted point leaves the domain": (two_d, (2.0, 2.0), (1.0, 3.0), 1.5),
        "2-D shifted points merge in one coordinate":
            (build_generator({"separable": ["quadratic", "linear"]}),
             (1.0, 2.0**52), (2.0, 2.0**52 + 1.0), 2.0**52),
        "2-D precondition": (sep, (0.5, 1.0), (-1.0, -2.0), 0.5),
        "2-D infinite span": (sep, (1.0, 2.0), (3.0, 4.0), 1e308),
    }
    for label, args in calls.items():
        yield label, lambda args=args: oracles.integrate_delta_average(*args)


_STUDY_GENERATORS = {
    "scaled_jensen": ("log", "sqrt", "quadratic", "cubic", "linear", "abs", "neg-gauss",
                      '{"negate": "quadratic"}',
                      '{"name": "linear-fractional", "a": 1, "b": 0, "c": 1, "d": 2}'),
    "power_jensen": ("sqrt", '{"affine": {"a": 1, "b": 1, "inner": {"name": "quadratic"}}}',
                     '{"negate": "neg-gauss"}', "log"),
    "r_power_bregman": ("quadratic", "sqrt", '{"affine": {"a": 2, "b": 3, "inner": "cubic"}}',
                        '{"negate": "neg-gauss"}', "linear"),
}
_STUDY_BOXES = {"log": (0.5, 10), "sqrt": (0.1, 10), "neg-gauss": (-3, 3)}


def _limit_cases(rng):
    for study, specs in _STUDY_GENERATORS.items():
        fn = getattr(oracles, "limit_" + study)
        for spec in specs:
            g = build_generator(spec)
            lo, hi = _STUDY_BOXES.get(spec, (-2.0, 2.0) if "cubic" in spec else (0.2, 4.0))
            for k_max in (4, 9, 20, 40):
                t, tp = rng.uniform(lo, hi), rng.uniform(lo, hi)
                yield (f"{study} {spec} {t!r} : {tp!r} k_max={k_max}",
                       lambda fn=fn, g=g, t=t, tp=tp, k=k_max: fn(g, t, tp, k))
            yield (f"{study} {spec} identical k_max=12",
                   lambda fn=fn, g=g, t=0.5 * (lo + hi): fn(g, t, t, 12))
    log, quad, concave = map(build_generator, ("log", "quadratic", '{"negate": "quadratic"}'))
    two_d = build_generator({"name": "log-norm-sq", "dim": 2})
    calls = {
        "scaled_jensen k_max=3": ("scaled_jensen", log, 1.0, 2.0, 3),
        "power_jensen k_max=3": ("power_jensen", log, 1.0, 2.0, 3),
        "scaled_jensen 2-D": ("scaled_jensen", two_d, (1.0, 2.0), (2.0, 1.5), 8),
        "scaled_jensen 2-D both branches": ("scaled_jensen", two_d, (2.0, 1.5), (1.0, 2.0), 8),
        "scaled_jensen theta out of domain": ("scaled_jensen", log, -1.0, 2.0, 8),
        "scaled_jensen theta_p nan": ("scaled_jensen", log, 1.0, math.nan, 8),
        "scaled_jensen dimension mismatch": ("scaled_jensen", log, (1.0,), (1.0, 2.0), 8),
        "scaled_jensen quasiconcave bad point": ("scaled_jensen", concave, 1.0, math.inf, 8),
        "power_jensen non-positive": ("power_jensen", log, 0.5, 2.0, 8),
        "power_jensen quasiconcave bad point":
            ("power_jensen", build_generator({"negate": {"name": "log-norm-sq", "dim": 2}}),
             (1.0, -1.0), (1.0, 2.0), 8),
        "power_jensen generator dimension": ("power_jensen", two_d, 1.0, 2.0, 8),
        "r_power_bregman 2-D": ("r_power_bregman", two_d, (1.0, 2.0), (2.0, 1.5), 8),
        "r_power_bregman non-positive": ("r_power_bregman", build_generator("cubic"),
                                         -1.0, 0.5, 8),
        "r_power_bregman zero value": ("r_power_bregman", quad, 0.0, 1.0, 8),
        "r_power_bregman theta_p out of domain": ("r_power_bregman", log, 1.0, 0.0, 8),
    }
    for label, (study, *args) in calls.items():
        yield label, lambda fn=getattr(oracles, "limit_" + study), args=args: fn(*args)


# key -> call; each source draws from its own seeded generator.
SOURCES = (("integrate", _integrate_cases, 1), ("kl_quadrature", _kl_cases, 2),
           ("integrate_delta_average", _delta_cases, 3), ("limit", _limit_cases, 4))
CORPUS = {f"{name}: {label}": call
          for name, cases, seed in SOURCES for label, call in cases(random.Random(seed))}
record = pins.outcome
