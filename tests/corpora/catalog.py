"""Every catalog divergence at the library level: the seeded corpus of ``data/catalog_pins.json``.

The file holds, for every case below, the inputs and what the public function
of that ``cli.DIVERGENCES`` entry returned or raised, as ``pins.outcome``
encodes it: the value as ``float.hex`` with its tie flag, or the error type
and message, and the warnings.  Per divergence the corpus has valid draws in
both orders (so both branches of the one-sided divergences), flags and points
on or past their edges, and error inputs; named cases add the underflows and
zero bases that once escaped as stray arithmetic errors.
"""

import random

import pins
from qcdiv import cli

ONE_D = ["log", "sqrt", "quadratic", "cubic", "abs", "neg-gauss", "linear", "sine",
         '{"affine": {"a": 2, "b": 1, "inner": "log"}}', '{"negate": "quadratic"}',
         '{"name": "linear-fractional", "c": -1, "d": 2}']
CONVEX = ["quadratic", "abs", '{"affine": {"a": 0.5, "b": -1, "inner": "quadratic"}}']
TWO_D = ['{"name": "log-norm-sq", "dim": 2}', '{"separable": ["quadratic", "log"]}']
MEANS = ["arithmetic", "max", "min", "power:2", "power:-1", "power:0", "qa:log", "qa:sqrt"]
# Each flag's draw of a valid value, which the eval corpus shares.
DRAWS = {
    "--alpha": lambda r: repr(r.uniform(0.05, 0.95)),
    "--delta": lambda r: repr(r.uniform(0.5, 8.0)),
    "--delta1": lambda r: r.choice(["1", "2", "3", "-1", "0.5"]),
    "--delta2": lambda r: r.choice(["1", "2", "3", "-1", "0.5"]),
    "--r": lambda r: repr(r.uniform(1.0, 50.0)),
    "--exponent": lambda r: repr(r.uniform(1.1, 5.0)),
    "--mean-m": lambda r: r.choice(MEANS),
    "--mean-n": lambda r: r.choice(MEANS),
}
# Each flag's values on or past its edge.
EDGES = {
    "--alpha": ["0", "1", "5e-324", "0.9999999999999999", "1.5", "nan", "inf"],
    "--delta": ["0", "-2", "1e300", "nan", "-inf"],
    "--delta1": ["0", "nan", "1e3", "-1e300"],
    "--delta2": ["0", "-0.0", "2000", "1e300"],
    "--r": ["1", "0.5", "nan", "inf", "1e3"],
    "--exponent": ["1", "1.0000001", "0", "nan"],
    "--mean-m": ["power:nan", "power:inf", "power:1e300", "median"],
    "--mean-n": ["power:nan", "power:-inf", "power:1e300", "qa:nope"],
}
POINT_EDGE = ["0", "-0.0", "5e-324", "1e-300", "1e154", "1e308", "-1e308", "nan", "inf", "-inf"]
KINDS = ("valid", "valid", "valid", "edge-flag", "edge-point", "edge-point", "error", "error")
# Equal values at distinct points, inputs that raised a bare ValueError or
# ZeroDivisionError from the formulas, a power mean whose dominating argument
# has weight 0, the argument checks of power-bregman, and r-power-bregman at
# r = inf, its limit.
NAMED = {
    "tie at distinct points": ("qcvx-bregman", "quadratic", {}, [["1"], ["-1"]]),
    "underflowing log-norm-sq": ("qcvx-bregman", TWO_D[0], {}, [["1e-170", "1e-170"], ["1", "1"]]),
    "underflowing log-norm-sq at theta_p": ("bregman", TWO_D[0], {},
                                            [["1", "2"], ["5e-324", "5e-324"]]),
    "F(q) = 0": ("power-bregman", "log", {"--delta1": "2", "--delta2": "3"}, [["0.5"], ["1"]]),
    "F(p) = 0 with delta2 < 0": ("power-bregman", "cubic", {"--delta1": "1", "--delta2": "-1"},
                                 [["9.08e-172"], ["9.86e-05"]]),
    "negative F, underflowing denominator": ("power-bregman", "neg-gauss",
                                             {"--delta1": "1", "--delta2": "1e300"},
                                             [["1"], ["1"]]),
    "power mean at weight 1": ("power-jensen", "sqrt", {"--alpha": "1", "--delta": "1000"},
                               [["4"], ["1e-20"]]),
    "2-D generator": ("power-bregman", TWO_D[0], {"--delta1": "2", "--delta2": "3"},
                      [["1"], ["2"]]),
    "negative F with a non-integer delta2": ("power-bregman", "neg-gauss",
                                             {"--delta1": "1", "--delta2": "0.5"},
                                             [["1"], ["2"]]),
    "r = inf, infinite branch": ("r-power-bregman", "sqrt", {"--r": "inf"}, [["2"], ["1"]]),
    "r = inf, finite branch": ("r-power-bregman", "sqrt", {"--r": "inf"}, [["1"], ["2"]]),
    "r = inf at a tie": ("r-power-bregman", "quadratic", {"--r": "inf"}, [["1"], ["-1"]]),
}


def generators(spec, one_d=ONE_D) -> list:
    """The generator specs a case of spec's divergence draws from, its 1-D ones from one_d."""
    if spec.subject is None:
        return [None]
    if spec.subject == "family":
        return CONVEX
    return one_d if spec.scalar else one_d + TWO_D


def _point(rng, dim: int) -> list:
    return [repr(round(rng.uniform(0.05, 4.0), rng.choice((1, 3, 17)))) for _ in range(dim)]


def _cases(rng, div: str, kind: str):
    """The case, and for a valid draw of a binary divergence the same case reversed."""
    spec = cli.DIVERGENCES[div]
    gen = rng.choice(generators(spec))
    dim = 2 if gen in TWO_D else 1
    flags = {flag: DRAWS[flag](rng) for flag in spec.flags}
    points = [_point(rng, dim) for _ in spec.points]
    if kind == "edge-flag" and flags:
        flag = rng.choice(list(flags))
        flags[flag] = rng.choice(EDGES[flag])
    elif kind == "edge-point" or kind == "edge-flag":
        rng.choice(points)[rng.randrange(dim)] = rng.choice(POINT_EDGE)
    elif kind == "error":
        # a point of the wrong dimension, or one left of every domain's origin
        if spec.scalar or rng.random() < 0.5:
            rng.choice(points)[0] = repr(-rng.uniform(0.5, 4.0))
        else:
            rng.choice(points).append("1.5")
    yield [div, gen, flags, points]
    if kind == "valid" and len(points) == 2:
        yield [div, gen, flags, points[::-1]]


def _corpus() -> dict:
    """key -> [div, gen, flags, points], every number written as text."""
    rng = random.Random(29)
    cases = {}
    for div in cli.DIVERGENCES:
        for kind in KINDS:
            for case in _cases(rng, div, kind):
                cases[f"{len(cases):03d} {div} {kind}"] = case
    for label, (div, gen, flags, points) in NAMED.items():
        cases[f"{len(cases):03d} {div} {label}"] = [div, gen, flags, points]
    return cases


CORPUS = _corpus()


def record(case) -> dict:
    div, gen, flags, points = case
    flags_in = {f: v if f.startswith("--mean-") else float(v) for f, v in flags.items()}
    points_in = [tuple(map(float, point)) for point in points]
    return {"call": case,
            **pins.outcome(lambda: pins.library_call(div, gen, flags_in, points_in))}
