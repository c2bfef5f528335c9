"""`qcdiv eval` argument vectors: the seeded corpus of ``data/cli_pins.json``.

The file holds, for every argv below, what ``cli.main`` did in process
(``pins.run_cli``): the exit code, stdout, stderr, and the warnings it issued.
The corpus runs every ``--div`` under every ``--format`` with valid, boundary,
non-finite, mismatched-dimension, missing-flag and malformed inputs, the bad
means of ``mn-jensen``, and NaN exponents.  It stays clear of argparse's own
usage errors, whose text belongs to the Python version, not to qcdiv.
"""

import random

import pins
from corpora.catalog import CONVEX, DRAWS
from qcdiv import cli

FORMATS = ("plain", "csv", "json")
# Generators per --div, 1-D unless the spec says otherwise; the pools mix
# declared classes so that the sign-guarantee warnings show.
ALL = ["log", "sqrt", "quadratic", "cubic", "abs", "neg-gauss", "sine", "linear",
       '{"negate": "neg-gauss"}', '{"negate": "quadratic"}',
       '{"name": "linear-fractional", "c": -1, "d": 2}']
POSITIVE = ["sqrt", "quadratic", '{"affine": {"a": 2, "b": 1, "inner": "quadratic"}}',
            '{"affine": {"a": 1, "b": 3, "inner": "log"}}']
TWO_D = ['{"name": "log-norm-sq", "dim": 2}', '{"name": "neg-gauss", "dim": 2}',
         '{"separable": ["quadratic", "abs"]}']
GENS = {
    "qcvx-jensen": ALL, "qccv-jensen": ALL, "log-ratio": POSITIVE, "ext-jensen": ALL,
    "mn-jensen": ["quadratic", "log", "sqrt", "cubic"], "power-jensen": POSITIVE,
    "bregman": ALL, "qcvx-bregman": ALL, "delta-qcvx-bregman": ALL, "ext-bregman": ALL,
    "power-bregman": ["quadratic", "sqrt", "log", "cubic"], "r-power-bregman": POSITIVE,
    "kl-nested-uniform": [None], "kl-power-nested": [None],
    "expfam-kl": CONVEX, "expfam-entropy": CONVEX, "expfam-cross-entropy": CONVEX,
}
BAD_MEANS = ["median", "power:x", "power:", "qa:nope", 'qa:{"name": "log-norm-sq", "dim": 2}',
             "qa:{", "Max"]
# The values on or past the edge of what each flag's divergence accepts; the
# valid ones are the catalog corpus's DRAWS.
EDGES = {
    "--alpha": ["0", "1", "5e-324", "0.9999999999999999", "1.5", "-0.25", "nan", "inf"],
    "--delta": ["0", "-2", "1e300", "nan", "-inf"],
    "--delta1": ["0", "nan", "1e3"],
    "--delta2": ["0", "-0.0", "2000"],
    "--r": ["1", "0.5", "nan", "inf", "1e3"],
    "--exponent": ["1", "1.0000001", "0", "nan"],
    "--mean-m": BAD_MEANS,
    "--mean-n": BAD_MEANS,
}
POINTS_EDGE = ["0", "-0.0", "-1", "5e-324", "1e308", "-1e308", "1e-300", "1e154"]
POINTS_NONFINITE = ["nan", "inf", "-inf", "1e309", "1,nan"]
KINDS = ("valid", "valid", "edge", "non-finite", "mismatch", "missing", "malformed")


def _point(rng, dim: int) -> str:
    return ",".join(repr(round(rng.uniform(0.05, 4.0), rng.choice((1, 3, 17))))
                    for _ in range(dim))


def _argv(rng, div: str, fmt: str, kind: str) -> list:
    spec, gen = cli.DIVERGENCES[div], rng.choice(GENS[div])
    dim, unary = 1, len(spec.points) == 1
    if gen is not None and not spec.scalar and kind == "mismatch" and rng.random() < 0.5:
        gen = rng.choice(TWO_D)  # 1-D or 2-D points against a 2-D generator
        dim = rng.choice((1, 2))
    flags = {flag: DRAWS[flag](rng) for flag in spec.flags}
    points = {"--theta": _point(rng, dim)}
    if not unary or rng.random() < 0.3:
        points["--theta-prime"] = _point(rng, dim)
    if kind == "edge":
        if flags and rng.random() < 0.5:
            flag = rng.choice(list(flags))
            flags[flag] = rng.choice(EDGES[flag][:4])
        else:
            points[rng.choice(list(points))] = rng.choice(POINTS_EDGE)
    elif kind == "non-finite":
        points[rng.choice(list(points))] = rng.choice(POINTS_NONFINITE)
    elif kind == "mismatch" and dim == 1:
        points[rng.choice(list(points))] = _point(rng, rng.choice((2, 3)))
    elif kind == "missing":
        required = list(flags) + ([] if unary else ["--theta-prime"])
        required += [] if gen is None else ["--gen"]
        for flag in rng.sample(required, rng.choice((1, min(2, len(required))))):
            flags.pop(flag, None)
            points.pop(flag, None)
            gen = None if flag == "--gen" else gen
    elif kind == "malformed":
        choice = rng.randrange(4) if flags else rng.randrange(2)
        if choice == 0:
            points[rng.choice(list(points))] = rng.choice(["1,x", "", "1;2", "one", "1,,2"])
        elif choice == 1 and gen is not None:
            gen = rng.choice(["nope", '{"name": "log", "extra": 1}', "{bad json",
                              '{"affine": {"a": -1, "inner": "log"}}'])
        else:
            flag = rng.choice(list(flags) or ["--theta"])
            flags[flag] = rng.choice(EDGES[flag]) if flag in EDGES else "x"
    argv = ["eval", "--div", div] + ([] if gen is None else [f"--gen={gen}"])
    # --flag=value, because argparse reads "-1e308" as an option, not a number.
    argv += [f"{flag}={value}" for flag, value in {**flags, **points}.items()]
    return argv + ([] if fmt == "plain" and rng.random() < 0.5 else [f"--format={fmt}"])


def _two_rules(rng):
    """mn-jensen and power-jensen inputs that break the weight and a point rule at once."""
    for div in ("mn-jensen", "power-jensen"):
        for alpha in ("1.5", "-0.25", "nan"):
            for theta, theta_p in (("1,2", "3"), ("nan", "2"), ("1e309", "2"), ("1", "x")):
                flags = (["--mean-m=max", "--mean-n=arithmetic"] if div == "mn-jensen"
                         else [f"--delta={rng.uniform(0.5, 8.0)!r}"])
                yield ["eval", "--div", div, "--gen=quadratic", f"--alpha={alpha}", *flags,
                       f"--theta={theta}", f"--theta-prime={theta_p}"]
    # A non-arithmetic argument mean on 2-D points meets the generator's dimension.
    for gen in ("quadratic", '{"name": "log-norm-sq", "dim": 2}'):
        for m in ("max", "power:2"):
            yield ["eval", "--div", "mn-jensen", f"--gen={gen}", "--alpha=0.5",
                   f"--mean-m={m}", "--mean-n=max", "--theta=1,2", "--theta-prime=2,1"]


def _nan_exponents():
    """A NaN exponent, first on valid points, then on a non-finite point it must precede."""
    for theta in ("1", "nan"):
        points = [f"--theta={theta}", "--theta-prime=2"]
        yield ["eval", "--div", "power-jensen", "--gen=sqrt", "--alpha=0.3", "--delta=nan",
               *points]
        for m, n in (("arithmetic", "power:nan"), ("power:nan", "arithmetic")):
            yield ["eval", "--div", "mn-jensen", "--gen=sqrt", "--alpha=0.3", f"--mean-m={m}",
                   f"--mean-n={n}", *points]
        for d1, d2 in (("nan", "2"), ("2", "nan")):
            yield ["eval", "--div", "power-bregman", "--gen=quadratic", f"--delta1={d1}",
                   f"--delta2={d2}", *points]
        yield ["eval", "--div", "r-power-bregman", "--gen=sqrt", "--r=nan", *points]


def _corpus() -> dict:
    """key -> argv; the key numbers the case and names its --div, format and kind."""
    rng = random.Random(13)
    cases = {}
    for div in cli.DIVERGENCES:
        for fmt in FORMATS:
            for kind in KINDS:
                cases[f"{len(cases):03d} {div} {fmt} {kind}"] = _argv(rng, div, fmt, kind)
    for argv in _two_rules(rng):
        cases[f"{len(cases):03d} {argv[2]} two-rules"] = argv
    for argv in _nan_exponents():
        cases[f"{len(cases):03d} {argv[2]} nan-exponent"] = argv
    return cases


CORPUS = _corpus()
record = pins.run_cli
