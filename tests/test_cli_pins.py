"""`qcdiv eval` on a seeded corpus of argument vectors, pinned byte for byte.

``data/cli_pins.json`` holds, for every argv of the corpus below, what
``cli.main`` did in process (``pins.run_cli``): the exit code, stdout, stderr,
and the warnings it issued.  The corpus runs every ``--div`` under every
``--format`` with valid, boundary, non-finite, mismatched-dimension,
missing-flag and malformed inputs, the bad means of ``mn-jensen``, and NaN
exponents.  It stays clear of argparse's own usage errors, whose text belongs
to the Python version, not to qcdiv.  ``PYTHONPATH=src python tests/pins.py``
regenerates the file, and only a deliberate change of the CLI's output should.
A fixed slice of the corpus, and one 101 x 101 table, also run through
``python -m qcdiv`` and must exit, print and report as ``cli.main`` did.
"""

import os
import random
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import pins
from qcdiv import cli

SRC = str(Path(__file__).resolve().parent.parent / "src")

FORMATS = ("plain", "csv", "json")
# Generators per --div, 1-D unless the spec says otherwise; the pools mix
# declared classes so that the sign-guarantee warnings show.
ALL = ["log", "sqrt", "quadratic", "cubic", "abs", "neg-gauss", "sine", "linear",
       '{"negate": "neg-gauss"}', '{"negate": "quadratic"}',
       '{"name": "linear-fractional", "c": -1, "d": 2}']
POSITIVE = ["sqrt", "quadratic", '{"affine": {"a": 2, "b": 1, "inner": "quadratic"}}',
            '{"affine": {"a": 1, "b": 3, "inner": "log"}}']
CONVEX = ["quadratic", "abs", '{"affine": {"a": 0.5, "b": -1, "inner": "quadratic"}}']
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
MEANS = ["arithmetic", "max", "min", "power:2", "power:-1", "power:0", "qa:log", "qa:sqrt"]
BAD_MEANS = ["median", "power:x", "power:", "qa:nope", 'qa:{"name": "log-norm-sq", "dim": 2}',
             "qa:{", "Max"]
# Values each flag may take: valid ones, then ones on or past the edge of
# what the divergence accepts.
VALUES = {
    "--alpha": (lambda r: repr(r.uniform(0.05, 0.95)),
                ["0", "1", "5e-324", "0.9999999999999999", "1.5", "-0.25", "nan", "inf"]),
    "--delta": (lambda r: repr(r.uniform(0.5, 8.0)), ["0", "-2", "1e300", "nan", "-inf"]),
    "--delta1": (lambda r: r.choice(["1", "2", "3", "-1", "0.5"]), ["0", "nan", "1e3"]),
    "--delta2": (lambda r: r.choice(["1", "2", "3", "-1", "0.5"]), ["0", "-0.0", "2000"]),
    "--r": (lambda r: repr(r.uniform(1.0, 50.0)), ["1", "0.5", "nan", "inf", "1e3"]),
    "--exponent": (lambda r: repr(r.uniform(1.1, 5.0)), ["1", "1.0000001", "0", "nan"]),
    "--mean-m": (lambda r: r.choice(MEANS), BAD_MEANS),
    "--mean-n": (lambda r: r.choice(MEANS), BAD_MEANS),
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
    flags = {flag: VALUES[flag][0](rng) for flag in spec.flags}
    points = {"--theta": _point(rng, dim)}
    if not unary or rng.random() < 0.3:
        points["--theta-prime"] = _point(rng, dim)
    if kind == "edge":
        if flags and rng.random() < 0.5:
            flag = rng.choice(list(flags))
            flags[flag] = rng.choice(VALUES[flag][1][:4])
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
            flags[flag] = rng.choice(VALUES[flag][1]) if flag in VALUES else "x"
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


def test_the_corpus_reaches_every_div_format_and_exit_code():
    assert {argv[2] for argv in CORPUS.values()} == set(cli.DIVERGENCES)
    formats = {arg.split("=")[1] for argv in CORPUS.values() for arg in argv
               if arg.startswith("--format=")}
    assert formats == set(FORMATS)
    pinned = pins.load("cli_pins.json").values()
    assert {pin["exit"] for pin in pinned} == {0, 2}
    assert not any("usage:" in pin["stderr"] for pin in pinned)
    assert any(pin["warnings"] for pin in pinned)


@pytest.mark.parametrize("key", sorted(CORPUS))
def test_eval_matches_its_pin(key):
    assert record(CORPUS[key]) == pins.load("cli_pins.json")[key]


def _process(argv) -> dict:
    """``python -m qcdiv argv`` in a child process: its exit code, stdout and stderr."""
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-m", "qcdiv", *argv], env=env, capture_output=True,
                          text=True, timeout=60)
    return {"exit": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}


# The pins record cli.main in process.  A fixed slice of them runs through the
# process entry too: every 16th key whose run issued no warning, since a
# process prints its warnings to stderr.
PROCESS_KEYS = [key for key in sorted(CORPUS)
                if not pins.load("cli_pins.json")[key]["warnings"]][::16]


@pytest.fixture(scope="module")
def processes():
    # Two children at a time: each spends most of its life starting Python.
    with ThreadPoolExecutor(2) as pool:
        return dict(zip(PROCESS_KEYS, pool.map(_process, (CORPUS[k] for k in PROCESS_KEYS))))


@pytest.mark.parametrize("key", PROCESS_KEYS)
def test_a_process_matches_the_pin(key, processes):
    pin = pins.load("cli_pins.json")[key]
    assert processes[key] == {name: pin[name] for name in ("exit", "stdout", "stderr")}


def test_a_process_writes_a_whole_table():
    # 101 x 101 rows, flushed through the pipe when the process exits.
    argv = ["table", "--div", "qcvx-bregman", "--gen=log", "--grid-min=0.5", "--grid-max=13",
            "--grid-step=0.125"]
    run = _process(argv)
    assert run["stdout"].count("\n") == 1 + 101 * 101
    assert run == {name: pins.run_cli(argv)[name] for name in ("exit", "stdout", "stderr")}
