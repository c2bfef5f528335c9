"""`qcdiv table` and `qcdiv limit-study` on small argument vectors, pinned byte for byte.

``data/study_table_pins.json`` holds what ``pins.run_cli`` saw for each argv:
the exit code, stdout, stderr and warnings.  The tables are small grids on
every binary ``--div``, one on a fixed generator and one drawn, a grid whose
first failing pair in row-major order lies inside the grid, and a zero step
and an empty range.  The
studies are all three at ``--k-max`` 4, 20 and 40 in both orientations, out
of range ``--k-max`` values, and a point where the generator's formula
underflows.  Over the whole group, every run exits 0, 1 or 2 without a
traceback, and prints no ``nan`` or ``-inf``.  ``PYTHONPATH=src python
tests/pins.py`` regenerates the file.
"""

import random

import pytest

import pins
from qcdiv import cli

BINARY = [div for div, spec in cli.DIVERGENCES.items() if len(spec.points) == 2]
GENERATORS = ["linear", "quadratic", "cubic", "sqrt", "log", "abs", "neg-gauss", "sine",
              '{"name": "linear-fractional", "c": -1, "d": 2}', '{"negate": "log"}']
FLAGS = {"--alpha": "0.3", "--delta": "2", "--delta1": "2", "--delta2": "3", "--r": "2",
         "--exponent": "2", "--mean-m": "arithmetic", "--mean-n": "max"}
# Study -> (generator, theta, theta_prime) with Q(theta) < Q(theta_prime).
STUDIES = {"scaled-jensen": ("log", "1", "2.5"), "power-jensen": ("sqrt", "0.5", "3"),
           "r-power-bregman": ("quadratic", "1", "1.75")}


def _table(div, gen, lo, step, count=3):
    flags = [f"{flag}={FLAGS[flag]}" for flag in cli.DIVERGENCES[div].flags]
    # --flag=value, because argparse reads "-1.5" after a flag as an option.
    return ["table", "--div", div, f"--gen={gen}", *flags, f"--grid-min={lo!r}",
            f"--grid-max={lo + (count - 1) * step!r}", f"--grid-step={step!r}"]


def _study(study, gen, theta, theta_p, k_max):
    return ["limit-study", "--study", study, f"--gen={gen}", f"--theta={theta}",
            f"--theta-prime={theta_p}", f"--k-max={k_max}"]


def _corpus() -> dict:
    rng = random.Random(31)
    cases = {}
    for div in BINARY:
        cases[f"table {div} log"] = _table(div, "log", 1.5, 0.5)
        gen = rng.choice(GENERATORS)
        lo, step = rng.choice((-2.0, -1.0, 0.25, 1.0)), rng.choice((0.25, 0.5, 1.0))
        cases[f"table {div} {gen} from {lo!r} by {step!r}"] = _table(div, gen, lo, step)
    # On 0.5, 1.5, ..., 4.5 the first pair of log-ratio that raises is (3.5, 2.5).
    cases["table log-ratio sine, first failure inside"] = _table("log-ratio", "sine", 0.5, 1.0, 5)
    cases["table grid-step 0"] = _table("qcvx-bregman", "log", 1.5, 0.0)
    cases["table grid-min at grid-max"] = _table("qcvx-bregman", "log", 1.5, 0.5, 1)
    for study, (gen, theta, theta_p) in STUDIES.items():
        for k_max in (4, 20, 40):
            cases[f"study {study} k_max={k_max}"] = _study(study, gen, theta, theta_p, k_max)
            cases[f"study {study} k_max={k_max} reversed"] = _study(study, gen, theta_p, theta,
                                                                    k_max)
        for k_max in (3, 41):
            cases[f"study {study} k_max={k_max} out of range"] = _study(study, gen, theta,
                                                                        theta_p, k_max)
    cases["study power-jensen log-norm-sq underflows"] = _study(
        "power-jensen", '{"name": "log-norm-sq", "dim": 2}', "1e-170,1e-170", "1,1", 8)
    return cases


CORPUS = _corpus()
record = pins.run_cli


def test_every_run_exits_0_1_or_2_without_a_traceback_nan_or_minus_inf():
    pinned = pins.load("study_table_pins.json").values()
    assert {pin["exit"] for pin in pinned} == {0, 1, 2}
    for pin in pinned:
        assert "Traceback" not in pin["stderr"]
        tokens = pin["stdout"].replace(",", " ").split()
        assert "nan" not in tokens and "-inf" not in tokens, pin["argv"]


def _first_failure(div, gen, grid):
    """(row, column, message) of the first pair a row-major loop of library calls fails on."""
    for i, a in enumerate(grid):
        for j, b in enumerate(grid):
            try:
                pins.library_call(div, gen, {"--alpha": 0.3}, [(a,), (b,)])
            except ValueError as e:
                return i, j, str(e)


def test_the_interior_failure_is_not_in_the_first_row_or_column():
    pin = pins.load("study_table_pins.json")["table log-ratio sine, first failure inside"]
    i, j, message = _first_failure("log-ratio", "sine", [0.5, 1.5, 2.5, 3.5, 4.5])
    assert i > 0 and j > 0
    assert (pin["exit"], pin["stdout"], pin["stderr"]) == (2, "", f"qcdiv: error: {message}\n")


@pytest.mark.parametrize("key", sorted(CORPUS))
def test_run_matches_its_pin(key):
    assert record(CORPUS[key]) == pins.load("study_table_pins.json")[key]
