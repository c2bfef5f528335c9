"""`qcdiv table` and `qcdiv limit-study` argv: the corpus of ``data/study_table_pins.json``.

The file holds what ``pins.run_cli`` saw for each argv: the exit code,
stdout, stderr and warnings.  The tables are small grids on every binary
``--div``, one on a fixed generator and one drawn, a grid whose first failing
pair in row-major order lies inside the grid, a zero step, an infinite step,
an empty range and bounds that are not finite.  The studies are all three at
``--k-max`` 4, 20 and 40 in both orientations, out of range ``--k-max``
values, and a point where the generator's formula underflows.
"""

import math
import random

import pins
from qcdiv import cli

BINARY = [div for div, spec in cli.DIVERGENCES.items() if len(spec.points) == 2]
GENERATORS = ["linear", "quadratic", "cubic", "sqrt", "log", "abs", "neg-gauss", "sine",
              '{"name": "linear-fractional", "c": -1, "d": 2}', '{"negate": "log"}']
# One value per parameter flag, as the CLI reads it and as the library takes it.
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
    cases["table grid-step inf"] = _table("qcvx-bregman", "log", 1.5, math.inf)
    cases["table grid-min at grid-max"] = _table("qcvx-bregman", "log", 1.5, 0.5, 1)
    # A bound that is not finite is named, after the step checks.
    for lo, hi in ((1.5, math.inf), (-math.inf, 2.5), (math.nan, 2.5)):
        cases[f"table grid {lo!r} to {hi!r}"] = ["table", "--div", "qcvx-bregman", "--gen=log",
                                                 f"--grid-min={lo!r}", f"--grid-max={hi!r}",
                                                 "--grid-step=0.5"]
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
