"""`qcdiv table`: byte-exact CSV against a row-by-row library reference, one
write per grid row, and an empty stdout whenever the command exits 2."""

import io
import math
from contextlib import redirect_stdout

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from qcdiv import (
    ExpFamily,
    MeanSpec,
    bregman,
    build_generator,
    cli,
    delta_averaged_qcvx_bregman,
    expfam_cross_entropy,
    expfam_kl,
    extended_bregman,
    extended_jensen,
    kl_nested_uniform,
    kl_power_nested,
    log_ratio_gap,
    mn_jensen,
    power_mean_bregman,
    power_mean_jensen,
    qccv_jensen,
    qcvx_bregman,
    qcvx_jensen,
    r_power_bregman,
)
from qcdiv.core import _fmt

BINARY = [div for div, spec in cli.DIVERGENCES.items() if len(spec.points) == 2]
GENERATORS = ["linear", "quadratic", "cubic", "sqrt", "log", "abs", "neg-gauss",
              "linear-fractional", "sine"]

# One value per parameter flag, as the CLI reads it and as the library takes it.
FLAGS = {"--alpha": "0.3", "--delta": "2", "--delta1": "2", "--delta2": "3", "--r": "2",
         "--exponent": "2", "--mean-m": "arithmetic", "--mean-n": "max"}


def library_point(div: str, g):
    """The value of one grid point (a, b) of --div, called straight from the library."""
    fam = ExpFamily(g)
    calls = {
        "qcvx-jensen": lambda a, b: qcvx_jensen(g, (a,), (b,), 0.3),
        "qccv-jensen": lambda a, b: qccv_jensen(g, (a,), (b,), 0.3),
        "log-ratio": lambda a, b: log_ratio_gap(g, (a,), (b,), 0.3),
        "ext-jensen": lambda a, b: extended_jensen(g, (a,), (b,), 0.3),
        "mn-jensen": lambda a, b: mn_jensen(g, MeanSpec.arithmetic(), MeanSpec.maximum(),
                                            0.3, (a,), (b,)),
        "power-jensen": lambda a, b: power_mean_jensen(g, 2.0, 0.3, (a,), (b,)),
        "bregman": lambda a, b: bregman(g, (a,), (b,)),
        "qcvx-bregman": lambda a, b: qcvx_bregman(g, (a,), (b,)),
        "delta-qcvx-bregman": lambda a, b: delta_averaged_qcvx_bregman(g, (a,), (b,), 2.0),
        "ext-bregman": lambda a, b: extended_bregman(g, (a,), (b,)),
        "power-bregman": lambda a, b: power_mean_bregman(g, 2.0, 3.0, a, b),
        "r-power-bregman": lambda a, b: r_power_bregman(g, 2.0, a, b),
        "kl-nested-uniform": lambda a, b: kl_nested_uniform(a, b),
        "kl-power-nested": lambda a, b: kl_power_nested(2.0, a, b),
        "expfam-kl": lambda a, b: expfam_kl(fam, (a,), (b,)),
        "expfam-cross-entropy": lambda a, b: expfam_cross_entropy(fam, (a,), (b,)),
    }
    return calls[div]


def reference(div: str, gen: str, lo: float, hi: float, step: float) -> str:
    """The table's CSV built row by row, one library call per grid point."""
    count = int(math.floor((hi - lo) / step + 1e-9)) + 1
    points = [lo + i * step for i in range(count)]
    value = library_point(div, build_generator(gen))
    lines = ["theta,theta_prime,value"]
    lines += [f"{_fmt(a)},{_fmt(b)},{_fmt(value(a, b))}" for a in points for b in points]
    return "\n".join(lines) + "\n"


def argv(div: str, gen: str, lo: float, hi: float, step: float) -> list:
    flags = [arg for _, flag in cli.DIVERGENCES[div].flags for arg in (flag, FLAGS[flag])]
    # --flag=value, because argparse reads "-1e-86" as an option, not a number.
    return ["table", "--div", div, "--gen", gen, *flags,
            f"--grid-min={lo!r}", f"--grid-max={hi!r}", f"--grid-step={step!r}"]


def run_table(args) -> tuple:
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(args)
    return code, out.getvalue()


@pytest.mark.parametrize("div", BINARY)
def test_table_matches_the_row_by_row_reference(div):
    # log increases on (0, inf), so the branch-based divergences have inf rows.
    code, out = run_table(argv(div, "log", 1.5, 3.5, 0.5))
    assert code == 0
    assert out == reference(div, "log", 1.5, 3.5, 0.5)
    if div in ("qcvx-bregman", "ext-bregman", "kl-nested-uniform"):
        assert "inf" in out


class _CountingStdout(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, s):
        self.writes += 1
        return super().write(s)


def test_a_101_by_101_table_makes_one_write_per_grid_row():
    out = _CountingStdout()
    with redirect_stdout(out):
        code = cli.main(argv("qcvx-bregman", "log", 1.0, 2.0, 0.01))
    assert code == 0
    assert out.getvalue().count("\n") == 101 * 101 + 1
    assert out.writes <= 102


# Generated pairs include qccv-jensen on convex generators, which warns by design.
@pytest.mark.filterwarnings("ignore::qcdiv.GeneratorClassWarning")
@settings(derandomize=True, deadline=None, max_examples=150)
@given(div=st.sampled_from(BINARY), gen=st.sampled_from(GENERATORS),
       lo=st.floats(-4.0, 4.0), step=st.floats(0.05, 2.0), intervals=st.integers(1, 20))
def test_table_exits_0_with_the_reference_or_2_with_empty_stdout(div, gen, lo, step, intervals):
    hi = lo + intervals * step
    code, out = run_table(argv(div, gen, lo, hi, step))
    event(f"exit {code}")
    assert code in (0, 2)
    if code == 2:
        assert out == ""
        return
    count = int(math.floor((hi - lo) / step + 1e-9)) + 1
    assert count <= 21
    assert out.count("\n") == count * count + 1
    assert out == reference(div, gen, lo, hi, step)
