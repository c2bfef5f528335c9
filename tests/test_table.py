"""`qcdiv table`: byte-exact CSV against a row-by-row library reference, one
write per grid row, one gradient per column, and an empty stdout whenever the
command exits 2."""

import importlib
import io
import json
import math
from contextlib import redirect_stdout

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from corpora.study_table import FLAGS
from pins import run_cli
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
from qcdiv.core import _CSV, ExtReal, _counted, _fill, _fmt

BINARY = [div for div, spec in cli.DIVERGENCES.items() if len(spec.points) == 2]
# log-norm-sq is 2-D, so every divergence that takes it meets a dimension error.
# t / (2 - t) lives on (-inf, 2), so a grid can leave its domain after its first
# point, and the order of point and formula errors shows.
GENERATORS = ["linear", "quadratic", "cubic", "sqrt", "log", "abs", "neg-gauss",
              "linear-fractional", "sine", "log-norm-sq",
              '{"name": "linear-fractional", "c": -1, "d": 2}']


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


def first_error(div: str, gen: str, lo: float, hi: float, step: float) -> str:
    """The message of the first exception a row-major loop of library calls raises."""
    count = int(math.floor((hi - lo) / step + 1e-9)) + 1
    points = [lo + i * step for i in range(count)]
    value = library_point(div, build_generator(gen))
    for a in points:
        for b in points:
            try:
                value(a, b)
            except Exception as e:  # the CLI reports any library error with exit 2
                return str(e)
    raise AssertionError("no grid point raises")


def argv(div: str, gen: str, lo: float, hi: float, step: float) -> list:
    flags = [arg for flag in cli.DIVERGENCES[div].flags for arg in (flag, FLAGS[flag])]
    # --flag=value, because argparse reads "-1e-86" as an option, not a number.
    return ["table", "--div", div, "--gen", gen, *flags,
            f"--grid-min={lo!r}", f"--grid-max={hi!r}", f"--grid-step={step!r}"]


def run_table(args) -> tuple:
    run = run_cli(args)
    return run["exit"], run["stdout"]


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
# expfam-kl swaps its points into fresh tuples, so a gradient memo keyed by
# the identity of a point would mix up its columns.
@example(div="expfam-kl", gen="quadratic", lo=0.0, step=1.0, intervals=3)
@given(div=st.sampled_from(BINARY), gen=st.sampled_from(GENERATORS),
       lo=st.floats(-4.0, 4.0), step=st.floats(0.05, 2.0), intervals=st.integers(1, 20))
def test_table_exits_0_with_the_reference_or_2_with_empty_stdout(div, gen, lo, step, intervals):
    hi = lo + intervals * step
    run = run_cli(argv(div, gen, lo, hi, step))
    code, out = run["exit"], run["stdout"]
    event(f"exit {code}")
    assert code in (0, 2)
    if code == 2:
        assert out == ""
        assert run["stderr"] == f"qcdiv: error: {first_error(div, gen, lo, hi, step)}\n"
        return
    count = int(math.floor((hi - lo) / step + 1e-9)) + 1
    assert count <= 21
    assert out.count("\n") == count * count + 1
    assert out == reference(div, gen, lo, hi, step)


def _counting_generators(monkeypatch):
    """Make the CLI's generators count their raw evaluations and gradients."""
    counts = {"eval": 0, "grad": 0}
    build = cli.build_generator
    monkeypatch.setattr(cli, "build_generator", lambda spec: _counted(build(spec), counts))
    return counts


def test_a_table_evaluates_each_axis_point_once(monkeypatch):
    counts = _counting_generators(monkeypatch)
    code, out = run_table(argv("qcvx-bregman", "log", 1.0, 2.0, 0.01))
    assert code == 0 and out.count("\n") == 101 * 101 + 1
    # A row-major loop of public calls evaluates both endpoints of every pair: 20,402.
    assert counts["eval"] == 101


def test_a_jensen_table_adds_only_the_interpolated_points(monkeypatch):
    counts = _counting_generators(monkeypatch)
    code, _ = run_table(argv("qcvx-jensen", "log", 1.0, 2.0, 0.01))
    assert code == 0
    assert counts["eval"] <= 101 + 101 * 101


# A row-major loop of public calls takes one gradient per finite-branch cell:
# 5,151 on the qcvx-bregman table and 10,201 on the bregman one.
@pytest.mark.parametrize("div,gen", [("qcvx-bregman", "log"), ("bregman", "quadratic")])
def test_a_table_takes_each_columns_gradient_once(monkeypatch, div, gen):
    counts = _counting_generators(monkeypatch)
    code, out = run_table(argv(div, gen, 1.0, 2.0, 0.01))
    assert code == 0 and out == reference(div, gen, 1.0, 2.0, 0.01)
    assert counts["grad"] <= 101


# 1e300 * t / (2 - t) is finite below 2, and its gradient is not from 1.9999
# on: the 11th column, so earlier columns' gradients succeed first.  Its
# negation has its finite cells on and below the diagonal instead, so row 0
# evaluates every column, and on the longer grid meets the bound at 2 before
# any row needs the 11th column's gradient.
STEEP = {"affine": {"a": 1e300, "inner": {"name": "linear-fractional", "c": -1, "d": 2}}}


@pytest.mark.parametrize("grid_max", [1.99995, 2.00005])
@pytest.mark.parametrize("gen", [json.dumps(STEEP), json.dumps({"negate": STEEP})],
                         ids=["steep", "negated"])
@pytest.mark.parametrize("div", ["qcvx-bregman", "ext-bregman"])
def test_the_lazy_gradient_keeps_the_row_major_first_error(div, gen, grid_max):
    grid = (1.9998, grid_max, 0.00001)
    run = run_cli(argv(div, gen, *grid))
    assert (run["exit"], run["stdout"]) == (2, "")
    assert run["stderr"] == f"qcdiv: error: {first_error(div, gen, *grid)}\n"
    gradient_first = grid_max < 2.0 or "negate" not in gen
    assert ("gradient of" in run["stderr"]) == gradient_first


# grid_min + 0 * inf is NaN, so an infinite step once reached the point checks.
@pytest.mark.parametrize("div", ["qcvx-bregman", "kl-nested-uniform"])
def test_an_infinite_grid_step_is_named(div):
    run = run_cli(argv(div, "log", 1.0, 2.0, math.inf))
    assert (run["exit"], run["stdout"]) == (2, "")
    assert run["stderr"] == "qcdiv: error: --grid-step must be finite, got inf\n"


def test_no_state_outlives_a_table():
    modules = [importlib.import_module(name) for name in ("qcdiv.bregman", "qcdiv.core")]
    before = [dict(vars(m)) for m in modules]
    for gen in ("log", "sqrt"):
        code, out = run_table(argv("qcvx-bregman", gen, 1.0, 2.0, 0.1))
        assert code == 0 and out == reference("qcvx-bregman", gen, 1.0, 2.0, 0.1)
    for m, names in zip(modules, before):
        assert vars(m).keys() == names.keys()
        assert all(vars(m)[name] is value for name, value in names.items())


# Each value's 17-digit text, a subnormal, the largest float and both zeros.
EDGE_VALUES = [-0.0, 0.0, math.inf, 5e-324, 1e16, 0.1, 1 / 3, -1e-300, 1.7976931348623157e308]


@pytest.mark.parametrize("kind", [float, ExtReal])
def test_the_row_template_prints_what_fmt_prints(kind):
    labels = [_fmt(x) for x in EDGE_VALUES if x != math.inf]
    tails = [f",{b},{_CSV}\n" for b in labels]
    for shift in range(len(EDGE_VALUES)):
        row = [kind(v) for v in EDGE_VALUES[shift:] + EDGE_VALUES[:shift]][:len(labels)]
        for a in labels:
            expected = "".join(f"{a},{b},{_fmt(v)}\n" for b, v in zip(labels, row))
            assert _fill(a + a.join(tails), row) == expected
