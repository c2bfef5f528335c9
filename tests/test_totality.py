"""Totality rows: a public entry point returns a valid float or raises a typed error.

Each row of ``ROWS`` names an entry point, the call and the edge values of
each argument: finite, boundary, huge, NaN and infinite floats.  Every
combination of edge values is called, and then draws that mix them with any
float.
A call must return a finite float, or +inf where its row documents it, or
raise a ``ValueError`` with the library's own message: one of the
``qcdiv.core`` subclasses, or a plain ``ValueError`` from an argument check.
It never returns NaN or -inf, and never raises ``OverflowError``,
``ZeroDivisionError`` or a bare "math domain error".

The density rows call the constructors too, over edge alpha and theta, and
feed what they build to ``pdf`` and ``log_pdf``: ``pdf`` is a float in
[0, inf), 0 outside the support (0, e^theta), where ``log_pdf`` raises
``DomainError``.

The count rows pass k_max, samples, n_lines and n_points: a whole number
counts as an int, and a bool, NaN, an infinity or a fraction raises
``ValueError``, where ``range`` once raised ``TypeError``.

The overflow witnesses are divergences whose finite value leaves the floats:
the library raises ``RangeError`` and ``qcdiv eval`` exits 2 with no stdout,
where the value was once -inf, a finite-branch +inf or a bare ``ValueError``.
"""

import itertools
import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pins import eval_argv, library_call, run_cli
from qcdiv.checks import run_suite
from qcdiv.core import DomainError, RangeError, bounded_box, build_generator, check_quasiconvex
from qcdiv.means import MeanSpec, weighted_mean
from qcdiv.oracles import limit_power_jensen, limit_scaled_jensen
from qcdiv.statdiv import ExpFamily, NestedUniform, PowerNested, qcvx_bregman_from_kl

MAX = sys.float_info.max
# 2e205 and 1290.0 are where alpha * x^(alpha-1) overflows without raising
# for PowerNested(2.5, 700.0) and PowerNested(100.0, 7.2).
EDGE = (0.0, -0.0, 5e-324, 1e-300, 0.3, 1.0, 2.5, 1290.0, 2e205, 1e300, MAX,
        -1.0, -1e300, -MAX, math.nan, math.inf, -math.inf)
WEIGHT = (0.0, 1.0, 0.5, 5e-324, 1.0 - 2.0**-53, math.nan, math.inf, -1.0)
STRAY = ("math domain error", "math range error")

QA_LOG = MeanSpec.quasi_arithmetic(build_generator("log"))
DENSITIES = (NestedUniform(1e-300), NestedUniform(1.0), NestedUniform(709.0),
             NestedUniform(1e300), PowerNested(1.0 + 2.0**-52, 1e-300), PowerNested(2.5, 1.0),
             PowerNested(2.5, 700.0), PowerNested(100.0, 7.2), PowerNested(1e300, 1.0),
             PowerNested(2.0, 1e300))
# Edge parameters: alpha at and just past 1, theta where e^theta and
# alpha * theta leave the floats.
ALPHA = EDGE + (2.0, 1.0 + 2.0**-52, 100.0)
THETA = EDGE + (709.0, 709.79, 800.0, 1e308)
# Count arguments: whole numbers as ints and floats, then values outside the
# range checks and values that are no count.  The first is an int, so the
# draws below take only these.
COUNT = (4, 20, 20.0, 3, 0, -1, True, 2.5, math.nan, math.inf, -math.inf)


def density_at(p, x):
    """p.log_pdf(x) after checking p.pdf(x); outside the support, pdf's 0.0."""
    try:
        hi = p.support()[1]
    except RangeError:  # e^theta past the floats
        hi = math.inf
    d = p.pdf(x)
    assert type(d) is float and 0.0 <= d < math.inf, (p, x, d)
    if 0.0 < x < hi:
        return p.log_pdf(x)
    assert d == 0.0, (p, x, d)
    with pytest.raises(DomainError):
        p.log_pdf(x)
    return d

# (label, call, the edge values of each argument, +inf documented)
ROWS = [
    ("weighted_mean arithmetic",
     lambda x, y, a: weighted_mean(MeanSpec.arithmetic(), x, y, a), (EDGE, EDGE, WEIGHT), False),
    ("weighted_mean power",
     lambda d, x, y, a: weighted_mean(MeanSpec.power(d), x, y, a),
     (EDGE, EDGE, EDGE, WEIGHT), False),
    ("weighted_mean quasi-arithmetic",
     lambda x, y, a: weighted_mean(QA_LOG, x, y, a), (EDGE, EDGE, WEIGHT), False),
    ("weighted_mean max",
     lambda x, y, a: weighted_mean(MeanSpec.maximum(), x, y, a), (EDGE, EDGE, WEIGHT), False),
    ("weighted_mean min",
     lambda x, y, a: weighted_mean(MeanSpec.minimum(), x, y, a), (EDGE, EDGE, WEIGHT), False),
    ("pdf", lambda p, x: p.pdf(x), (DENSITIES, EDGE), False),
    ("log_pdf", lambda p, x: p.log_pdf(x), (DENSITIES, EDGE), False),
    ("NestedUniform", lambda t, x: density_at(NestedUniform(t), x), (THETA, EDGE), False),
    ("PowerNested", lambda a, t, x: density_at(PowerNested(a, t), x), (ALPHA, THETA, EDGE), False),
    ("limit_scaled_jensen k_max",
     lambda k: float(limit_scaled_jensen(build_generator("log"), 1.0, 2.0, k).final_error),
     (COUNT,), False),
    ("limit_power_jensen k_max",
     lambda k: float(limit_power_jensen(build_generator("sqrt"), 1.0, 2.0, k).final_error),
     (COUNT,), False),
    ("run_suite samples", lambda n: float(run_suite("identities", n, 1).failed), (COUNT,), False),
    ("check_quasiconvex counts",
     lambda lines, points: float(len(check_quasiconvex(
         build_generator("quadratic"), bounded_box((-5, 5)), lines, points, 1).witnesses)),
     (COUNT, COUNT), False),
]
IDS = [row[0] for row in ROWS]


def assert_total(label, call, args, inf_ok):
    try:
        value = call(*args)
    except ValueError as e:
        assert type(e) is ValueError or type(e).__module__ == "qcdiv.core", (label, args, e)
        assert str(e) not in STRAY, (label, args, e)
        return
    assert type(value) is float, (label, args, value)
    assert math.isfinite(value) or (inf_ok and value == math.inf), (label, args, value)


@pytest.mark.parametrize("label, call, edges, inf_ok", ROWS, ids=IDS)
def test_every_combination_of_edge_arguments(label, call, edges, inf_ok):
    for args in itertools.product(*edges):
        assert_total(label, call, args, inf_ok)


@pytest.mark.parametrize("label, call, edges, inf_ok", ROWS, ids=IDS)
@settings(derandomize=True, deadline=None, max_examples=30)
@given(data=st.data())
def test_any_float_argument(label, call, edges, inf_ok, data):
    # Float arguments are drawn from all floats too; the others from their edges.
    args = [data.draw(st.sampled_from(e) | st.floats() if type(e[0]) is float
                      else st.sampled_from(e)) for e in edges]
    assert_total(label, call, args, inf_ok)


# 1e308 * sin is -1e308 at -pi/2 and 3pi/2 and 1e308 at pi/2 and 5pi/2, so a
# difference of two values or a gap over a quarter turn overflows.
BIG_SINE = '{"affine": {"a": 1e308, "b": 0, "inner": "sine"}}'
BIG_LOG = '{"affine": {"a": 1e300, "b": 0, "inner": "log"}}'
H = math.pi / 2
# (div, gen, flags, points), as pins.library_call takes them
OVERFLOWS = [
    ("qcvx-jensen", BIG_SINE, {"--alpha": 0.5}, [(-H,), (3 * H,)]),
    ("qccv-jensen", BIG_SINE, {"--alpha": 0.5}, [(-H,), (3 * H,)]),
    ("ext-jensen", BIG_SINE, {"--alpha": 0.5}, [(-H,), (3 * H,)]),
    ("mn-jensen", BIG_SINE, {"--alpha": 0.5, "--mean-m": "arithmetic", "--mean-n": "arithmetic"},
     [(-H,), (3 * H,)]),
    ("power-jensen", BIG_SINE, {"--alpha": 0.5, "--delta": 2.0}, [(H,), (5 * H,)]),
    ("bregman", BIG_SINE, {}, [(-H,), (H,)]),
    ("ext-bregman", BIG_SINE, {}, [(-H,), (H,)]),
    ("expfam-kl", BIG_SINE, {}, [(H,), (-H,)]),
    ("delta-qcvx-bregman", BIG_SINE, {"--delta": 0.25}, [(-H,), (3 * H,)]),
    ("expfam-cross-entropy", BIG_LOG, {}, [(1e-7,), (1e10,)]),
    ("kl-power-nested", None, {"--exponent": 10.0}, [(1.0,), (1e308,)]),
    ("r-power-bregman", "cubic", {"--r": 1.0}, [(1.0,), (5.6e102,)]),
    ("r-power-bregman", "quadratic", {"--r": 1.0}, [(1.3e154,), (-3e153,)]),
]


SHORT = {BIG_SINE: "1e308 sine", BIG_LOG: "1e300 log"}


@pytest.mark.parametrize("div, gen, flags, points", OVERFLOWS,
                         ids=[f"{row[0]} {SHORT.get(row[1], row[1])}" for row in OVERFLOWS])
def test_a_value_past_the_floats_raises_range_error(div, gen, flags, points):
    with pytest.raises(RangeError, match="leaves the floats"):
        library_call(div, gen, flags, points)
    run = run_cli(eval_argv(div, gen, flags, points))
    assert (run["exit"], run["stdout"]) == (2, "")
    assert run["stderr"].startswith("qcdiv: error: ") and "leaves the floats" in run["stderr"]


def test_a_recovered_qcvx_bregman_past_the_floats_raises_range_error():
    with pytest.raises(RangeError, match="leaves the floats"):
        qcvx_bregman_from_kl(ExpFamily(build_generator(BIG_SINE)), H, -H)
