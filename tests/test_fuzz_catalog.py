"""Every catalog divergence, fuzzed: a valid value or a typed error, never NaN or -inf.

For each ``cli.DIVERGENCES`` entry the property draws its float flags from
in-range, boundary, NaN, infinite and huge values, and its points from
in-domain, near-boundary, huge and non-finite ones.  The public library
function must return a finite value or ``+inf``, or raise a ``ValueError``
(every qcdiv error type is one).  ``qcdiv eval`` on the same input, in
process, must exit 0, 1 or 2 without a traceback and print no ``nan`` or
``-inf``; it must print the library's value, or exit 2 when the library raised.
"""

import math
import warnings

from hypothesis import event, given, settings
from hypothesis import strategies as st

from corpora import catalog
from corpora.catalog import TWO_D, generators
from pins import eval_argv, library_call, run_cli
from qcdiv import cli
from qcdiv.core import _fmt

ONE_D = ["log", "sqrt", "quadratic", "cubic", "abs", "neg-gauss", "linear", "sine",
         '{"affine": {"a": 2, "b": 1, "inner": "log"}}',
         '{"name": "linear-fractional", "c": -1, "d": 2}',
         # values near the float limit, so that a gap or a term of it can overflow
         '{"affine": {"a": 1e308, "b": 0, "inner": "sine"}}',
         '{"affine": {"a": 1e300, "b": 0, "inner": "log"}}']

# Each flag's in-range values, then the values on or past its edge.
IN_RANGE = {
    "--alpha": st.floats(0.01, 0.99),
    "--delta": st.floats(0.1, 8.0),
    "--delta1": st.sampled_from([1.0, 2.0, 3.0, -1.0, 0.5]),
    "--delta2": st.sampled_from([1.0, 2.0, 3.0, -1.0, 0.5]),
    "--r": st.floats(1.0, 50.0),
    "--exponent": st.floats(1.01, 5.0),
}
EDGE = [0.0, -0.0, 1.0, 5e-324, -1.0, 1e300, -1e300, 1.7976931348623157e308, 2.0**1023,
        math.nan, math.inf, -math.inf]
MEANS = [*catalog.MEANS, "power:nan", "power:inf", "power:-inf", "power:1e300"]
POINT_EDGE = [0.0, -0.0, 5e-324, 1e-300, 1.0, 1e154, 1e308, -1e308, 1.7976931348623157e308,
              math.nan, math.inf, -math.inf]


@st.composite
def cases(draw):
    div = draw(st.sampled_from(list(cli.DIVERGENCES)))
    spec = cli.DIVERGENCES[div]
    gen = draw(st.sampled_from(generators(spec, ONE_D)))
    dim = 2 if gen in TWO_D else 1
    flags = {}
    for flag in spec.flags:
        if flag.startswith("--mean-"):
            flags[flag] = draw(st.sampled_from(MEANS))
        else:
            flags[flag] = draw(st.one_of(IN_RANGE[flag], st.sampled_from(EDGE)))
    coord = st.one_of(st.floats(0.05, 4.0), st.floats(-4.0, 4.0), st.sampled_from(POINT_EDGE))
    points = [tuple(draw(coord) for _ in range(dim)) for _ in spec.points]
    return div, gen, flags, points


@settings(derandomize=True, deadline=None, max_examples=300)
@given(case=cases())
def test_every_divergence_returns_a_valid_value_or_a_typed_error(case):
    div, gen, flags, points = case
    value = None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # sign-guarantee warnings are by design
        try:
            value = library_call(div, gen, flags, points)
        except ValueError as e:
            event(f"{div}: {type(e).__name__}")
        else:
            event(f"{div}: value")
            assert isinstance(value, float), (div, value)
            assert not math.isnan(value) and value != -math.inf, (div, value)
    run = run_cli(eval_argv(div, gen, flags, points))
    assert run["exit"] in (0, 1, 2)
    assert "Traceback" not in run["stderr"]
    tokens = run["stdout"].replace(",", " ").replace(":", " ").replace("}", " ").split()
    assert "nan" not in tokens and "-inf" not in tokens, run["stdout"]
    # eval agrees with the library: its value in plain format, or exit 2 and no stdout.
    if value is None:
        assert (run["exit"], run["stdout"]) == (2, "")
    else:
        assert (run["exit"], run["stdout"]) == (0, _fmt(value, "plain") + "\n")
