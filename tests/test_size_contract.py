"""One size contract for every size-bearing input.

Each input that sets how much qcdiv builds or computes has a cap.  One past
the cap is refused before the work starts: the library raises ``SpecError``
(``ValueError`` for a study's ``k_max``) and the CLI exits 2 without a
traceback.  At the cap the input works; that case is left out where it costs
much, such as a 1,001 x 1,001 table.
"""

import pytest

import pins
from corpora.spec import negations
from qcdiv import oracles
from qcdiv.core import MAX_DEPTH, MAX_DIM, SpecError, build_generator

SQRT = build_generator("sqrt")


def _build(spec):
    return lambda: build_generator(spec)


def _study(run, k_max):
    return lambda: run(SQRT, 1.0, 2.0, k_max)


def _cli(*argv):
    return lambda: pins.run_cli(argv)


def _limit_study(k_max):
    return _cli("limit-study", "--study", "power-jensen", "--gen", "sqrt", "--theta", "1",
                "--theta-prime", "2", "--k-max", str(k_max))


def _table(grid_max):
    # The axis is 1, 2, ..., grid_max: grid_max points.
    return _cli("table", "--div", "qcvx-bregman", "--gen", "log", "--grid-min", "1",
                "--grid-max", str(grid_max), "--grid-step", "1")


# (input, the call at the cap or None, the call one past it, how it is refused:
# an exception type, or 2 for the CLI's exit code)
SIZES = [
    ("spec depth", _build(negations(MAX_DEPTH)), _build(negations(MAX_DEPTH + 1)), SpecError),
    ("spec depth, eval", None,
     _cli("eval", "--div", "qcvx-bregman", "--gen", negations(500), "--theta", "1",
          "--theta-prime", "2"), 2),
    ("spec depth, JSON decoder", None, _build(negations(5000)), SpecError),
    ("separable width", _build({"separable": ["log"] * MAX_DIM}),
     _build({"separable": ["log"] * (MAX_DIM + 1)}), SpecError),
    ("dim", _build({"name": "neg-gauss", "dim": MAX_DIM}),
     _build({"name": "neg-gauss", "dim": MAX_DIM + 1}), SpecError),
    ("table grid points", None, _table(1002), 2),
    ("--k-max", _limit_study(40), _limit_study(41), 2),
    ("scaled-jensen k_top", _study(oracles.limit_scaled_jensen, 53),
     _study(oracles.limit_scaled_jensen, 54), ValueError),
    ("power-jensen k_top", _study(oracles.limit_power_jensen, 1023),
     _study(oracles.limit_power_jensen, 1024), ValueError),
    ("r-power-bregman k_top", _study(oracles.limit_r_power_bregman, 1023),
     _study(oracles.limit_r_power_bregman, 1024), ValueError),
]
IDS = [row[0] for row in SIZES]


@pytest.mark.parametrize("label,at_cap,past_cap,refusal", SIZES, ids=IDS)
def test_one_past_the_cap_is_refused(label, at_cap, past_cap, refusal):
    if refusal == 2:
        out = past_cap()
        assert (out["exit"], out["stdout"]) == (2, ""), label
        assert out["stderr"].startswith("qcdiv: error: ") and out["stderr"].count("\n") == 1
    else:
        with pytest.raises(refusal, match="at most|deeper than|must be <="):
            past_cap()


@pytest.mark.parametrize("label,at_cap,past_cap,refusal",
                         [row for row in SIZES if row[1] is not None],
                         ids=[row[0] for row in SIZES if row[1] is not None])
def test_the_cap_itself_is_accepted(label, at_cap, past_cap, refusal):
    out = at_cap()
    if refusal == 2:  # a study that does not converge exits 1, which is not a refusal
        assert out["exit"] in (0, 1) and out["stderr"] == "", label
