"""Command-line surface: evaluate divergences, run limit studies, suites, tables.

Exit codes: 0 success (or expected-and-detected infinite branch), 1 property
violation / convergence failure, 2 usage or configuration error.  Infinite
values print as the single token ``inf`` in every output format; plain output
uses 6 significant digits, csv and json use 17 (round-trip safe).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import NamedTuple, Optional

from . import checks, oracles
from .bregman import (
    bregman,
    delta_averaged_qcvx_bregman,
    extended_bregman,
    qcvx_bregman,
)
from .core import _fmt, build_generator
from .jensen import extended_jensen, log_ratio_gap, qccv_jensen, qcvx_jensen
from .means import (
    MeanSpec,
    mn_jensen,
    power_mean_bregman,
    power_mean_jensen,
    r_power_bregman,
)
from .statdiv import (
    ExpFamily,
    expfam_cross_entropy,
    expfam_entropy,
    expfam_kl,
    kl_nested_uniform,
    kl_power_nested,
)


class CliError(Exception):
    """Configuration problem detected after argument parsing; exits 2."""


def _parse_vector(text: str, flag: str):
    try:
        coords = tuple(float(part) for part in text.split(","))
    except ValueError:
        raise CliError(f"{flag} expects comma-separated reals, got {text!r}") from None
    if not coords:
        raise CliError(f"{flag} must contain at least one coordinate")
    return coords


def _load_generator(args):
    if getattr(args, "gen_file", None):
        with open(args.gen_file, "r", encoding="utf-8") as fh:
            return build_generator(json.load(fh))
    if getattr(args, "gen", None):
        return build_generator(args.gen)
    raise CliError("this divergence needs a generator: pass --gen or --gen-file")


def _parse_mean(text: str, flag: str) -> MeanSpec:
    if text == "arithmetic":
        return MeanSpec.arithmetic()
    if text == "max":
        return MeanSpec.maximum()
    if text == "min":
        return MeanSpec.minimum()
    if text.startswith("power:"):
        try:
            return MeanSpec.power(float(text[len("power:"):]))
        except ValueError:
            raise CliError(f"{flag}: bad power exponent in {text!r}") from None
    if text.startswith("qa:"):
        return MeanSpec.quasi_arithmetic(build_generator(text[len("qa:"):]))
    raise CliError(
        f"{flag}: unknown mean {text!r} "
        "(use arithmetic | max | min | power:<delta> | qa:<generator-spec>)"
    )


def _need(args, flag: str):
    value = getattr(args, flag[2:].replace("-", "_"))
    if value is None:
        raise CliError(f"--div {args.div} requires {flag}")
    return value


def _scalar(vec, flag: str) -> float:
    if len(vec) != 1:
        raise CliError(f"{flag} must be a single real for this divergence")
    return vec[0]


class _Div(NamedTuple):
    """How the CLI calls one divergence.

    ``fn`` names a library function imported into this module; it is looked up
    when the evaluator is built, so rebinding that name (in tests, or by the
    traced benchmark) reaches the CLI.  ``flags`` pairs each required flag with
    the keyword it fills, in the order the flags are checked, after the
    generator has loaded.  ``points`` are the keywords of --theta and
    --theta-prime; a unary divergence has one.  ``scalar`` divergences take
    single reals.  ``subject`` is the leading positional argument: the
    generator, its ExpFamily, or nothing.
    """

    fn: str
    flags: tuple = ()
    points: tuple = ("theta", "theta_p")
    scalar: bool = False
    subject: Optional[str] = "generator"


_ALPHA = (("alpha", "--alpha"),)

# The divergence catalog: argparse choices (in this order), eval and table.
DIVERGENCES = {
    "qcvx-jensen": _Div("qcvx_jensen", _ALPHA),
    "qccv-jensen": _Div("qccv_jensen", _ALPHA),
    "log-ratio": _Div("log_ratio_gap", _ALPHA),
    "ext-jensen": _Div("extended_jensen", _ALPHA),
    "mn-jensen": _Div("mn_jensen", _ALPHA + (("M", "--mean-m"), ("N", "--mean-n"))),
    "power-jensen": _Div("power_mean_jensen", _ALPHA + (("delta", "--delta"),)),
    "bregman": _Div("bregman"),
    "qcvx-bregman": _Div("qcvx_bregman"),
    "delta-qcvx-bregman": _Div("delta_averaged_qcvx_bregman", (("delta", "--delta"),)),
    "ext-bregman": _Div("extended_bregman"),
    "power-bregman": _Div("power_mean_bregman", (("delta1", "--delta1"), ("delta2", "--delta2")),
                          points=("p", "q"), scalar=True),
    "r-power-bregman": _Div("r_power_bregman", (("r", "--r"),), scalar=True),
    "kl-nested-uniform": _Div("kl_nested_uniform", scalar=True, subject=None),
    "kl-power-nested": _Div("kl_power_nested", (("alpha", "--exponent"),), scalar=True,
                            subject=None),
    "expfam-kl": _Div("expfam_kl", subject="family"),
    "expfam-entropy": _Div("expfam_entropy", points=("theta",), subject="family"),
    "expfam-cross-entropy": _Div("expfam_cross_entropy", subject="family"),
}

# limit-study --study s runs oracles.limit_<s with "-" replaced by "_">.
STUDIES = ("scaled-jensen", "power-jensen", "r-power-bregman")


def _build_evaluator(args):
    """Return (needs_theta_prime, fn(theta, theta_p) -> value) for --div."""
    div = DIVERGENCES[args.div]
    fn = globals()[div.fn]
    lead = ()
    if div.subject is not None:
        g = _load_generator(args)
        lead = (ExpFamily(g) if div.subject == "family" else g,)
    params = {}
    for keyword, flag in div.flags:
        value = _need(args, flag)
        params[keyword] = _parse_mean(value, flag) if flag.startswith("--mean-") else value

    def evaluate(t, tp):
        if div.scalar:
            t, tp = _scalar(t, "--theta"), _scalar(tp, "--theta-prime")
        return fn(*lead, **dict(zip(div.points, (t, tp))), **params)

    return len(div.points) == 2, evaluate


def _add_common_div_flags(p):
    p.add_argument("--div", required=True, choices=DIVERGENCES, metavar="DIV")
    p.add_argument("--gen", help="generator spec, inline JSON or built-in name")
    p.add_argument("--gen-file", help="path to a JSON generator spec")
    p.add_argument("--alpha", type=float, help="skew parameter in (0,1)")
    p.add_argument("--delta", type=float,
                   help="power exponent (power-jensen) or averaging ratio (delta-qcvx-bregman)")
    p.add_argument("--delta1", type=float, help="first power-bregman exponent")
    p.add_argument("--delta2", type=float, help="second power-bregman exponent")
    p.add_argument("--r", type=float, help="r-power-bregman exponent, >= 1")
    p.add_argument("--exponent", type=float,
                   help="power-family exponent alpha > 1 (kl-power-nested)")
    p.add_argument("--mean-m", help="argument mean for mn-jensen")
    p.add_argument("--mean-n", help="value mean for mn-jensen")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcdiv",
        description="Quasiconvex Jensen/Bregman divergences and their numeric oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one divergence")
    _add_common_div_flags(p_eval)
    p_eval.add_argument("--theta", required=True, help="comma-separated reals")
    p_eval.add_argument("--theta-prime", help="comma-separated reals")
    p_eval.add_argument("--format", choices=("plain", "csv", "json"), default="plain")

    p_limit = sub.add_parser("limit-study", help="run a dyadic convergence study")
    p_limit.add_argument("--study", required=True, choices=STUDIES)
    p_limit.add_argument("--gen", help="generator spec, inline JSON or built-in name")
    p_limit.add_argument("--gen-file", help="path to a JSON generator spec")
    p_limit.add_argument("--theta", required=True)
    p_limit.add_argument("--theta-prime", required=True)
    p_limit.add_argument("--k-max", type=int, default=20)

    p_check = sub.add_parser("check", help="run a randomized property suite")
    p_check.add_argument("--suite", required=True, choices=sorted(checks.SUITES))
    p_check.add_argument("--samples", type=int, default=10000)
    p_check.add_argument("--seed", type=int, default=0)

    p_table = sub.add_parser("table", help="emit a divergence grid as CSV")
    _add_common_div_flags(p_table)
    p_table.add_argument("--grid-min", type=float, required=True)
    p_table.add_argument("--grid-max", type=float, required=True)
    p_table.add_argument("--grid-step", type=float, required=True)
    p_table.add_argument("--format", choices=("csv",), default="csv")

    return parser


def cmd_eval(args) -> int:
    needs_tp, evaluate = _build_evaluator(args)
    theta = _parse_vector(args.theta, "--theta")
    theta_p = None
    if args.theta_prime is not None:
        theta_p = _parse_vector(args.theta_prime, "--theta-prime")
    elif needs_tp:
        raise CliError(f"--div {args.div} requires --theta-prime")
    value = evaluate(theta, theta_p)
    text = _fmt(value, args.format)
    if args.format == "json":
        print('{"value": "inf"}' if math.isinf(value) else f'{{"value": {text}}}')
    elif args.format == "csv":
        print(f"value\n{text}")
    else:
        print(text)
    return 0


def cmd_limit_study(args) -> int:
    if not 4 <= args.k_max <= 40:
        raise CliError(f"--k-max must lie in [4, 40], got {args.k_max}")
    g = _load_generator(args)
    theta = _parse_vector(args.theta, "--theta")
    theta_p = _parse_vector(args.theta_prime, "--theta-prime")
    run = getattr(oracles, "limit_" + args.study.replace("-", "_"))
    study = run(g, theta, theta_p, args.k_max)
    for row in study.csv_rows():
        print(row)
    return 0 if study.converged else 1


def cmd_check(args) -> int:
    if args.samples < 1:
        raise CliError(f"--samples must be >= 1, got {args.samples}")
    result = checks.run_suite(args.suite, args.samples, args.seed)
    for line in result.report_lines():
        print(line)
    return 0 if result.passed else 1


# table rows are the square of this, so a bad --grid-step cannot exhaust memory.
_MAX_GRID_POINTS = 1001


def cmd_table(args) -> int:
    if not args.grid_step > 0.0:
        raise CliError(f"--grid-step must be > 0, got {args.grid_step}")
    if not args.grid_min < args.grid_max:
        raise CliError("--grid-min must be below --grid-max")
    needs_tp, evaluate = _build_evaluator(args)
    if not needs_tp:
        raise CliError(f"--div {args.div} is unary; table needs a binary divergence")
    steps = (args.grid_max - args.grid_min) / args.grid_step + 1e-9
    if not steps < _MAX_GRID_POINTS:
        raise CliError(f"the grid has more than {_MAX_GRID_POINTS} points per axis")
    count = int(math.floor(steps)) + 1
    axis = [(args.grid_min + i * args.grid_step,) for i in range(count)]
    # Every value first, so that a grid point that raises leaves stdout empty.
    values = iter([float(evaluate(a, b)) for a in axis for b in axis])
    labels = [_fmt(a) for (a,) in axis]
    # One write per grid row: zip stops at the end of labels, so each row
    # takes the next count values.
    sys.stdout.write("theta,theta_prime,value\n")
    for a in labels:
        sys.stdout.write("".join(f"{a},{b},{_fmt(v)}\n" for b, v in zip(labels, values)))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    command = {
        "eval": cmd_eval,
        "limit-study": cmd_limit_study,
        "check": cmd_check,
        "table": cmd_table,
    }[args.command]
    try:
        return command(args)
    except (CliError, ValueError, KeyError, OSError, ArithmeticError) as e:
        print(f"qcdiv: error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
