"""Command-line surface: evaluate divergences, run limit studies, suites, tables.

Exit codes: 0 success (or expected-and-detected infinite branch), 1 property
violation / convergence failure, 2 usage or configuration error.  Infinite
values print as the single token ``inf`` in every output format; plain output
uses 6 significant digits, csv and json use 17 (round-trip safe).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import re
import sys
from typing import Callable, NamedTuple, Optional

from . import checks, oracles, statdiv
from .bregman import (_bregman, _delta_averaged_qcvx_bregman, _extended_bregman,
                      _qcvx_bregman, _ratio)
from .core import _fmt, _pair, build_generator, eval_generator
from .jensen import _extended_jensen, _log_ratio_gap, _qccv_jensen, _qcvx_jensen, _skew
from .means import (MeanSpec, _exponents, _mn_jensen, _power_mean_bregman, _power_mean_jensen,
                    _power_weight, _r_exponent, _r_power_bregman, _weight)
from .statdiv import ExpFamily, _exponent, _kl_power_nested


class CliError(Exception):
    """Configuration problem detected after argument parsing; exits 2."""


def _parse_vector(text: str, flag: str):
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise CliError(f"{flag} expects comma-separated reals, got {text!r}") from None


def _load_generator(args):
    if getattr(args, "gen_file", None):
        with open(args.gen_file, "r", encoding="utf-8") as fh:
            try:
                spec = json.load(fh)
            except RecursionError:  # nested past the decoder's recursion limit
                raise CliError("--gen-file: the JSON nests too deeply to decode") from None
        return build_generator(spec)
    if getattr(args, "gen", None):
        return build_generator(args.gen)
    raise CliError("this divergence needs a generator: pass --gen or --gen-file")


def _parse_mean(text: str, flag: str) -> MeanSpec:
    if text in ("arithmetic", "max", "min"):
        return MeanSpec(text)
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
    """How the CLI calls one divergence: its argument check, then its kernel.

    ``flags`` are the required flags, in the order they are checked after the
    generator has loaded.  ``check(name, subject, *flag values)`` returns the
    kernel's checked arguments; ``name`` is the library function's, for the
    check's messages.  ``points`` are the point flags; a unary divergence has
    one.  ``scalar`` divergences take single reals.  ``subject`` is the
    leading argument: the generator, its ExpFamily, or nothing.
    """

    # The kernel takes the subject, the checked arguments, then two points
    # that core._pair checked and their generator values.  A ``raw`` kernel
    # takes the subject, the checked arguments and the points as given, and
    # checks the points itself.
    name: str
    kernel: Callable
    flags: tuple = ()
    check: Optional[Callable] = None
    points: tuple = ("--theta", "--theta-prime")
    scalar: bool = False
    subject: Optional[str] = "generator"
    raw: bool = False


# The divergence catalog: argparse choices (in this order), eval and table.
# power-bregman checks p, q > 0 together, the two KLs check theta and theta_p
# before they compare them, expfam-cross-entropy takes a gradient at theta
# before the value at theta_p, expfam-kl checks its pair with the points
# swapped, and expfam-entropy is the cross-entropy at theta: their kernels take
# the points raw.
DIVERGENCES = {
    "qcvx-jensen": _Div("qcvx_jensen", _qcvx_jensen, ("--alpha",), _skew),
    "qccv-jensen": _Div("qccv_jensen", _qccv_jensen, ("--alpha",), _skew),
    "log-ratio": _Div("log_ratio_gap", _log_ratio_gap, ("--alpha",), _skew),
    "ext-jensen": _Div("extended_jensen", _extended_jensen, ("--alpha",), _skew),
    "mn-jensen": _Div("mn_jensen", _mn_jensen, ("--alpha", "--mean-m", "--mean-n"), _weight),
    "power-jensen": _Div("power_mean_jensen", _power_mean_jensen, ("--alpha", "--delta"),
                         _power_weight),
    "bregman": _Div("bregman", _bregman),
    "qcvx-bregman": _Div("qcvx_bregman", _qcvx_bregman),
    "delta-qcvx-bregman": _Div("delta_averaged_qcvx_bregman", _delta_averaged_qcvx_bregman,
                               ("--delta",), _ratio),
    "ext-bregman": _Div("extended_bregman", _extended_bregman),
    "power-bregman": _Div("power_mean_bregman", _power_mean_bregman, ("--delta1", "--delta2"),
                          _exponents, scalar=True, raw=True),
    "r-power-bregman": _Div("r_power_bregman", _r_power_bregman, ("--r",), _r_exponent,
                            scalar=True),
    "kl-nested-uniform": _Div("kl_nested_uniform", statdiv.kl_nested_uniform, scalar=True,
                              subject=None, raw=True),
    "kl-power-nested": _Div("kl_power_nested", _kl_power_nested, ("--exponent",), _exponent,
                            scalar=True, subject=None, raw=True),
    "expfam-kl": _Div("expfam_kl", statdiv.expfam_kl, subject="family", raw=True),
    "expfam-entropy": _Div("expfam_entropy", statdiv.expfam_entropy, points=("--theta",),
                           subject="family", raw=True),
    "expfam-cross-entropy": _Div("expfam_cross_entropy", statdiv.expfam_cross_entropy,
                                 subject="family", raw=True),
}

# limit-study --study s runs oracles.limit_<s with "-" replaced by "_">.
STUDIES = ("scaled-jensen", "power-jensen", "r-power-bregman")


def _arguments(args):
    """(catalog entry, leading arguments, flag values) for --div, in check order."""
    div = DIVERGENCES[args.div]
    lead = ()
    if div.subject is not None:
        g = _load_generator(args)
        lead = (ExpFamily(g) if div.subject == "family" else g,)
    params = []
    for flag in div.flags:
        value = _need(args, flag)
        params.append(_parse_mean(value, flag) if flag.startswith("--mean-") else value)
    return div, lead, params


def _add_generator_flags(p):
    p.add_argument("--gen", help="generator spec, inline JSON or built-in name")
    p.add_argument("--gen-file", help="path to a JSON generator spec")


def _add_common_div_flags(p):
    p.add_argument("--div", required=True, choices=DIVERGENCES, metavar="DIV")
    _add_generator_flags(p)
    p.add_argument("--alpha", type=float,
                   help="skew in (0,1), or weight in [0,1] for mn-jensen and power-jensen")
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
    p_eval.set_defaults(run=cmd_eval)
    _add_common_div_flags(p_eval)
    p_eval.add_argument("--theta", required=True, help="comma-separated reals")
    p_eval.add_argument("--theta-prime", help="comma-separated reals")
    p_eval.add_argument("--format", choices=("plain", "csv", "json"), default="plain")

    p_limit = sub.add_parser("limit-study", help="run a dyadic convergence study")
    p_limit.set_defaults(run=cmd_limit_study)
    p_limit.add_argument("--study", required=True, choices=STUDIES)
    _add_generator_flags(p_limit)
    p_limit.add_argument("--theta", required=True)
    p_limit.add_argument("--theta-prime", required=True)
    p_limit.add_argument("--k-max", type=int, default=20)

    p_check = sub.add_parser("check", help="run a randomized property suite")
    p_check.set_defaults(run=cmd_check)
    p_check.add_argument("--suite", required=True, choices=sorted(checks.SUITES))
    p_check.add_argument("--samples", type=int, default=10000)
    p_check.add_argument("--seed", type=int, default=0)

    p_table = sub.add_parser("table", help="emit a divergence grid as CSV")
    p_table.set_defaults(run=cmd_table)
    _add_common_div_flags(p_table)
    p_table.add_argument("--grid-min", type=float, required=True)
    p_table.add_argument("--grid-max", type=float, required=True)
    p_table.add_argument("--grid-step", type=float, required=True)

    return parser


def cmd_eval(args) -> int:
    div, lead, params = _arguments(args)
    points = [_parse_vector(args.theta, "--theta")]
    if args.theta_prime is not None:
        points.append(_parse_vector(args.theta_prime, "--theta-prime"))
    elif len(div.points) == 2:
        raise CliError(f"--div {args.div} requires --theta-prime")
    if div.scalar:
        points = [_scalar(p, flag) for p, flag in zip(points, div.points)]
    # A unary divergence reads --theta only; a given --theta-prime was parsed above.
    points = points[:len(div.points)]
    extra = div.check(div.name, *lead, *params) if div.check else ()
    value = div.kernel(*lead, *extra, *(points if div.raw else _pair(lead[0], *points)))
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
    div, lead, params = _arguments(args)
    if len(div.points) != 2:
        raise CliError(f"--div {args.div} is unary; table needs a binary divergence")
    steps = (args.grid_max - args.grid_min) / args.grid_step + 1e-9
    if not steps < _MAX_GRID_POINTS:
        raise CliError(f"the grid has more than {_MAX_GRID_POINTS} points per axis")
    count = int(math.floor(steps)) + 1
    grid = [args.grid_min + i * args.grid_step for i in range(count)]
    axis = [x if div.raw and div.scalar else (x,) for x in grid]
    kernel = div.kernel  # a local: the loop below runs once per grid pair
    extra = div.check(div.name, *lead, *params) if div.check else ()
    # Every value first, so that a grid point that raises leaves stdout empty.
    # Row 0 meets the axis points in order, and each is checked and evaluated
    # just before its first pair, so the first error is the one a row-major
    # loop over the public function raises.  A raw kernel checks its points.
    vals, cells = [], []
    for i in range(count):
        for j in range(count):
            if j == len(vals):
                vals.append(() if div.raw else (eval_generator(lead[0], axis[j]),))
            cells.append(kernel(*lead, *extra, axis[i], axis[j], *vals[i], *vals[j]))
    values = iter(cells)
    labels = [_fmt(x) for x in grid]
    # One write per grid row: zip stops at the end of labels, so each row
    # takes the next count values.
    sys.stdout.write("theta,theta_prime,value\n")
    for a in labels:
        sys.stdout.write("".join(f"{a},{b},{_fmt(v)}\n" for b, v in zip(labels, values)))
    return 0


# argparse reads only -<digits>[.<digits>] as a negative number, so a value
# such as -1e-5 or -1,2 after a flag would parse as an unknown option.  Joined
# to its flag as --flag=value, it reads as the value on every Python version.
_NEGATIVE_VALUE = re.compile(r"-\.?\d")


def _join_negative_values(argv):
    out = []
    for arg in argv:
        flag = out[-1] if out else ""
        if (_NEGATIVE_VALUE.match(arg) and flag.startswith("--") and "=" not in flag
                and not "--help".startswith(flag)):
            out[-1] = f"{flag}={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.run(args)
    except (CliError, ValueError, KeyError, OSError, ArithmeticError) as e:
        print(f"qcdiv: error: {e}", file=sys.stderr)
        return 2


def run() -> int:
    """The process entry (``python -m qcdiv``, the ``qcdiv`` script): ``main()`` once the
    import's heap is frozen, so no collection walks it again, at exit least of all.
    ``main`` freezes nothing, so an in-process caller's heap is collected as before."""
    gc.freeze()
    return main()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(run())
