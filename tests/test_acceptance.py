"""Acceptance gate: every criterion at its stated tolerance, one report line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines on stdout.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

from qcdiv.bregman import delta_averaged_qcvx_bregman, qcvx_bregman
from qcdiv.checks import run_suite
from qcdiv.core import build_generator
from qcdiv.jensen import qcvx_jensen
from qcdiv.means import power_mean_jensen, r_power_bregman
from qcdiv.oracles import (
    integrate_delta_average,
    limit_r_power_bregman,
    limit_scaled_jensen,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")


def report(number: int, label: str, violations: list) -> None:
    status = "PASS" if not violations else "FAIL"
    print(f"criterion {number:2d} ({label}): {status}")
    assert not violations, f"criterion {number}: " + "; ".join(str(v) for v in violations[:5])


def test_criterion_01_closed_form_reproduction():
    bad = []
    cases = [
        ("linear", 1.0, 2.0, 1.0),
        ("log", 1.0, 2.0, 0.5),
        ("sqrt", 1.0, 4.0, 0.75),
        ("cubic", -1.0, 0.0, 0.0),  # pseudo-divergence witness: zero at distinct points
    ]
    for name, t, tp, expected in cases:
        v = qcvx_bregman(build_generator(name), t, tp)
        if v.is_inf or abs(float(v) - expected) > 1e-12:
            bad.append((name, t, tp, float(v), expected))
    if not qcvx_bregman(build_generator("linear"), 2, 1).is_inf:
        bad.append(("linear", 2, 1, "expected inf"))
    report(1, "closed forms", bad)


def test_criterion_02_delta_averaged_closed_forms():
    bad = []
    quad, cubic = build_generator("quadratic"), build_generator("cubic")
    for Q, t, tp, expected in ((quad, 1.0, 2.0, 4.5), (cubic, -1.0, 0.0, 0.25)):
        closed = float(delta_averaged_qcvx_bregman(Q, t, tp, 0.5))
        numeric = integrate_delta_average(Q, t, tp, 0.5)
        if abs(closed - expected) > 1e-12:
            bad.append((Q.name, "closed", closed, expected))
        if abs(numeric - closed) > 1e-8 * abs(closed):
            bad.append((Q.name, "quadrature", numeric, closed))
    inflection = float(delta_averaged_qcvx_bregman(cubic, -1, 0, 0.5))
    if not inflection > 0.0:
        bad.append(("cubic inflection no longer strictly positive", inflection))
    report(2, "delta-averaged closed forms", bad)


def test_criterion_03_limit_definition():
    bad = []
    rng = random.Random(42)
    boxes = {"log": (0.1, 10), "sqrt": (0.1, 10), "quadratic": (-5, 5), "cubic": (-4, 4)}
    for name in ("log", "sqrt", "quadratic", "cubic"):
        Q = build_generator(name)
        lo, hi = boxes[name]
        for _ in range(50):
            t, tp = rng.uniform(lo, hi), rng.uniform(lo, hi)
            if Q((t,)) > Q((tp,)):
                t, tp = tp, t  # finite branch
            study = limit_scaled_jensen(Q, t, tp, 20)
            tol = 1e-4 * (1.0 + abs(float(study.target)))
            if study.final_error > tol:
                bad.append((name, t, tp, study.final_error, tol))
            if not study.errors_nonincreasing_from(6):
                bad.append((name, t, tp, "errors not non-increasing from k=6"))
    report(3, "scaled-jensen limit", bad)


def test_criterion_04_power_mean_limits():
    bad = []
    shifted_quad = build_generator({"affine": {"a": 1, "b": 1, "inner": {"name": "quadratic"}}})
    sqrt = build_generator("sqrt")

    for F, t, tp in ((shifted_quad, 0.0, 2.0), (sqrt, 1.0, 4.0)):
        target = qcvx_jensen(F, t, tp, 0.5)
        got = power_mean_jensen(F, 2.0**10, 0.5, t, tp)
        if abs(got - target) > 1e-3 * (1.0 + abs(target)):
            bad.append(("power-jensen", F.name, t, tp, got, target))

    for F, t, tp in ((build_generator("quadratic"), 1.0, 2.0),
                     (shifted_quad, 1.0, 2.0), (sqrt, 1.0, 4.0)):
        target = qcvx_bregman(F, t, tp)
        got = r_power_bregman(F, 2.0**20, t, tp)
        if got.is_inf or target.is_inf:
            bad.append(("r-power finite branch went infinite", F.name, t, tp))
        elif abs(float(got) - float(target)) > 1e-3 * (1.0 + abs(float(target))):
            bad.append(("r-power", F.name, t, tp, float(got), float(target)))

    for F, t, tp in ((build_generator("quadratic"), 2.0, 1.0), (sqrt, 4.0, 1.0)):
        study = limit_r_power_bregman(F, t, tp, 20)
        if not (study.values[-1].is_inf or study.unbounded_trend):
            bad.append(("r-power infinite branch undetected", F.name, t, tp))
    report(4, "power-mean limits", bad)


def test_criterion_05_kl_agreement():
    result = run_suite("kl-quadrature", 20, seed=7)
    report(5, "nested-family KL vs quadrature", result.failures)


def test_criterion_06_identity_suite():
    result = run_suite("identities", 10_000, seed=42)
    report(6, "identity suite", result.failures)


def test_criterion_07_one_sided_infinity():
    result = run_suite("one-sided-infinity", 10_000, seed=42)
    report(7, "one-sided infinity", result.failures)


def test_criterion_08_non_separability_witness():
    bad = []
    quad = build_generator("quadratic")
    whole = build_generator({"separable": [{"name": "quadratic"}, {"name": "quadratic"}]})
    total = qcvx_bregman(whole, (1.0, 0.0), (0.0, 2.0))
    if float(total) != 8.0:
        bad.append(("total", float(total)))
    per_coord = [qcvx_bregman(quad, (x,), (y,))
                 for x, y in zip((1.0, 0.0), (0.0, 2.0))]
    if not any(v.is_inf for v in per_coord):
        bad.append(("componentwise sum unexpectedly finite", [float(v) for v in per_coord]))
    report(8, "non-separability witness", bad)


def test_criterion_09_first_order_condition():
    result = run_suite("first-order", 10_000, seed=42)
    report(9, "first-order nonnegativity", result.failures)


def _cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-m", "qcdiv", *args],
                          capture_output=True, env=env)


def test_criterion_10_cli_contract():
    bad = []
    expectations = [
        ((("eval", "--div", "qcvx-bregman", "--gen", '{"name":"log"}',
           "--theta", "1", "--theta-prime", "2")), b"0.5\n"),
        ((("eval", "--div", "qcvx-bregman", "--gen", '{"name":"log"}',
           "--theta", "2", "--theta-prime", "1")), b"inf\n"),
        ((("eval", "--div", "qcvx-jensen", "--gen", '{"name":"cubic"}',
           "--theta", "-1", "--theta-prime", "0", "--alpha", "0.5")), b"0.125\n"),
    ]
    for args, expected in expectations:
        r = _cli(*args)
        if r.returncode != 0 or r.stdout != expected:
            bad.append((args, r.returncode, r.stdout, expected))
    r = _cli("check", "--suite", "identities", "--samples", "10000", "--seed", "42")
    if r.returncode != 0:
        bad.append(("check identities", r.returncode, r.stdout[-200:]))
    report(10, "CLI contract", bad)
