"""Validate once: every public entry point checks its points exactly once.

Public divergences coerce and check their points, then call the unchecked
``core`` kernels.  These tests pin what that must not change: the error type,
message and order for invalid points, the coordinate check on derived points,
and the raw generator work per call.
"""

import ast
import dataclasses
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import qcdiv
from qcdiv import checks, core, means, oracles
from qcdiv.bregman import (
    bregman,
    delta_averaged_qcvx_bregman,
    extended_bregman,
    qcvx_bregman,
)
from qcdiv.core import (
    Box,
    DimensionError,
    DomainError,
    Interval,
    as_vector,
    build_generator,
    eval_generator,
)
from qcdiv.jensen import extended_jensen, log_ratio_gap, qccv_jensen, qcvx_jensen
from qcdiv.means import MeanSpec, mn_jensen, power_mean_jensen, r_power_bregman, weighted_mean
from qcdiv.statdiv import (
    ExpFamily,
    expfam_cross_entropy,
    expfam_entropy,
    expfam_kl,
    qcvx_bregman_from_kl,
)

LOG = build_generator("log")
ARITH = MeanSpec.arithmetic()

# name -> (call(theta, theta_p, g=LOG), unary)
ENTRY_POINTS = {
    "qcvx_jensen": (lambda t, tp, g=LOG: qcvx_jensen(g, t, tp, 0.5), False),
    "qccv_jensen": (lambda t, tp, g=LOG: qccv_jensen(g, t, tp, 0.5), False),
    "log_ratio_gap": (lambda t, tp, g=LOG: log_ratio_gap(g, t, tp, 0.5), False),
    "extended_jensen": (lambda t, tp, g=LOG: extended_jensen(g, t, tp, 0.5), False),
    "bregman": (lambda t, tp, g=LOG: bregman(g, t, tp), False),
    "qcvx_bregman": (lambda t, tp, g=LOG: qcvx_bregman(g, t, tp), False),
    "delta_averaged_qcvx_bregman":
        (lambda t, tp, g=LOG: delta_averaged_qcvx_bregman(g, t, tp, 0.5), False),
    "extended_bregman": (lambda t, tp, g=LOG: extended_bregman(g, t, tp), False),
    "mn_jensen": (lambda t, tp, g=LOG: mn_jensen(g, ARITH, ARITH, 0.5, t, tp), False),
    "power_mean_jensen": (lambda t, tp, g=LOG: power_mean_jensen(g, 2.0, 0.5, t, tp), False),
    "r_power_bregman": (lambda t, tp, g=LOG: r_power_bregman(g, 2.0, t, tp), False),
    "expfam_kl": (lambda t, tp, g=LOG: expfam_kl(ExpFamily(g), t, tp), False),
    "expfam_entropy": (lambda t, tp, g=LOG: expfam_entropy(ExpFamily(g), t), True),
    "expfam_cross_entropy":
        (lambda t, tp, g=LOG: expfam_cross_entropy(ExpFamily(g), t, tp), False),
    "qcvx_bregman_from_kl":
        (lambda t, tp, g=LOG: qcvx_bregman_from_kl(ExpFamily(g), t, tp), False),
    "integrate_delta_average":
        (lambda t, tp, g=LOG: oracles.integrate_delta_average(g, t, tp, 0.5), False),
    "limit_scaled_jensen":
        (lambda t, tp, g=LOG: oracles.limit_scaled_jensen(g, t, tp, 4), False),
    "limit_power_jensen": (lambda t, tp, g=LOG: oracles.limit_power_jensen(g, t, tp, 4), False),
    "limit_r_power_bregman":
        (lambda t, tp, g=LOG: oracles.limit_r_power_bregman(g, t, tp, 4), False),
}

ONE_D_ONLY = "the quadrature cross-check is defined for 1-D parameters"
# qcvx_bregman_from_kl needs F(theta_p) <= F(theta); the others accept (1.5, 2.0).
VALID = {"qcvx_bregman_from_kl": ((2.0,), (1.5,))}


def _raises(exc, message, call, *args):
    with pytest.raises(exc, match="^" + re.escape(message) + "$"):
        call(*args)


BINARY = [name for name, (_, unary) in ENTRY_POINTS.items() if not unary]
SLOTS = [(name, slot) for name in ENTRY_POINTS
         for slot in ((0, 1) if name in BINARY else (0,))]


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_valid_points_pass(name):
    call, _ = ENTRY_POINTS[name]
    call(*VALID.get(name, ((1.5,), (2.0,))))


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_each_point_is_evaluated_at_most_once(name):
    # Derived points (midpoints, shifted nodes) may be evaluated too; theta and
    # theta_p themselves are checked and evaluated once per call.
    seen = []

    def ev(t):
        seen.append(t)
        return LOG.eval(t)

    call, _ = ENTRY_POINTS[name]
    points = VALID.get(name, ((1.5,), (2.0,)))
    call(*points, g=dataclasses.replace(LOG, eval=ev))
    assert max(map(seen.count, points)) <= 1, seen


@pytest.mark.parametrize("name", BINARY)
def test_point_point_dimension_mismatch(name):
    call, _ = ENTRY_POINTS[name]
    if name == "integrate_delta_average":
        _raises(ValueError, ONE_D_ONLY, call, (1.0,), (1.0, 2.0))
    else:
        # expfam_kl is the reverse Bregman divergence, so it sees theta_p first.
        dims = "2 vs 1" if name == "expfam_kl" else "1 vs 2"
        _raises(DimensionError, f"dimension mismatch: {dims}", call, (1.0,), (1.0, 2.0))


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_point_generator_dimension_mismatch(name):
    call, _ = ENTRY_POINTS[name]
    if name == "integrate_delta_average":
        _raises(ValueError, ONE_D_ONLY, call, (1.0, 2.0), (2.0, 3.0))
    else:
        _raises(DimensionError, "generator log has dimension 1, point has 2",
                call, (1.0, 2.0), (2.0, 3.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name,slot", SLOTS)
def test_non_finite_coordinate(name, slot, bad):
    call, _ = ENTRY_POINTS[name]
    points = [(1.5,), (2.0,)]
    points[slot] = (bad,)
    _raises(DomainError, f"coordinate 0 is not finite: {bad!r}", call, *points)


@pytest.mark.parametrize("name,slot", SLOTS)
def test_out_of_domain_point(name, slot):
    call, _ = ENTRY_POINTS[name]
    points = [(1.5,), (2.0,)]
    points[slot] = (-1.0,)
    _raises(DomainError, "log: coordinate 0 value -1.0 outside (0.0, inf)", call, *points)


def test_overflowing_extrapolation_is_a_domain_error():
    # tp + delta * (tp - theta) overflows to inf; sine's domain is the whole
    # line, so only the coordinate check can reject it.
    with pytest.raises(DomainError, match=r"^coordinate 0 is not finite: inf$"):
        delta_averaged_qcvx_bregman(build_generator("sine"), -1e308, 1e308, 1.0)


def test_errors_keep_their_order():
    # The skew check precedes the point checks, the point-point dimension
    # check precedes the generator dimension check, and theta comes first.
    with pytest.raises(ValueError, match="skew alpha"):
        qcvx_jensen(LOG, (math.nan,), (1.0, 2.0), 1.5)
    with pytest.raises(DimensionError, match="dimension mismatch"):
        qcvx_bregman(LOG, (-1.0, 1.0), (1.0,))
    with pytest.raises(DomainError, match=r"value -1\.0 outside"):
        qcvx_bregman(LOG, -1.0, -2.0)
    # The weighted-mean Jensen forms check their weight before both points.
    with pytest.raises(ValueError, match="mean weight"):
        mn_jensen(LOG, ARITH, ARITH, 2.0, (1.0,), (1.0, 2.0))
    with pytest.raises(ValueError, match="mean weight"):
        power_mean_jensen(LOG, 2.0, 2.0, (1.0,), (1.0, 2.0))
    # A non-arithmetic argument mean needs 1-D points, and its kernel sees them
    # only after the generator dimension check.
    with pytest.raises(DimensionError, match="generator log has dimension 1, point has 2"):
        mn_jensen(LOG, MeanSpec.maximum(), ARITH, 0.5, (1.0, 2.0), (2.0, 1.0))
    with pytest.raises(DimensionError, match="non-arithmetic argument mean 'max'"):
        mn_jensen(build_generator({"name": "log-norm-sq", "dim": 2}), MeanSpec.maximum(),
                  ARITH, 0.5, (1.0, 2.0), (2.0, 1.0))


# --------------------------------------------------------------------------
# Raw generator work per call
# --------------------------------------------------------------------------


def _counted(spec, counts=None):
    """The generator of spec, counting its evaluations and gradients in counts."""
    g = build_generator(spec)
    counts = {"eval": 0, "grad": 0} if counts is None else counts

    def ev(t):
        counts["eval"] += 1
        return g.eval(t)

    def gr(t):
        counts["grad"] += 1
        return g.grad(t)

    return dataclasses.replace(g, eval=ev, grad=gr), counts


WORK_PER_CALL = [
    # (label, generator, call(g), evals, grads)
    ("qcvx_jensen", "log", lambda g: qcvx_jensen(g, 1.0, 2.0, 0.3), 3, 0),
    ("qcvx_bregman finite", "log", lambda g: qcvx_bregman(g, 1.0, 2.0), 2, 1),
    ("qcvx_bregman infinite", "log", lambda g: qcvx_bregman(g, 2.0, 1.0), 2, 0),
    ("delta_averaged finite", "log",
     lambda g: delta_averaged_qcvx_bregman(g, 1.0, 2.0, 0.5), 3, 0),
    ("delta_averaged infinite", "log",
     lambda g: delta_averaged_qcvx_bregman(g, 2.0, 1.0, 0.5), 2, 0),
    ("bregman", "quadratic", lambda g: bregman(g, 1.0, 2.0), 2, 1),
    ("extended_bregman finite", "log", lambda g: extended_bregman(g, 1.0, 2.0), 2, 1),
    ("mn_jensen", "quadratic", lambda g: mn_jensen(g, ARITH, ARITH, 0.3, 1.0, 2.0), 3, 0),
    ("power_mean_jensen", "quadratic", lambda g: power_mean_jensen(g, 2.0, 0.3, 1.0, 2.0), 3, 0),
    # f at both arguments, then the inverse: regula falsi, one probe and the
    # last bisection steps, where bisection alone took 52 evaluations.
    ("weighted_mean qa(log)", "log",
     lambda g: weighted_mean(MeanSpec.quasi_arithmetic(g), 1.0, 2.0, 0.3), 13, 0),
    ("weighted_mean qa(linear)", "linear",
     lambda g: weighted_mean(MeanSpec.quasi_arithmetic(g), 1.0, 2.0, 0.3), 6, 0),
    ("r_power_bregman", "quadratic", lambda g: r_power_bregman(g, 2.0, 1.0, 2.0), 2, 1),
    ("qcvx_bregman_from_kl", "quadratic",
     lambda g: qcvx_bregman_from_kl(ExpFamily(g), 2.0, 1.0), 2, 1),
    # Q is evaluated at the points once; then the target and each step cost
    # only their kernel's work: 5 steps from k = 4, 9 steps from k = 0.
    ("limit_scaled_jensen finite", "log",
     lambda g: oracles.limit_scaled_jensen(g, 1.0, 2.0, 8), 7, 1),
    ("limit_scaled_jensen infinite", "log",
     lambda g: oracles.limit_scaled_jensen(g, 2.0, 1.0, 8), 7, 0),
    ("limit_power_jensen", "sqrt", lambda g: oracles.limit_power_jensen(g, 1.0, 2.0, 8), 12, 0),
    ("limit_r_power_bregman finite", "sqrt",
     lambda g: oracles.limit_r_power_bregman(g, 1.0, 2.0, 8), 2, 10),
    ("limit_r_power_bregman infinite", "sqrt",
     lambda g: oracles.limit_r_power_bregman(g, 2.0, 1.0, 8), 2, 9),
    # 15 nodes of one panel, 2 evaluations and 1 gradient each.
    ("integrate_delta_average", "log",
     lambda g: oracles.integrate_delta_average(g, 1.0, 2.0, 0.5), 32, 15),
]


@pytest.mark.parametrize("label,gen,call,evals,grads", WORK_PER_CALL,
                         ids=[case[0] for case in WORK_PER_CALL])
def test_generator_work_per_call(label, gen, call, evals, grads):
    g, counts = _counted(gen)
    call(g)
    assert counts == {"eval": evals, "grad": grads}


GEO, P2, SQRT = MeanSpec.power(0.0), MeanSpec.power(2.0), build_generator("sqrt")
# (label, call, weight checks, finiteness checks in means): a public weighted
# mean checks its arguments once, and the Jensen forms, the power-Jensen limit
# study and the means suite run the weighted-mean kernel on checked values.
MEAN_CHECKS = [
    ("weighted_mean", lambda: weighted_mean(GEO, 1.0, 2.0, 0.3), 1, 1),
    ("mn_jensen", lambda: mn_jensen(SQRT, GEO, P2, 0.3, 1.0, 2.0), 1, 0),
    ("mn_jensen arithmetic", lambda: mn_jensen(SQRT, ARITH, ARITH, 0.3, 1.0, 2.0), 1, 0),
    ("power_mean_jensen", lambda: power_mean_jensen(SQRT, 2.0, 0.3, 1.0, 2.0), 1, 0),
    ("limit_power_jensen", lambda: oracles.limit_power_jensen(SQRT, 1.0, 2.0, 8), 0, 0),
    ("means suite", lambda: checks.run_suite("means", 25, 1), 0, 0),
]


@pytest.mark.parametrize("label,call,weights,finite", MEAN_CHECKS,
                         ids=[case[0] for case in MEAN_CHECKS])
def test_each_mean_checks_its_arguments_once(monkeypatch, label, call, weights, finite):
    # Through the public weighted_mean, mn_jensen checked its weight 3 times
    # and the finiteness of its values twice.
    counts = {"weight": 0, "finite": 0}

    def counted(key, real):
        return lambda *args: counts.__setitem__(key, counts[key] + 1) or real(*args)

    monkeypatch.setattr(means, "_validate_weight", counted("weight", means._validate_weight))
    monkeypatch.setattr(means, "_check_finite", counted("finite", means._check_finite))
    call()
    assert counts == {"weight": weights, "finite": finite}


# The statdiv functions that check their points; the suites run their kernels.
STATDIV_CHECKED = {"expfam_kl", "expfam_cross_entropy", "expfam_entropy", "qcvx_bregman_from_kl"}
# The core functions that coerce points: a suite draw checks its points itself
# and evaluates them with _eval, so none of these runs per draw.
CORE_COERCING = {"as_vector", "eval_generator", "gradient", "_points", "_pair"}


@pytest.mark.parametrize("module", ["oracles", "statdiv", "checks", "cli"])
def test_oracles_call_kernels_only(module):
    # A public divergence checks and evaluates its points again, so the oracles,
    # the KL identity, the suites and the CLI import the kernels: of the public
    # names of jensen, bregman and means only MeanSpec, and none of those
    # modules whole.  The means suite runs the weighted-mean kernel on the
    # finite floats it draws.  The suites also take no checked statdiv
    # function; the kl-quadrature suite's closed forms and densities are what
    # it tests.
    public = set(qcdiv.__all__) - {"MeanSpec"}
    source = Path(qcdiv.__file__).with_name(f"{module}.py").read_text(encoding="utf-8")
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names = {alias.name for alias in node.names}
            if node.module in ("jensen", "bregman", "means"):
                assert not names & public, (module, node.module, names & public)
            if node.module == "statdiv" and module == "checks":
                assert not names & STATDIV_CHECKED, names & STATDIV_CHECKED
            if node.module == "core" and module == "checks":
                assert not names & CORE_COERCING, names & CORE_COERCING
            assert not (node.module is None and names & {"jensen", "bregman", "means"}), module


def _counting_catalog(monkeypatch, counts):
    """Patch checks.sweep_catalog to return the catalog counting its work in counts."""
    real = checks.sweep_catalog
    monkeypatch.setattr(checks, "sweep_catalog", lambda: tuple(
        case._replace(generator=_counted(case.generator.spec, counts)[0]) for case in real()))


def test_each_suite_draw_evaluates_its_points_once(monkeypatch):
    # 9 catalog cases x 10 draws, each checked and evaluated once by core._pair:
    # 2 evaluations per draw, and 1 gradient for its one finite orientation.
    counts = {"eval": 0, "grad": 0}
    _counting_catalog(monkeypatch, counts)
    for suite in ("first-order", "one-sided-infinity"):
        counts.update(eval=0, grad=0)
        checks.run_suite(suite, 10, 1)
        assert counts == {"eval": 180, "grad": 90}, suite


@pytest.mark.parametrize("label", ["kl=cross-entropy", "qcvxB-from-kl"])
def test_each_family_draw_evaluates_its_cumulant_twice(monkeypatch, label):
    # 10 draws of the identities suite's family row alone.  Each evaluates F at
    # its two points once and takes 2 gradients: grad F(t) for both
    # cross-entropies and one in the Bregman value, or one each in the KL
    # identity and in qcvx_bregman.  Through the public statdiv functions a
    # draw made 4 evaluations and 3 or 2 gradients.
    counts = {"eval": 0, "grad": 0}
    cumulants = checks._cumulants()
    monkeypatch.setattr(checks, "_cumulants", lambda: tuple(
        case._replace(generator=_counted(case.generator.spec, counts)[0]) for case in cumulants))
    run = checks._run
    monkeypatch.setattr(checks, "_run", lambda suite, rows: run(
        suite, tuple(row for row in rows if row[2][0][0] == label)))
    assert checks.run_suite("identities", 10, 1).checked == 10
    assert counts == {"eval": 20, "grad": 20}


def test_sweep_boxes_hold_what_the_suites_skip_checking():
    # checks._two hands sample_point's tuples to core._eval without coercing
    # them: each box has its generator's dimension, is bounded and lies
    # strictly inside the domain, so every drawn coordinate is a finite float.
    # The identities suite draws its two cumulants' points the same way.
    for g, box in checks.sweep_catalog() + checks._cumulants():
        assert box.dim == g.dim and box.bounded, g.name
        for inner, outer in zip(box.intervals, g.domain.intervals):
            assert outer.lower < inner.lower < inner.upper < outer.upper, g.name


def test_sample_point_draws_one_uniform_per_coordinate_in_order():
    boxes = [box for _, box in checks.sweep_catalog()] + [Box((Interval(-2.0, 3.0),) * 5)]
    for seed in range(3):
        rng, ref = random.Random(seed), random.Random(seed)
        for box in boxes * 4:
            point = core.sample_point(rng, box)
            assert type(point) is tuple
            assert point == tuple(ref.uniform(iv.lower, iv.upper) for iv in box.intervals)
        assert rng.random() == ref.random()


def test_delta_average_coerces_only_its_arguments(monkeypatch):
    # Each integrand node runs the kernel on points _eval checks, so no node
    # coerces; the raw counts above cannot tell that from a public call per node.
    calls = []

    def counted(theta):
        calls.append(theta)
        return as_vector(theta)

    monkeypatch.setattr(core, "as_vector", counted)
    monkeypatch.setattr(oracles, "as_vector", counted)
    oracles.integrate_delta_average(LOG, 1.0, 2.0, 0.5)
    assert calls == [1.0, 2.0]


# --------------------------------------------------------------------------
# Build once: the suites build each fixed-spec generator once per process
# --------------------------------------------------------------------------


def _run_every_suite(seed):
    # 25 samples, as in a benchmark batch; which scaling wrappers a run uses
    # depends on the sample count only.
    for name in checks.SUITES:
        checks.run_suite(name, 25, seed)


def test_a_warm_suite_builds_no_generator(monkeypatch):
    # Rebuilt on every call, one batch of the five sweep suites made 77 builds.
    _run_every_suite(1)
    builds = []
    real = core._build
    monkeypatch.setattr(core, "_build", lambda spec: builds.append(spec) or real(spec))
    _run_every_suite(2)
    assert builds == []


def test_a_patched_catalog_leaves_nothing_in_the_memo(monkeypatch):
    counts = {"eval": 0, "grad": 0}
    with monkeypatch.context() as patched:
        _counting_catalog(patched, counts)
        _run_every_suite(1)
    assert counts["eval"] > 0
    seen = dict(counts)
    _run_every_suite(1)
    assert counts == seen


def test_import_builds_no_generator():
    # In a fresh interpreter: importing the package and the CLI leaves both
    # memos empty and no Generator alive, so start-up builds nothing.
    code = ("import gc, qcdiv, qcdiv.cli\n"
            "from qcdiv import checks, core\n"
            "print(checks._generator.cache_info().currsize,"
            " checks.sweep_catalog.cache_info().currsize,"
            " sum(isinstance(o, core.Generator) for o in gc.get_objects()))\n")
    src = str(Path(qcdiv.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout == "0 0 0\n"


# --------------------------------------------------------------------------
# Coercion and the domain fast path
# --------------------------------------------------------------------------


def test_fraction_is_a_one_coordinate_point():
    assert as_vector(Fraction(1, 3)) == (1.0 / 3.0,)
    assert eval_generator(LOG, Fraction(1, 2)) == math.log(0.5)
    assert float(qcvx_bregman(LOG, Fraction(1), Fraction(2))) == 0.5


def test_numpy_scalars_are_one_coordinate_points():
    np = pytest.importorskip("numpy")
    assert as_vector(np.int64(3)) == (3.0,)
    assert as_vector(np.float32(0.5)) == (0.5,)
    assert as_vector(np.float64(0.25)) == (0.25,)
    assert float(qcvx_bregman(LOG, np.int64(1), np.float32(2.0))) == 0.5
    with pytest.raises(DomainError, match="not finite"):
        as_vector(np.float32("inf"))


def test_numpy_0d_arrays_are_one_coordinate_points():
    np = pytest.importorskip("numpy")
    assert as_vector(np.array(2.5)) == (2.5,)
    assert float(qcvx_bregman(LOG, np.array(1.0), np.array(2))) == 0.5
    with pytest.raises(DomainError, match="not finite"):
        as_vector(np.array(np.nan))
    with pytest.raises(TypeError):
        as_vector(np.array(None))


@pytest.mark.parametrize("value", [1j, None])
def test_non_real_scalars_are_still_rejected(value):
    with pytest.raises(TypeError, match="not iterable"):
        as_vector(value)


BOXES = [
    Box((Interval(),)),
    Box((Interval(0.0, math.inf, lower_open=True),)),
    Box((Interval(-1.0, 2.0),)),
    Box((Interval(-1.0, 2.0, lower_open=True, upper_open=True), Interval(0.0, 1.0))),
]
EDGES = [-math.inf, -1.0, -0.5, 0.0, 1.0, 2.0, 3.0, math.inf, math.nan]


@pytest.mark.parametrize("box", BOXES, ids=str)
def test_domain_checks_match_the_intervals(box):
    # The interior fast path must agree with the per-interval definitions on
    # bounds, open and closed ends, infinities and NaN.
    for x in EDGES:
        for y in EDGES:
            theta = (x, y)[: box.dim]
            interior = all(iv.lower < c < iv.upper for iv, c in zip(box.intervals, theta))
            assert box.contains_interior(theta) == interior
            inside = all(iv.contains(c) for iv, c in zip(box.intervals, theta))
            assert (box.violation(theta) is None) == inside
