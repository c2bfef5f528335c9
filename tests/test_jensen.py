import math
import random

import pytest

from qcdiv.core import GeneratorClassWarning, NonPositiveError, build_generator
from qcdiv.jensen import extended_jensen, log_ratio_gap, qccv_jensen, qcvx_jensen
from qcdiv.checks import sample_point, sweep_catalog


def test_qcvx_jensen_cubic_inflection_example():
    # max{(-1)^3, 0} - ((1-a)(-1))^3 = (1-a)^3 at a = 1/2
    assert qcvx_jensen(build_generator("cubic"), -1, 0, 0.5) == pytest.approx(0.125, abs=1e-15)


def test_qcvx_jensen_identity_point():
    assert qcvx_jensen(build_generator("log"), 2, 2, 0.3) == 0.0


def test_qcvx_jensen_direct_substitution():
    # max{0, 4} - 1
    assert qcvx_jensen(build_generator("quadratic"), 0, 2, 0.5) == 3.0


def test_qccv_jensen_log():
    H = build_generator("log")
    expected = math.log((1.0 + math.e**2) / 2.0) - min(0.0, 2.0)
    v = qccv_jensen(H, 1, math.e**2, 0.5)
    assert v == pytest.approx(expected, abs=1e-14)
    assert v == pytest.approx(1.4337808304830271, abs=1e-12)


def test_qccv_jensen_identity_point():
    assert qccv_jensen(build_generator("log"), 3, 3, 0.7) == 0.0


def test_qccv_equals_qcvx_of_negation():
    rng = random.Random(5)
    for case in sweep_catalog():
        neg = build_generator({"negate": case.generator.spec})
        for _ in range(200):
            t = sample_point(rng, case.box)
            tp = sample_point(rng, case.box)
            a = rng.uniform(0.05, 0.95)
            lhs = qccv_jensen(neg, t, tp, a)
            rhs = qcvx_jensen(case.generator, t, tp, a)
            assert abs(lhs - rhs) <= 1e-14 * (1.0 + abs(rhs))


def test_log_ratio_gap_shifted_quadratic():
    Q = build_generator({"affine": {"a": 1, "b": 1, "inner": {"name": "quadratic"}}})
    assert log_ratio_gap(Q, 0, 2, 0.5) == pytest.approx(-math.log(2.0 / 5.0), abs=1e-14)


def test_log_ratio_gap_identity_point():
    Q = build_generator({"affine": {"a": 1, "b": 1, "inner": {"name": "quadratic"}}})
    assert log_ratio_gap(Q, 1, 1, 0.5) == 0.0


@pytest.mark.parametrize("spec, theta, theta_p, expected", [
    # Q(mid) / top overflows to inf: top is the subnormal sin(5e-324).
    ("sine", 5e-324, 105.40724781986427, -744.0044364346271),
    # Q(mid) / top underflows to 0: top is 1e300, Q(mid) is 5e-324.
    ({"affine": {"a": 1e300, "b": 5e-324, "inner": {"name": "quadratic"}}}, -1, 1,
     1435.215599819595),
])
def test_log_ratio_gap_outside_the_normal_floats(spec, theta, theta_p, expected):
    value = log_ratio_gap(build_generator(spec), theta, theta_p, 0.5)
    assert value == pytest.approx(expected, rel=1e-14)


# Both vanish: the midpoint value is 0.  Only the endpoint maximum vanishes:
# 1 - t^2 is 0 at both endpoints and 1 at the midpoint.
@pytest.mark.parametrize("spec, match", [
    ("quadratic", "0"),
    ({"affine": {"a": 1, "b": 1, "inner": {"negate": {"name": "quadratic"}}}},
     "endpoint maximum"),
], ids=["midpoint", "endpoints"])
def test_log_ratio_gap_vanishing_value(spec, match):
    with pytest.raises(NonPositiveError, match=match):
        log_ratio_gap(build_generator(spec), -1, 1, 0.5)


def test_extended_jensen_values():
    assert extended_jensen(build_generator("quadratic"), 0, 2, 0.5) == 1.0
    v = extended_jensen(build_generator("log"), 1, math.e**2, 0.5)
    assert v == pytest.approx(1.0 - math.log((1.0 + math.e**2) / 2.0), abs=1e-14)
    assert v < 0  # log is concave
    assert extended_jensen(build_generator("sqrt"), 4, 4, 0.25) == 0.0


def test_skew_must_be_interior():
    Q = build_generator("quadratic")
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValueError):
            qcvx_jensen(Q, 0, 1, bad)


def test_class_mismatch_warns():
    H = build_generator({"negate": {"name": "quadratic"}})  # quasiconcave
    with pytest.warns(GeneratorClassWarning):
        qcvx_jensen(H, 0, 1, 0.5)
    with pytest.warns(GeneratorClassWarning):
        qccv_jensen(build_generator("quadratic"), 0, 1, 0.5)


class TestDecompositions:
    """Rewritings of the max-gap divergence in terms of the extended Jensen gap."""

    def test_half_skew(self):
        rng = random.Random(17)
        for case in sweep_catalog():
            Q = case.generator
            for _ in range(300):
                t = sample_point(rng, case.box)
                tp = sample_point(rng, case.box)
                lhs = qcvx_jensen(Q, t, tp, 0.5)
                rhs = extended_jensen(Q, t, tp, 0.5) + 0.5 * abs(Q(t) - Q(tp))
                assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))

    def test_general_skew(self):
        rng = random.Random(19)
        for case in sweep_catalog():
            Q = case.generator
            for _ in range(300):
                t = sample_point(rng, case.box)
                tp = sample_point(rng, case.box)
                a = rng.uniform(0.05, 0.95)
                qt, qtp = Q(t), Q(tp)
                lhs = qcvx_jensen(Q, t, tp, a)
                rhs = (extended_jensen(Q, t, tp, a) + 0.5 * abs(qt - qtp)
                       + qt * (a - 0.5) + qtp * (0.5 - a))
                assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))

    def test_bounds(self):
        rng = random.Random(23)
        for case in sweep_catalog():
            Q = case.generator
            for _ in range(300):
                t = sample_point(rng, case.box)
                tp = sample_point(rng, case.box)
                a = rng.uniform(0.05, 0.95)
                qj = qcvx_jensen(Q, t, tp, a)
                assert extended_jensen(Q, t, tp, a) <= qj + 1e-12 * (1.0 + abs(qj))
                low = -0.5 * abs(Q(t) - Q(tp))
                assert extended_jensen(Q, t, tp, 0.5) >= low - 1e-12 * (1.0 + abs(low))


def test_affine_scaling():
    rng = random.Random(29)
    for case in sweep_catalog():
        for a in (0.5, 2.0, 10.0):
            for b in (-3.0, 0.0, 7.0):
                wrapped = build_generator(
                    {"affine": {"a": a, "b": b, "inner": case.generator.spec}}
                )
                for _ in range(20):
                    t = sample_point(rng, case.box)
                    tp = sample_point(rng, case.box)
                    al = rng.uniform(0.05, 0.95)
                    lhs = qcvx_jensen(wrapped, t, tp, al)
                    rhs = a * qcvx_jensen(case.generator, t, tp, al)
                    assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(rhs))


def test_symmetry_at_half():
    rng = random.Random(31)
    for case in sweep_catalog():
        Q = case.generator
        for _ in range(100):
            t = sample_point(rng, case.box)
            tp = sample_point(rng, case.box)
            assert qcvx_jensen(Q, t, tp, 0.5) == qcvx_jensen(Q, tp, t, 0.5)


def test_nonnegativity_and_indiscernibles():
    """Strictly quasiconvex catalog members give a genuine divergence."""
    rng = random.Random(37)
    for case in sweep_catalog():
        Q = case.generator
        for _ in range(10_000):
            t = sample_point(rng, case.box)
            tp = sample_point(rng, case.box)
            if t == tp:
                continue
            a = rng.uniform(0.05, 0.95)
            assert qcvx_jensen(Q, t, tp, a) > 0.0, (Q.name, t, tp, a)
        assert qcvx_jensen(Q, *(sample_point(rng, case.box),) * 2, 0.5) == 0.0
