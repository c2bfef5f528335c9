import random

import pytest

from qcdiv.core import DimensionError, NonPositiveError, RangeError, build_generator
from qcdiv.jensen import extended_jensen, qcvx_jensen
from qcdiv.means import (
    MeanSpec,
    mn_jensen,
    power_mean_bregman,
    power_mean_jensen,
    r_power_bregman,
    weighted_mean,
)
from qcdiv.bregman import qcvx_bregman
from qcdiv.checks import sample_point, sweep_catalog


class TestWeightedMean:
    def test_geometric(self):
        assert weighted_mean(MeanSpec.power(0.0), 1, 4, 0.5) == pytest.approx(2.0, abs=1e-14)

    def test_arithmetic(self):
        assert weighted_mean(MeanSpec.arithmetic(), 2, 4, 0.5) == 3.0

    @pytest.mark.parametrize("delta, exact", [(0.01, 7.96789e169), (-0.01, 1.25504e-170)])
    def test_power_ratio_outside_the_normal_floats(self, delta, exact):
        # 1e-200 / 1e200 underflows to 0 and 1e200 / 1e-200 overflows to inf.
        value = weighted_mean(MeanSpec.power(delta), 1e200, 1e-200, 0.5)
        assert value == pytest.approx(exact, rel=1e-5, abs=0.0)

    def test_max_min_ignore_weight(self):
        for a in (0.0, 0.3, 1.0):
            assert weighted_mean(MeanSpec.maximum(), 2, 5, a) == 5.0
            assert weighted_mean(MeanSpec.minimum(), 2, 5, a) == 2.0

    def test_power_one_is_arithmetic(self):
        rng = random.Random(2)
        for _ in range(200):
            x, y = rng.uniform(0.1, 9), rng.uniform(0.1, 9)
            a = rng.random()
            lhs = weighted_mean(MeanSpec.power(1.0), x, y, a)
            rhs = weighted_mean(MeanSpec.arithmetic(), x, y, a)
            assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_weighted_harmonic(self):
        # ((0.5/2 + 0.5/4))^-1 computed by hand
        assert weighted_mean(MeanSpec.power(-1.0), 2, 4, 0.5) == pytest.approx(
            1.0 / (0.5 / 2.0 + 0.5 / 4.0), rel=1e-14
        )

    def test_huge_exponents_do_not_overflow(self):
        assert weighted_mean(MeanSpec.power(2.0**20), 1.0, 5.0, 0.5) == pytest.approx(5.0, rel=1e-5)
        assert weighted_mean(MeanSpec.power(-(2.0**20)), 1.0, 5.0, 0.5) == pytest.approx(1.0, rel=1e-5)

    def test_quasi_arithmetic_identity_and_log(self):
        qa_id = MeanSpec.quasi_arithmetic(build_generator("linear"))
        qa_log = MeanSpec.quasi_arithmetic(build_generator("log"))
        rng = random.Random(4)
        for _ in range(100):
            x, y = rng.uniform(0.1, 9), rng.uniform(0.1, 9)
            a = rng.random()
            arith = weighted_mean(MeanSpec.arithmetic(), x, y, a)
            geom = weighted_mean(MeanSpec.power(0.0), x, y, a)
            assert abs(weighted_mean(qa_id, x, y, a) - arith) <= 1e-10 * (1 + arith)
            assert abs(weighted_mean(qa_log, x, y, a) - geom) <= 1e-10 * (1 + geom)

    def test_positivity_required(self):
        with pytest.raises(NonPositiveError):
            weighted_mean(MeanSpec.power(2.0), -1, 4, 0.5)
        with pytest.raises(NonPositiveError):
            weighted_mean(MeanSpec.quasi_arithmetic(build_generator("log")), 0, 4, 0.5)

    def test_weight_range(self):
        with pytest.raises(ValueError):
            weighted_mean(MeanSpec.arithmetic(), 1, 2, 1.5)

    def test_decreasing_f_is_rejected(self):
        decf = build_generator({"negate": {"name": "linear"}})
        with pytest.raises(NonPositiveError):
            weighted_mean(MeanSpec.quasi_arithmetic(decf), 1, 2, 0.5)

    def test_in_betweenness(self):
        rng = random.Random(6)
        kinds = [MeanSpec.arithmetic(), MeanSpec.power(-3.0), MeanSpec.power(0.0),
                 MeanSpec.power(2.5), MeanSpec.maximum(), MeanSpec.minimum(),
                 MeanSpec.quasi_arithmetic(build_generator("log"))]
        for _ in range(2000):
            x, y = rng.uniform(0.05, 20), rng.uniform(0.05, 20)
            a = rng.random()
            for spec in kinds:
                m = weighted_mean(spec, x, y, a)
                assert min(x, y) <= m <= max(x, y)

    def test_power_monotone_in_exponent(self):
        rng = random.Random(8)
        for _ in range(500):
            x, y = rng.uniform(0.05, 20), rng.uniform(0.05, 20)
            d1, d2 = sorted((rng.uniform(-5, 5), rng.uniform(-5, 5)))
            p1 = weighted_mean(MeanSpec.power(d1), x, y, 0.5)
            p2 = weighted_mean(MeanSpec.power(d2), x, y, 0.5)
            assert p1 <= p2 + 1e-12 * (1 + p2)

    def test_limit_to_max(self):
        rng = random.Random(10)
        for _ in range(200):
            x = rng.uniform(0.5, 5.0)
            y = x * rng.uniform(0.1, 10.0)
            top = max(x, y)
            errs = [abs(weighted_mean(MeanSpec.power(2.0**k), x, y, 0.5) - top)
                    for k in range(11)]
            assert all(b <= a + 1e-15 * top for a, b in zip(errs, errs[1:]))
            assert errs[-1] <= 1e-3 * top


class TestMnJensen:
    def test_arithmetic_pair_is_ordinary_jensen(self):
        A = MeanSpec.arithmetic()
        assert mn_jensen(build_generator("quadratic"), A, A, 0.5, 0, 2) == 1.0

    def test_arithmetic_max_is_qcvx_jensen(self):
        A, M = MeanSpec.arithmetic(), MeanSpec.maximum()
        rng = random.Random(12)
        for case in sweep_catalog():
            Q = case.generator
            for _ in range(100):
                t = sample_point(rng, case.box)
                tp = sample_point(rng, case.box)
                a = rng.uniform(0.05, 0.95)
                assert mn_jensen(Q, A, M, a, t, tp) == qcvx_jensen(Q, t, tp, a)

    def test_arithmetic_pair_matches_extended_jensen(self):
        A = MeanSpec.arithmetic()
        rng = random.Random(13)
        for case in sweep_catalog():
            F = case.generator
            for _ in range(100):
                t = sample_point(rng, case.box)
                tp = sample_point(rng, case.box)
                a = rng.uniform(0.05, 0.95)
                lhs = mn_jensen(F, A, A, a, t, tp)
                rhs = extended_jensen(F, t, tp, a)
                assert abs(lhs - rhs) <= 1e-12 * (1 + abs(rhs))

    def test_reflexive(self):
        spec = MeanSpec.power(2.0)
        F = build_generator({"affine": {"a": 1, "b": 1, "inner": {"name": "quadratic"}}})
        assert mn_jensen(F, MeanSpec.arithmetic(), spec, 0.3, 2, 2) == 0.0

    def test_non_arithmetic_argument_mean_needs_1d(self):
        F = build_generator({"separable": [{"name": "quadratic"}, {"name": "quadratic"}]})
        with pytest.raises(DimensionError):
            mn_jensen(F, MeanSpec.power(2.0), MeanSpec.maximum(), 0.5, (1, 2), (3, 4))

    def test_geometric_argument_mean(self):
        # M = geometric on arguments, N = arithmetic on values, F = log:
        # log is (G, A)-affine so the gap vanishes
        F = build_generator("log")
        G, A = MeanSpec.power(0.0), MeanSpec.arithmetic()
        rng = random.Random(14)
        for _ in range(100):
            t, tp = rng.uniform(0.2, 8), rng.uniform(0.2, 8)
            a = rng.random()
            assert mn_jensen(F, G, A, a, (t,), (tp,)) == pytest.approx(0.0, abs=1e-12)


class TestPowerMeanJensen:
    def test_delta_one_is_arithmetic_jensen(self):
        F = build_generator({"affine": {"a": 1, "b": 1, "inner": {"name": "quadratic"}}})
        assert power_mean_jensen(F, 1.0, 0.5, 0, 2) == pytest.approx(1.0, rel=1e-13)

    def test_large_delta_approaches_qcvx_jensen(self):
        F = build_generator({"affine": {"a": 1, "b": 1, "inner": {"name": "quadratic"}}})
        target = qcvx_jensen(F, 0, 2, 0.5)
        assert power_mean_jensen(F, 1000.0, 0.5, 0, 2) == pytest.approx(target, abs=1e-2)

    def test_reflexive(self):
        F = build_generator({"affine": {"a": 1, "b": 1, "inner": {"name": "quadratic"}}})
        assert power_mean_jensen(F, 7.0, 0.5, 2, 2) == 0.0

    def test_needs_positive_values(self):
        with pytest.raises(NonPositiveError):
            power_mean_jensen(build_generator("linear"), 2.0, 0.5, -1, 1)


class TestPowerMeanBregman:
    def test_unit_exponents_reduce_to_bregman(self):
        # B_F(3:1) = 9 - 1 - 2*2
        assert power_mean_bregman(build_generator("quadratic"), 1, 1, 3, 1) == 4.0

    def test_mixed_exponents_substitution(self):
        # (F(2)^2 - F(1)^2) / (2 F(1)) - (2 - 1) * F'(1) for F = x^2
        expected = (16.0 - 1.0) / 2.0 - 1.0 * 2.0
        assert power_mean_bregman(build_generator("quadratic"), 1, 2, 2, 1) == expected

    def test_reflexive(self):
        assert power_mean_bregman(build_generator("quadratic"), 2, 3, 1.7, 1.7) == 0.0

    def test_zero_exponent_rejected(self):
        with pytest.raises(ValueError):
            power_mean_bregman(build_generator("quadratic"), 0, 1, 2, 1)

    def test_zero_generator_value_at_p(self):
        # cubic(9.08e-172) underflows to 0, and 0^3 is 0, not a division by zero.
        value = power_mean_bregman(build_generator("cubic"), 1, 3, 9.08e-172, 9.86e-05)
        q = 9.86e-05
        assert value == pytest.approx(-q**9 / (3 * q**6) + q * 3 * q * q, rel=1e-12, abs=0.0)

    def test_zero_generator_value_at_q(self):
        F = build_generator({"affine": {"a": 1, "b": -2, "inner": {"name": "linear"}}})
        with pytest.raises(ZeroDivisionError):
            power_mean_bregman(F, 1, 2, 1, 2)

    def test_needs_positive_points(self):
        with pytest.raises(NonPositiveError):
            power_mean_bregman(build_generator("quadratic"), 1, 1, -3, 1)

    def test_overflowing_power_falls_back_to_the_log_domain(self):
        # F(p)^40 = 1e400 overflows, but the first term is only about 2.5e47.
        value = power_mean_bregman(build_generator("quadratic"), 1, 40, 1e5, 31622.776601683792)
        assert value == pytest.approx(2.5000000000000066e47, rel=1e-12)

    def test_overflowing_value_raises_range_error(self):
        with pytest.raises(RangeError):
            power_mean_bregman(build_generator("quadratic"), 1, 2000, 10, 1)

    def test_overflowing_second_term_raises_range_error(self):
        with pytest.raises(RangeError):
            power_mean_bregman(build_generator("quadratic"), 2000, 1, 10, 1)

    def test_overflowing_power_of_equal_values_is_zero(self):
        assert power_mean_bregman(build_generator("quadratic"), 1, 2, 1e100, 1e100) == 0.0


class TestRPowerBregman:
    def test_r_one_is_bregman(self):
        v = r_power_bregman(build_generator("quadratic"), 1, 3, 1)
        assert float(v) == pytest.approx(4.0, abs=1e-12)

    def test_large_r_finite_branch(self):
        quad = build_generator("quadratic")
        target = float(qcvx_bregman(quad, 1, 2))
        v = r_power_bregman(quad, 1e4, 1, 2)
        assert abs(float(v) - target) <= 1e-3

    def test_large_r_infinite_branch(self):
        v = r_power_bregman(build_generator("quadratic"), 1e4, 2, 1)
        assert v.is_inf

    def test_r_below_one_rejected(self):
        with pytest.raises(ValueError):
            r_power_bregman(build_generator("quadratic"), 0.5, 1, 2)

    def test_needs_positive_values(self):
        with pytest.raises(NonPositiveError):
            r_power_bregman(build_generator("linear"), 2, -1, 1)
