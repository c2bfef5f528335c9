import math
import random
import warnings
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import pins
from qcdiv import means
from qcdiv.core import (DimensionError, GeneratorClassWarning, NonPositiveError, RangeError,
                        _counted, build_generator)
from qcdiv.jensen import extended_jensen, qcvx_jensen
from qcdiv.means import (
    MeanSpec,
    mn_jensen,
    power_mean_bregman,
    power_mean_jensen,
    r_power_bregman,
    weighted_mean,
)
from qcdiv.bregman import bregman, qcvx_bregman
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

    @pytest.mark.parametrize("delta, x, y", [(1e-16, 1.0, 4.0), (-1e-16, 1.0, 4.0),
                                             (1e-20, 1e-300, 1.0), (1e-12, 1.0, 4.0),
                                             (5e-324, 1.0, 4.0)])
    def test_a_small_exponent_gives_the_geometric_mean(self, delta, x, y):
        # Taking log(s) / delta of s = sum of weighted ratio powers divides the
        # rounding of s by delta: 4.0 for the first case, 1.0 for the third.
        geo = weighted_mean(MeanSpec.power(0.0), x, y, 0.5)
        tol = 1e-13 + abs(delta) * math.log(x / y) ** 2  # bounds P_delta / P_0 - 1
        assert weighted_mean(MeanSpec.power(delta), x, y, 0.5) == pytest.approx(geo, rel=tol)

    @pytest.mark.parametrize("delta", [-1.0, -(2.0**-9)])
    def test_a_mean_past_exp_of_its_normaliser_stays_finite(self, delta):
        # The mean is 1e308 = 0.25 * exp(710.6): exp alone overflows.
        value = weighted_mean(MeanSpec.power(delta), 1e308, 0.25, 0.0)
        assert value == pytest.approx(1e308, rel=1e-12)

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

    @pytest.mark.parametrize("delta", [1000.0, -1000.0])
    @pytest.mark.parametrize("x, y", [(1.0, 1e-10), (1e-10, 1.0)])
    def test_power_mean_at_an_end_weight_is_that_argument(self, delta, x, y):
        # The other argument's (ratio)^delta underflows to 0, so the weighted
        # sum is 0 exactly when the dominating argument has weight 0.
        assert weighted_mean(MeanSpec.power(delta), x, y, 0.0) == x
        assert weighted_mean(MeanSpec.power(delta), x, y, 1.0) == y

    @pytest.mark.parametrize("x, y", [(0.5, 3.0), (3.0, 0.5)])
    def test_quasi_arithmetic_at_an_end_weight_is_that_argument(self, x, y):
        qa = MeanSpec.quasi_arithmetic(build_generator("log"))
        assert weighted_mean(qa, x, y, 0.0) == x
        assert weighted_mean(qa, x, y, 1.0) == y

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

    @pytest.mark.parametrize("a", [0.1, 0.5, 0.9])
    def test_quasi_arithmetic_of_tiny_arguments_is_not_their_midpoint(self, a):
        # Bisection to an absolute width stopped at once on arguments below it.
        qa = MeanSpec.quasi_arithmetic(build_generator("log"))
        geom = 1e-20 * 4.0**a
        assert weighted_mean(qa, 1e-20, 4e-20, a) == pytest.approx(geom, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("x, y, geom", [(1e-300, 1.0, 1e-150),
                                            (1e308, 1.7e308, math.sqrt(1.7) * 1e308)])
    def test_quasi_arithmetic_across_the_float_range(self, x, y, geom):
        # The midpoint of two huge ends must not overflow to the upper end.
        qa = MeanSpec.quasi_arithmetic(build_generator("log"))
        assert weighted_mean(qa, x, y, 0.5) == pytest.approx(geom, rel=1e-13, abs=0.0)

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


SMALL = 2.0**-10  # the largest |delta| the power mean sums as expm1 terms
NEAR_SMALL = st.sampled_from([s * d for s in (1, -1) for d in (
    SMALL, math.nextafter(SMALL, 0), math.nextafter(SMALL, 1), 2 * SMALL, 1e-300, 0.0)])
POSITIVE = st.floats(5e-324, 1.7e308)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(POSITIVE, POSITIVE, st.floats(0.0, 1.0),
       st.lists(NEAR_SMALL | st.floats(-3 * SMALL, 3 * SMALL), min_size=2, max_size=2))
def test_the_power_mean_stays_monotone_in_delta_across_its_switch(x, y, a, deltas):
    d1, d2 = sorted(deltas)
    p1 = weighted_mean(MeanSpec.power(d1), x, y, a)
    p2 = weighted_mean(MeanSpec.power(d2), x, y, a)
    assert p1 <= p2 * (1 + 1e-12)


# Catalog generators increasing on the positive reals (linear-fractional below
# 2), each with the largest argument at which it stays finite.
INCREASING = [("linear", 1e308), ("quadratic", 1e154), ("cubic", 1e102), ("sqrt", 1e308),
              ("log", 1e308), ("abs", 1e308), ("neg-gauss", 1e308),
              ('{"affine": {"a": 2, "b": 1, "inner": "log"}}', 1e308),
              ('{"name": "linear-fractional", "c": -1, "d": 2}', 1.9999999999999998)]
WEIGHTS = st.sampled_from([0.0, 1.0, 5e-324, 1.0 - 2.0**-53]) | st.floats(0.0, 1.0)


# quadratic, abs and neg-gauss are increasing on the positive arguments drawn
# here, but not declared quasilinear, so their means warn.
@pytest.mark.filterwarnings("ignore::qcdiv.GeneratorClassWarning")
@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.sampled_from(INCREASING), st.data(), WEIGHTS)
def test_the_quasi_arithmetic_target_rounds_only_within_the_bracket(case, data, a):
    # (1-a) f(x) + a f(y) is a convex combination of f(x) and f(y): rounding can
    # move it past the bracket [f(lo), f(hi)], but never by 1e-12 (1 + |end|).
    spec, top = case
    f = build_generator(spec)
    x, y = data.draw(st.floats(5e-324, top)), data.draw(st.floats(5e-324, top))
    fx, fy = f(x), f(y)
    flo, fhi = (fx, fy) if x <= y else (fy, fx)
    target = (1.0 - a) * fx + a * fy
    assert flo - 1e-12 * (1.0 + abs(flo)) <= target <= fhi + 1e-12 * (1.0 + abs(fhi))
    assert min(x, y) <= weighted_mean(MeanSpec.quasi_arithmetic(f), x, y, a) <= max(x, y)


def ref_qa_inverse(f, target: float, lo: float, hi: float,
                   flo: float, fhi: float) -> float:
    """Solve f(z) = target for z in [lo, hi], where flo, fhi = f(lo), f(hi).

    Bisects until the midpoint rounds to an end, that is down to adjacent floats.
    """
    fe = f.eval
    if not flo <= fhi:
        raise NonPositiveError(
            f"quasi-arithmetic generator {f.name or '?'} is not increasing on [{lo}, {hi}]"
        )
    # The target is a convex combination of flo and fhi, so past either end
    # it is only rounding.
    if target <= flo:
        return lo
    if target >= fhi:
        return hi
    # Halving each end first keeps the midpoint of two huge ends finite.
    while True:
        mid = 0.5 * lo + 0.5 * hi
        if mid <= lo or mid >= hi:
            return mid
        if fe((mid,)) < target:
            lo = mid
        else:
            hi = mid


def _counted_qa(spec):
    """The quasi-arithmetic mean of spec's generator, and the tally of its evaluations."""
    count = {"eval": 0, "grad": 0}
    return MeanSpec.quasi_arithmetic(_counted(build_generator(spec), count)), count


# Increasing generators with the largest argument at which each stays finite
# (past it the call raises before any inversion).
SAME_FLOAT = [("log", 1e300), ("linear", 1e300), ("sqrt", 1e300), ("cubic", 5e102),
              ('{"affine": {"a": 2, "b": 1, "inner": "log"}}', 1e300)]


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.sampled_from(SAME_FLOAT), st.data(), WEIGHTS)
def test_the_quasi_arithmetic_inverse_returns_the_bisection_float(case, data, a):
    # ref_qa_inverse is the bisection the secant inverse replaced, verbatim.
    # Both run on one generator that counts its evaluations.
    spec, top = case
    qa, count = _counted_qa(spec)
    arg = (st.floats(1e-300, top) | st.sampled_from([1e-300, 1.0, top])
           | st.floats(-300.0, math.log10(top)).map(lambda e: 10.0**e))
    x = data.draw(arg)
    near = st.sampled_from([x, math.nextafter(x, 0.0), math.nextafter(x, math.inf)])
    y = data.draw(near | arg)
    value = weighted_mean(qa, x, y, a)
    evals, count["eval"] = count["eval"], 0
    with mock.patch.object(means, "_qa_inverse", ref_qa_inverse):
        ref = weighted_mean(qa, x, y, a)
    assert value.hex() == ref.hex()
    # Past bisection's count: 8 slow secant steps, the probe, and a step each
    # phase can lose to where its bracket ends fall.
    assert evals <= count["eval"] + 11


@pytest.mark.parametrize("spec, per_mean", [("log", 13), ("sqrt", 13), ("cubic", 13),
                                            ("linear", 6)])
def test_the_quasi_arithmetic_inverse_costs_about_ten_evaluations(spec, per_mean):
    # Arguments as the means suite draws them; per_mean counts f at x and y
    # too.  Bisection alone made about 54 evaluations per mean here.
    qa, count = _counted_qa(spec)
    rng = random.Random(0)
    for _ in range(500):
        weighted_mean(qa, rng.uniform(0.05, 20.0), rng.uniform(0.05, 20.0), rng.random())
    assert count["eval"] <= 500 * per_mean


def test_a_quasi_arithmetic_f_not_declared_quasilinear_warns():
    # sin z = 0.3784 has three roots in [0.1, 7]: the mean is the one the
    # inverse finds, as before, and the warning says it may not be unique.
    with pytest.warns(GeneratorClassWarning, match=r"^quasi-arithmetic mean with unknown "
                      r"generator sine: the mean may be one of several roots$"):
        qa = MeanSpec.quasi_arithmetic(build_generator("sine"))
    assert weighted_mean(qa, 0.1, 7.0, 0.5) == 6.671263273583268
    with pytest.warns(GeneratorClassWarning, match="with convex generator quadratic"):
        MeanSpec("quasi-arithmetic", f=build_generator("quadratic"))


@pytest.mark.parametrize("spec", ["log", "sqrt", "linear", "cubic", {"negate": "log"},
                                  {"affine": {"a": 2, "inner": "sqrt"}},
                                  {"name": "linear-fractional", "c": 1}])
def test_a_quasilinear_f_does_not_warn(spec):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        MeanSpec.quasi_arithmetic(build_generator(spec))


def test_the_cli_warns_on_a_quasi_arithmetic_sine_and_exits_as_before():
    run = pins.run_cli(["eval", "--div", "mn-jensen", "--gen", "quadratic", "--alpha", "0.5",
                        "--mean-m", "qa:sine", "--mean-n", "arithmetic", "--theta", "0.1",
                        "--theta-prime", "7"])
    assert run["exit"] == 0
    assert run["warnings"] == [["GeneratorClassWarning", "quasi-arithmetic mean with unknown "
                                "generator sine: the mean may be one of several roots", 1]]


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
    @pytest.mark.parametrize("delta", [1000.0, -1000.0])
    @pytest.mark.parametrize("t, tp", [(4.0, 1e-20), (1e-20, 4.0)])
    def test_an_end_weight_gives_zero(self, delta, t, tp):
        # At alpha = 0 or 1 the mean of the F values is F at that end, which
        # is also the interpolated point.  sqrt's values 2 and 1e-10 are far
        # enough apart that the other end's ratio^delta underflows to 0.
        F = build_generator("sqrt")
        N = MeanSpec.power(delta)
        for a in (0.0, 1.0):
            assert power_mean_jensen(F, delta, a, t, tp) == 0.0
            assert mn_jensen(F, MeanSpec.arithmetic(), N, a, t, tp) == 0.0

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


def _hex_or_error(call):
    try:
        return float(call()).hex()
    except ValueError as e:  # every qcdiv error type is one
        return type(e)


# power_mean_jensen is the (arithmetic, P_delta) comparative Jensen gap.
FOLD_GENERATORS = ["sqrt", "log", "quadratic", "cubic", "neg-gauss", "linear", "sine",
                   '{"affine": {"a": 1e308, "b": 0, "inner": "sine"}}',
                   '{"name": "log-norm-sq", "dim": 2}']
FOLD_EDGES = [0.0, 5e-324, 1.0, 1e300, -1.0, math.nan, math.inf, -math.inf]


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.sampled_from(FOLD_GENERATORS), st.data())
def test_power_mean_jensen_is_mn_jensen_with_an_arithmetic_argument_mean(spec, data):
    F = build_generator(spec)
    coord = st.floats(-4.0, 4.0) | st.floats(0.05, 1e10) | st.sampled_from(FOLD_EDGES)
    t, tp = (tuple(data.draw(coord) for _ in range(F.dim)) for _ in range(2))
    delta = data.draw(st.floats(-8.0, 8.0) | st.sampled_from([1000.0, -1000.0] + FOLD_EDGES))
    a = data.draw(st.floats(0.0, 1.0) | st.sampled_from(FOLD_EDGES))
    A = MeanSpec.arithmetic()
    assert (_hex_or_error(lambda: power_mean_jensen(F, delta, a, t, tp))
            == _hex_or_error(lambda: mn_jensen(F, A, MeanSpec.power(delta), a, t, tp)))


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
        with pytest.raises(RangeError, match=r"^power_mean_bregman: F\(q\) = 0$"):
            power_mean_bregman(F, 1, 2, 1, 2)

    def test_zero_generator_value_at_p_with_a_negative_exponent(self):
        with pytest.raises(RangeError, match=r"^F\(p\)\^delta2: zero base with exponent -1"):
            power_mean_bregman(build_generator("cubic"), 1, -1, 9.08e-172, 9.86e-05)

    def test_underflowing_denominator_falls_back_to_the_log_domain(self):
        # 3 * F(q)^2 = 3e-400 underflows to 0, but the value is about 3.3e249.
        p, q = Fraction(1e-25), Fraction(1e-100)
        exact = (p**6 - q**6) / (3 * q**4) - (p - q) * 2 * q
        value = power_mean_bregman(build_generator("quadratic"), 1, 3, 1e-25, 1e-100)
        assert value == pytest.approx(float(exact), rel=1e-12)

    def test_underflowing_denominator_of_negative_values_raises_range_error(self):
        # neg-gauss(1) < 0, and 1e300 * F(q)^(1e300 - 1) underflows to 0; the
        # log-domain form covers positive values only.
        with pytest.raises(RangeError, match=r"^power gap: d \* y\^\(d-1\) underflows to 0"):
            power_mean_bregman(build_generator("neg-gauss"), 1.0, 1e300, 1.0, 1.0)

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

    @pytest.mark.parametrize("theta,theta_p,expected",
                             [(20.0, 30.0, 600.0), (30.0, 20.0, math.inf)])
    def test_both_powers_overflow(self, theta, theta_p, expected):
        # r * log F(theta) and (r - 1) * log F(theta_p) are both inf, so the
        # log term was inf - inf = NaN and the value a stray ValueError.
        v = r_power_bregman(build_generator("quadratic"), 2.0**1023, theta, theta_p)
        assert float(v) == expected
        assert float(v) == float(qcvx_bregman(build_generator("quadratic"), theta, theta_p))

    def test_r_below_one_rejected(self):
        with pytest.raises(ValueError):
            r_power_bregman(build_generator("quadratic"), 0.5, 1, 2)

    def test_needs_positive_values(self):
        with pytest.raises(NonPositiveError):
            r_power_bregman(build_generator("linear"), 2, -1, 1)

    def test_an_overflowing_linear_term_raises_bregmans_error(self):
        # At r = 1 the divergence is bregman's, and so is its linear-term check.
        cubic = build_generator("cubic")
        with pytest.raises(RangeError) as expected:
            bregman(cubic, 1.0, 5.6e102)
        with pytest.raises(RangeError) as raised:
            r_power_bregman(cubic, 1.0, 1.0, 5.6e102)
        assert str(raised.value) == str(expected.value) == "the linear term leaves the floats: -inf"


# The 1-D sweep generators but neg-gauss, whose values r_power_bregman refuses.
POSITIVE_SWEEP = [c for c in sweep_catalog()
                  if c.generator.dim == 1 and c.generator.name != "neg-gauss"]


@settings(derandomize=True, deadline=None, max_examples=300)
@given(case=st.sampled_from(POSITIVE_SWEEP), seed=st.integers(0, 2**32), tie=st.integers(0, 9))
def test_r_power_bregman_at_r_inf_is_qcvx_bregman(case, seed, tie):
    # inf * log F(theta) - inf * log F(theta_p) is NaN; r = inf takes its limit
    # on both branches, and at a tie (one draw in ten, tie == 0) the finite one.
    F, rng = case.generator, random.Random(seed)
    t = sample_point(rng, case.box)
    tp = t if tie == 0 else sample_point(rng, case.box)
    assume(F(t) > 0.0 and F(tp) > 0.0)
    assert (float.hex(r_power_bregman(F, math.inf, t[0], tp[0]))
            == float.hex(qcvx_bregman(F, t, tp)))


NAN = float("nan")


class TestNanExponents:
    """A NaN exponent is an argument error, reported before any point check."""

    def test_power_mean_spec(self):
        with pytest.raises(ValueError, match="power mean exponent delta must be a number, got nan"):
            MeanSpec.power(NAN)
        with pytest.raises(ValueError, match="got nan"):
            MeanSpec("power", delta=NAN)
        assert MeanSpec.power(math.inf).delta == math.inf

    @pytest.mark.parametrize("theta", [1.0, NAN, -1.0])
    def test_power_mean_jensen(self, theta):
        with pytest.raises(ValueError, match="power mean exponent delta must be a number, got nan"):
            power_mean_jensen(build_generator("sqrt"), NAN, 0.3, theta, 2.0)

    @pytest.mark.parametrize("theta", [1.0, NAN, -1.0])
    @pytest.mark.parametrize("delta1, delta2", [(NAN, 2.0), (2.0, NAN), (NAN, NAN)])
    def test_power_mean_bregman(self, delta1, delta2, theta):
        with pytest.raises(ValueError, match=r"delta1, delta2 must be numbers, got \("):
            power_mean_bregman(build_generator("quadratic"), delta1, delta2, theta, 2.0)

    def test_a_zero_exponent_is_reported_first(self):
        with pytest.raises(ValueError, match="must be nonzero"):
            power_mean_bregman(build_generator("quadratic"), 0.0, NAN, 1.0, 2.0)

    @pytest.mark.parametrize("theta", [1.0, NAN, -1.0])
    def test_r_power_bregman(self, theta):
        with pytest.raises(ValueError, match="r must be >= 1, got nan"):
            r_power_bregman(build_generator("sqrt"), NAN, theta, 2.0)
