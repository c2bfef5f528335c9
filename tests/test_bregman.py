import math
import random

import pytest

from qcdiv.core import (
    DimensionError,
    DomainError,
    Generator,
    RangeError,
    bounded_box,
    build_generator,
    real_line,
)
from qcdiv.bregman import (
    bregman,
    delta_averaged_qcvx_bregman,
    extended_bregman,
    qcvx_bregman,
)
from qcdiv.checks import sample_point, sweep_catalog

MAX = 1.7976931348623157e308


class TestBregman:
    def test_quadratic(self):
        assert bregman(build_generator("quadratic"), 3, 1) == 4.0

    def test_identity_point(self):
        assert bregman(build_generator("quadratic"), 2, 2) == 0.0

    def test_negative_log(self):
        # F = -log is convex; F(2) - F(1) - (2-1) F'(1) by substitution
        F = build_generator({"negate": {"name": "log"}})
        expected = -math.log(2.0) - 0.0 - (2.0 - 1.0) * (-1.0)
        assert bregman(F, 2, 1) == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(1.0 - math.log(2.0), abs=1e-15)

    def test_multivariate(self):
        F = build_generator({"separable": [{"name": "quadratic"}, {"name": "quadratic"}]})
        assert bregman(F, (1, 2), (0, 0)) == 5.0


class TestQcvxBregman:
    def test_closed_forms(self):
        lin = build_generator("linear")
        assert float(qcvx_bregman(lin, 1, 2)) == 1.0
        assert qcvx_bregman(lin, 2, 1).is_inf
        assert float(qcvx_bregman(build_generator("log"), 1, 2)) == 0.5
        assert float(qcvx_bregman(build_generator("sqrt"), 1, 4)) == 0.75

    def test_cubic_inflection_pseudo_divergence(self):
        # distinct points, zero divergence: the gradient vanishes at 0
        v = qcvx_bregman(build_generator("cubic"), -1, 0)
        assert not v.is_inf
        assert float(v) == 0.0

    def test_identity_point_is_tie_sensitive_zero(self):
        v = qcvx_bregman(build_generator("log"), 2, 2)
        assert float(v) == 0.0
        assert v.tie_sensitive

    def test_value_tie_both_orientations_finite(self):
        quad = build_generator("quadratic")
        fwd = qcvx_bregman(quad, 1, -1)
        rev = qcvx_bregman(quad, -1, 1)
        assert float(fwd) == 4.0 and float(rev) == 4.0
        assert fwd.tie_sensitive and rev.tie_sensitive

    def test_near_tie_flagged(self):
        quad = build_generator("quadratic")
        v = qcvx_bregman(quad, 1.0, 1.0 + 1e-14)
        assert v.tie_sensitive
        assert not qcvx_bregman(quad, 1.0, 2.0).tie_sensitive

    def test_exactly_one_orientation_infinite(self):
        rng = random.Random(41)
        for case in sweep_catalog():
            Q = case.generator
            for _ in range(500):
                t = sample_point(rng, case.box)
                tp = sample_point(rng, case.box)
                if Q(t) == Q(tp):
                    continue
                assert qcvx_bregman(Q, t, tp).is_inf != qcvx_bregman(Q, tp, t).is_inf

    def test_first_order_nonnegativity(self):
        rng = random.Random(43)
        for case in sweep_catalog():
            Q = case.generator
            for _ in range(500):
                t = sample_point(rng, case.box)
                tp = sample_point(rng, case.box)
                if Q(t) > Q(tp):
                    t, tp = tp, t
                assert float(qcvx_bregman(Q, t, tp)) >= -1e-9

    def test_convex_case_lower_bound(self):
        # for convex F on the finite branch: qcvxB >= F(tp) - F(t) >= 0
        rng = random.Random(47)
        F = build_generator("quadratic")
        for _ in range(500):
            t, tp = rng.uniform(-5, 5), rng.uniform(-5, 5)
            if F(t) > F(tp):
                t, tp = tp, t
            gap = F(tp) - F(t)
            assert float(qcvx_bregman(F, t, tp)) >= gap - 1e-12 * (1 + gap)


class TestSeparable:
    """qcvx_bregman of a {"separable": [...]} generator branches on the total value."""

    QUAD2 = {"separable": [{"name": "quadratic"}, {"name": "quadratic"}]}

    def test_basic_value(self):
        whole = build_generator(self.QUAD2)
        assert float(qcvx_bregman(whole, (0, 0), (1, 1))) == 4.0

    def test_total_branch_differs_from_componentwise_sum(self):
        total = qcvx_bregman(build_generator(self.QUAD2), (1, 0), (0, 2))
        assert float(total) == 8.0
        quad = build_generator("quadratic")
        per_coord = [qcvx_bregman(quad, (x,), (y,)) for x, y in zip((1, 0), (0, 2))]
        assert any(v.is_inf for v in per_coord)  # the naive sum would be inf

    def test_identity_point(self):
        whole = build_generator(self.QUAD2)
        assert float(qcvx_bregman(whole, (2, 3), (2, 3))) == 0.0

    def test_dimension_mismatch(self):
        whole = build_generator({"separable": [{"name": "quadratic"}]})
        with pytest.raises(DimensionError):
            qcvx_bregman(whole, (1, 2), (3, 4))


class TestDeltaAveraged:
    def test_quadratic_closed_form(self):
        # 2 tp (tp - t) + delta (tp - t)^2
        v = delta_averaged_qcvx_bregman(build_generator("quadratic"), 1, 2, 0.5)
        assert float(v) == pytest.approx(2 * 2 * 1 + 0.5 * 1, abs=1e-12)
        assert float(v) == 4.5

    def test_cubic_inflection_repaired(self):
        # -delta^2 theta^3 > 0: the pseudo-divergence zero becomes strictly positive
        v = delta_averaged_qcvx_bregman(build_generator("cubic"), -1, 0, 0.5)
        assert float(v) == pytest.approx(0.25, abs=1e-15)
        assert float(v) > 0.0

    def test_linear_independent_of_delta(self):
        lin = build_generator("linear")
        for d in (0.1, 0.5, 1.0, 3.0):
            assert float(delta_averaged_qcvx_bregman(lin, 1, 2, d)) == pytest.approx(1.0, abs=1e-12)

    def test_infinite_branch(self):
        assert delta_averaged_qcvx_bregman(build_generator("quadratic"), 2, 1, 0.5).is_inf

    def test_needs_positive_ratio(self):
        with pytest.raises(ValueError):
            delta_averaged_qcvx_bregman(build_generator("quadratic"), 1, 2, 0.0)

    def test_extrapolation_must_stay_in_domain(self):
        g = Generator(1, lambda t: t[0] ** 2, bounded_box((-5, 5)), lambda t: (2 * t[0],))
        with pytest.raises(DomainError, match="extrapolated"):
            delta_averaged_qcvx_bregman(g, 1, 4, 1.0)

    def test_works_without_gradient(self):
        spiky = Generator(1, lambda t: abs(t[0]), real_line(), None, "convex")
        assert float(delta_averaged_qcvx_bregman(spiky, 1, 2, 0.5)) == pytest.approx(1.0)

    def test_multivariate_extrapolation(self):
        quad2 = build_generator({"separable": [{"name": "quadratic"}, {"name": "quadratic"}]})
        # extrap = (1,1) + 0.5*(1,1) = (1.5,1.5); (4.5 - 2)/0.5
        v = delta_averaged_qcvx_bregman(quad2, (0, 0), (1, 1), 0.5)
        assert float(v) == pytest.approx(5.0, abs=1e-12)

    def test_strict_positivity_sweep(self):
        rng = random.Random(59)
        cubic = build_generator("cubic")
        for i in range(1000):
            d = rng.uniform(0.05, 2.0)
            if i % 10 == 0:
                t, tp = rng.uniform(-4, -0.01), 0.0
            else:
                a, b = rng.uniform(-4, 4), rng.uniform(-4, 4)
                if a == b:
                    continue
                t, tp = min(a, b), max(a, b)
            assert float(delta_averaged_qcvx_bregman(cubic, t, tp, d)) > 0.0


class TestExtendedBregman:
    def test_log_value(self):
        v = extended_bregman(build_generator("log"), 1, 2)
        assert float(v) == pytest.approx(0.5 - math.log(2.0), abs=1e-15)
        assert float(v) < 0.0  # extended form may be negative off the convex cone

    def test_convex_case_equals_bregman(self):
        quad = build_generator("quadratic")
        rng = random.Random(61)
        for _ in range(300):
            t, tp = rng.uniform(-5, 5), rng.uniform(-5, 5)
            if quad(t) > quad(tp):
                t, tp = tp, t
            assert float(extended_bregman(quad, t, tp)) == bregman(quad, t, tp)

    def test_identity_point(self):
        assert float(extended_bregman(build_generator("log"), 3, 3)) == 0.0

    def test_infinite_branch(self):
        assert extended_bregman(build_generator("log"), 2, 1).is_inf


class TestLinearTermOverflow:
    """A linear term <theta - theta_p, grad F(theta_p)> outside the floats raises
    RangeError instead of turning into nan, inf or a wrong branch value."""

    def test_bregman_would_be_nan(self):
        with pytest.raises(RangeError, match="linear term leaves the floats"):
            bregman(build_generator("linear"), MAX, -MAX)

    def test_bregman_would_be_inf(self):
        with pytest.raises(RangeError):
            bregman(build_generator("quadratic"), -1e154, 1e154)

    def test_extended_bregman_would_be_untyped_nan_error(self):
        with pytest.raises(RangeError):
            extended_bregman(build_generator("linear"), -MAX, MAX)

    def test_qcvx_bregman_finite_branch_would_be_inf(self):
        # Q(theta) <= Q(theta_p) selects the finite branch; +inf there would be
        # a wrong orientation claim.
        with pytest.raises(RangeError):
            qcvx_bregman(build_generator("linear"), -MAX, MAX)

    def test_large_finite_linear_term_still_evaluates(self):
        assert bregman(build_generator("linear"), MAX / 2, -MAX / 2) == 0.0
