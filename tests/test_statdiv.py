import math
import random
import re
import sys

import pytest

from qcdiv.core import (
    DomainError,
    PreconditionError,
    RangeError,
    _tie_sensitive,
    bounded_box,
    build_generator,
    real_line,
)
from qcdiv.bregman import qcvx_bregman
from qcdiv.oracles import integrate, kl_quadrature
from qcdiv.statdiv import (
    ExpFamily,
    NestedUniform,
    PowerNested,
    expfam_cross_entropy,
    expfam_entropy,
    expfam_kl,
    kl_nested_uniform,
    kl_power_nested,
    qcvx_bregman_from_kl,
)


def gaussian_family():
    """Unit-variance Gaussian natural-parameter family: cumulant theta^2 / 2."""
    return ExpFamily(build_generator(
        {"affine": {"a": 0.5, "b": 0.0, "inner": {"name": "quadratic"}}}
    ))


class TestNestedUniformKL:
    def test_forward(self):
        assert float(kl_nested_uniform(1, 2)) == 1.0

    def test_reverse_is_infinite(self):
        assert kl_nested_uniform(2, 1).is_inf

    def test_identity(self):
        v = kl_nested_uniform(1.5, 1.5)
        assert float(v) == 0.0 and v.tie_sensitive

    def test_positive_parameters_required(self):
        with pytest.raises(ValueError):
            kl_nested_uniform(0.0, 1.0)

    def test_equals_qcvx_bregman_of_identity_generator(self):
        lin = build_generator("linear")
        rng = random.Random(3)
        for _ in range(300):
            t, tp = rng.uniform(0.1, 4), rng.uniform(0.1, 4)
            kl = kl_nested_uniform(t, tp)
            qb = qcvx_bregman(lin, t, tp)
            assert kl.is_inf == qb.is_inf
            if not kl.is_inf:
                assert float(kl) == float(qb)


class TestPowerNestedKL:
    def test_forward(self):
        assert float(kl_power_nested(2, 1, 1.5)) == 1.0

    def test_reverse_is_infinite(self):
        assert kl_power_nested(3, 2, 1).is_inf

    def test_identity(self):
        assert float(kl_power_nested(2.5, 2, 2)) == 0.0

    def test_exponent_must_exceed_one(self):
        with pytest.raises(ValueError):
            kl_power_nested(1.0, 1, 2)

    def test_is_scaled_identity_generator_divergence(self):
        lin = build_generator("linear")
        rng = random.Random(5)
        for _ in range(300):
            alpha = rng.uniform(1.2, 5)
            t, tp = rng.uniform(0.1, 4), rng.uniform(0.1, 4)
            kl = kl_power_nested(alpha, t, tp)
            qb = qcvx_bregman(lin, t, tp)
            if kl.is_inf:
                assert qb.is_inf
            else:
                assert float(kl) == pytest.approx(alpha * float(qb), rel=1e-14)


class TestDensities:
    def test_uniform_pdf(self):
        p = NestedUniform(1.0)
        assert p.pdf(1.0) == pytest.approx(math.exp(-1.0))
        assert p.pdf(-0.5) == 0.0
        assert p.pdf(math.e + 1) == 0.0

    @pytest.mark.parametrize("density", [NestedUniform(1.0), PowerNested(2.0, 1.0)])
    def test_pdf_is_zero_on_the_open_support_ends(self, density):
        assert density.pdf(0.0) == 0.0
        assert density.pdf(math.exp(density.theta)) == 0.0

    @pytest.mark.parametrize("x", [0.0, -0.0, -1.0, -math.inf, math.nan, math.inf])
    def test_power_log_pdf_outside_zero_to_inf_is_a_domain_error(self, x):
        # math.log(x) raised a bare "math domain error" for x <= 0.
        message = f"log_pdf needs x in (0, e^theta) = (0.0, {math.exp(1.0)!r}), got {x!r}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            PowerNested(2.5, 1.0).log_pdf(x)

    @pytest.mark.parametrize("density", [NestedUniform(1.0), PowerNested(2.5, 1.0)])
    @pytest.mark.parametrize("x", [-5.0, math.exp(1.0), 10.0, math.nan])
    def test_log_pdf_outside_the_support_is_a_domain_error(self, density, x):
        # The density is 0 there; log_pdf returned -theta or a finite log.
        assert density.pdf(x) == 0.0
        with pytest.raises(DomainError, match=r"^log_pdf needs x in \(0, e\^theta\)"):
            density.log_pdf(x)

    def test_log_pdf_past_the_largest_support_needs_only_x_finite(self):
        # e^theta is inf for theta past about 709.78: support() raises, the density does not.
        p = PowerNested(2.0, 800.0)
        assert p.log_pdf(1e300) == math.log(2.0) + math.log(1e300) - 1600.0
        assert p.pdf(1.0) == 0.0 and NestedUniform(800.0).log_pdf(sys.float_info.max) == -800.0
        with pytest.raises(DomainError, match=r"= \(0\.0, inf\), got inf$"):
            p.log_pdf(math.inf)

    @pytest.mark.parametrize("alpha, theta, x", [(2.5, 700.0, 1e300), (2.5, 700.0, 2e205),
                                                 (100.0, 7.2, 1290.0), (100.0, 7.2, 1300.0)])
    def test_power_pdf_past_the_direct_product_uses_the_log_form(self, alpha, theta, x):
        # x^(alpha-1) raised OverflowError (1e300, 1300) or alpha * x^(alpha-1)
        # overflowed to inf, which the exponential turned into inf or NaN.
        p = PowerNested(alpha, theta)
        assert p.pdf(x) == math.exp(p.log_pdf(x))

    def test_power_pdf_keeps_the_direct_product(self):
        rng = random.Random(13)
        for _ in range(200):
            p = PowerNested(rng.uniform(1.2, 4), rng.uniform(0.3, 2.5))
            x = rng.uniform(0.0, math.exp(p.theta))
            assert p.pdf(x) == p.alpha * x ** (p.alpha - 1.0) * math.exp(-p.theta * p.alpha)

    def test_power_pdf_normalizes(self):
        rng = random.Random(7)
        for _ in range(20):
            q = PowerNested(rng.uniform(1.2, 4), rng.uniform(0.3, 2.5))
            lo, hi = q.support()
            assert integrate(q.pdf, lo, hi).value == pytest.approx(1.0, abs=1e-10)

    def test_uniform_pdf_normalizes(self):
        rng = random.Random(9)
        for _ in range(20):
            p = NestedUniform(rng.uniform(0.3, 3))
            lo, hi = p.support()
            assert integrate(p.pdf, lo, hi).value == pytest.approx(1.0, abs=1e-10)

    def test_quadrature_matches_closed_forms(self):
        rng = random.Random(11)
        for _ in range(20):
            a, b = rng.uniform(0.2, 3), rng.uniform(0.2, 3)
            t, tp = min(a, b), max(a, b)
            assert float(kl_quadrature(NestedUniform(t), NestedUniform(tp))) == pytest.approx(
                float(kl_nested_uniform(t, tp)), abs=1e-6
            )
            alpha = rng.uniform(1.2, 4)
            assert float(kl_quadrature(PowerNested(alpha, t), PowerNested(alpha, tp))) == pytest.approx(
                float(kl_power_nested(alpha, t, tp)), abs=1e-6
            )

    def test_quadrature_detects_support_violation(self):
        assert kl_quadrature(NestedUniform(2), NestedUniform(1)).is_inf

    @pytest.mark.parametrize("t, tp", [(400.0, 401.0), (700.0, 709.0)])
    def test_quadrature_survives_an_underflowing_density(self, t, tp):
        # exp(-theta * alpha) is 0.0 here, so the density itself underflows.
        assert PowerNested(2.0, t).pdf(1.0) == 0.0
        value = kl_quadrature(PowerNested(2.0, t), PowerNested(2.0, tp))
        assert float(value) == pytest.approx(float(kl_power_nested(2.0, t, tp)), rel=1e-9)

    def test_string_parameters_are_floats(self):
        assert float(kl_quadrature(NestedUniform("2"), NestedUniform("3"))) == pytest.approx(1.0)


class TestSupportRange:
    @pytest.mark.parametrize("p, q", [(NestedUniform(800.0), NestedUniform(900.0)),
                                      (PowerNested(2.0, 800.0), PowerNested(2.0, 900.0))],
                             ids=["uniform", "power"])
    def test_support_leaving_the_floats_is_a_range_error(self, p, q):
        with pytest.raises(RangeError, match=r"theta = 800\.0$"):
            p.support()
        with pytest.raises(RangeError, match=r"theta = 800\.0$"):
            kl_quadrature(p, q)

    def test_largest_finite_support(self):
        assert NestedUniform(709.0).support() == (0.0, math.exp(709.0))
        assert math.isfinite(PowerNested(2.0, 709.78).support()[1])

    def test_closed_form_needs_no_support(self):
        assert float(kl_nested_uniform(800.0, 900.0)) == 100.0


class TestExpFamily:
    def test_cross_entropy_values(self):
        fam = gaussian_family()
        assert expfam_cross_entropy(fam, 0, 1) == 0.5
        assert expfam_cross_entropy(fam, 1, 1) == -0.5

    def test_cross_entropy_at_same_point_is_entropy(self):
        fam = gaussian_family()
        rng = random.Random(13)
        for _ in range(100):
            t = rng.uniform(-3, 3)
            assert expfam_cross_entropy(fam, t, t) == expfam_entropy(fam, t)

    def test_entropy_values(self):
        fam = gaussian_family()
        assert expfam_entropy(fam, 1) == -0.5
        assert expfam_entropy(fam, 0) == 0.0
        assert expfam_entropy(fam, 2) == -2.0

    def test_kl_values(self):
        fam = gaussian_family()
        assert expfam_kl(fam, 0, 1) == 0.5
        assert expfam_kl(fam, 1, 1) == 0.0
        assert expfam_kl(fam, 2, 1) == 0.5

    def test_kl_is_cross_minus_entropy(self):
        fam = gaussian_family()
        rng = random.Random(17)
        for _ in range(300):
            t, tp = rng.uniform(-3, 3), rng.uniform(-3, 3)
            lhs = expfam_kl(fam, t, tp)
            rhs = expfam_cross_entropy(fam, t, tp) - expfam_entropy(fam, t)
            assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))

    def test_convexity_validation(self):
        assert gaussian_family().validate_convexity(bounded_box((-4, 4)))
        wiggly = ExpFamily(build_generator("sine"))
        assert not wiggly.validate_convexity(bounded_box((0, 2 * math.pi)))

    def test_convexity_validation_preconditions(self):
        # The same preconditions as check_quasiconvex.
        with pytest.raises(ValueError, match="bounded box"):
            ExpFamily(build_generator("quadratic")).validate_convexity(real_line())
        with pytest.raises(DomainError, match="box is not inside the domain of log"):
            ExpFamily(build_generator("log")).validate_convexity(bounded_box((-1, 1)))
        with pytest.raises(ValueError, match="n_points"):
            gaussian_family().validate_convexity(bounded_box((-4, 4)), n_points=2)


class TestExpFamilyRange:
    def test_kl_with_overflowing_linear_term_raises(self):
        # The reverse Bregman divergence's linear term overflows; the parent
        # returned -inf here.
        fam = ExpFamily(build_generator("log"))
        with pytest.raises(RangeError):
            expfam_kl(fam, 1e-300, 5412340926.110595)


class TestQcvxBregmanFromKl:
    def test_example_value(self):
        fam = gaussian_family()
        v = qcvx_bregman_from_kl(fam, 2, 1)
        assert float(v) == 2.0
        assert float(qcvx_bregman(fam.F, 1, 2)) == 2.0

    def test_identity_point(self):
        assert float(qcvx_bregman_from_kl(gaussian_family(), 1, 1)) == 0.0

    def test_precondition(self):
        with pytest.raises(PreconditionError):
            qcvx_bregman_from_kl(gaussian_family(), 1, 2)

    def test_agrees_with_qcvx_bregman(self):
        fam = gaussian_family()
        rng = random.Random(19)
        for _ in range(300):
            t, tp = rng.uniform(-3, 3), rng.uniform(-3, 3)
            if fam.F(tp) > fam.F(t):
                t, tp = tp, t
            lhs = float(qcvx_bregman_from_kl(fam, t, tp))
            rhs = float(qcvx_bregman(fam.F, tp, t))
            assert abs(lhs - rhs) <= 1e-10 * (1 + abs(rhs))


class TestTiePolicy:
    """The KL closed forms flag ties exactly as identity-generator qcvx_bregman does."""

    @pytest.mark.parametrize("k", list(range(9)) + [10**6])
    def test_near_tie_flags_match_qcvx_bregman(self, k):
        lin = build_generator("linear")
        rng = random.Random(100 + k)
        for _ in range(200):
            t = rng.uniform(0.1, 4.0)
            tp = t * (1.0 + k * sys.float_info.epsilon)
            for a, b in ((t, tp), (tp, t)):
                expected = qcvx_bregman(lin, a, b).tie_sensitive
                assert expected == (k < 10**6)
                assert kl_nested_uniform(a, b).tie_sensitive == expected
                assert kl_power_nested(2.5, a, b).tie_sensitive == expected

    @pytest.mark.parametrize("a, b", [(1.0, math.inf), (math.inf, 1.0), (1.7e308, math.inf),
                                      (-1.0, -math.inf), (math.inf, math.inf)])
    def test_an_infinite_value_is_no_near_tie(self, a, b):
        # The 1e-12 band around an infinite value is infinite, so inf - 1.0
        # used to fall inside it.
        assert not _tie_sensitive(a, b)

    def test_an_infinite_theta_p_is_no_near_tie(self):
        for v in (kl_nested_uniform(1.0, math.inf), kl_power_nested(2.0, 1.0, math.inf)):
            assert float(v) == math.inf and not v.tie_sensitive
