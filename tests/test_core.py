import dataclasses
import math
import random
from pathlib import Path

import pytest

from qcdiv.core import (
    Box,
    DimensionError,
    DomainError,
    ExtReal,
    Generator,
    GradientError,
    Interval,
    SpecError,
    as_vector,
    bounded_box,
    build_generator,
    check_quasiconvex,
    eval_generator,
    gradient,
    interpolate,
)
from qcdiv.checks import sample_point, sweep_catalog


class TestExtReal:
    def test_finite_and_infinite(self):
        assert ExtReal(4.5) == 4.5
        assert ExtReal(math.inf).is_inf
        assert not ExtReal(-3.0).is_inf

    def test_ordering_and_arithmetic(self):
        # +inf dominates every finite value, additively and by comparison
        assert ExtReal(math.inf) > ExtReal(1e300)
        assert ExtReal(1.0) + ExtReal(math.inf) == math.inf
        assert math.isinf(ExtReal(math.inf) + 5.0)

    def test_rejects_nan_and_neg_inf(self):
        with pytest.raises(ValueError):
            ExtReal(math.nan)
        with pytest.raises(ValueError):
            ExtReal(-math.inf)

    def test_tie_flag(self):
        assert ExtReal(0.0, tie_sensitive=True).tie_sensitive
        assert not ExtReal(0.0).tie_sensitive

    def test_negative_zero_normalized(self):
        assert math.copysign(1.0, ExtReal(-0.0)) == 1.0


class TestInterpolate:
    def test_midpoint(self):
        assert interpolate(0, 2, 0.5) == (1.0,)

    def test_endpoints(self):
        assert interpolate((1, 2), (3, 4), 0.0) == (1.0, 2.0)
        assert interpolate((1, 2), (3, 4), 1.0) == (3.0, 4.0)

    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            interpolate(0, 1, 1.5)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            interpolate((1, 2), (1,), 0.5)

    def test_stays_in_box(self):
        box = bounded_box((-2, 5), (0.5, 3))
        rng = random.Random(3)
        for _ in range(500):
            p = sample_point(rng, box)
            q = sample_point(rng, box)
            a = rng.random()
            assert box.contains(interpolate(p, q, a))


class TestEvalGenerator:
    def test_builtin_values(self):
        assert eval_generator(build_generator("log"), 1) == 0.0
        assert eval_generator(build_generator("sqrt"), 4) == 2.0
        assert eval_generator(build_generator("cubic"), -1) == -1.0

    def test_out_of_domain_reports_coordinate(self):
        with pytest.raises(DomainError, match="coordinate 0"):
            eval_generator(build_generator("log"), -1)

    def test_boundary_of_open_domain_is_an_error(self):
        with pytest.raises(DomainError):
            eval_generator(build_generator("sqrt"), 0.0)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            eval_generator(build_generator("quadratic"), (1, 2))

    def test_as_vector_rejects_non_finite(self):
        with pytest.raises(DomainError):
            as_vector((1.0, math.inf))


class TestGradient:
    def test_analytic_values(self):
        assert gradient(build_generator("quadratic"), 3) == (6.0,)
        assert gradient(build_generator("sqrt"), 4) == (0.25,)

    def test_log_matches_central_differences(self):
        # library value (analytic 1/theta) against a locally computed stencil
        g = build_generator("log")
        h = 1e-6
        fd = (math.log(2 + h) - math.log(2 - h)) / (2 * h)
        assert gradient(g, 2)[0] == pytest.approx(fd, abs=1e-6)
        assert gradient(g, 2)[0] == 0.5

    def test_finite_differences_match_analytic_on_every_builtin(self):
        rng = random.Random(11)
        cases = [(c.generator, c.box) for c in sweep_catalog()]
        cases.append((build_generator("sine"), bounded_box((0.0, 4.0 * math.pi))))
        for g, box in cases:
            bare = dataclasses.replace(g, grad=None)
            for _ in range(100):
                t = sample_point(rng, box)
                exact = gradient(g, t)
                approx = gradient(bare, t)
                for a, b in zip(exact, approx):
                    assert abs(a - b) <= 1e-5 * (1.0 + abs(a))

    def test_boundary_is_an_error(self):
        g = Generator(1, lambda t: t[0] ** 2, bounded_box((0, 1)), None)
        with pytest.raises(GradientError):
            gradient(g, 0.0)

    def test_no_room_for_stencil_is_an_error(self):
        g = Generator(1, lambda t: t[0] ** 2, bounded_box((0, 1)), None)
        with pytest.raises(GradientError):
            gradient(g, 1e-9)


class TestBuildGenerator:
    def test_affine_wrap(self):
        g = build_generator({"affine": {"a": 2, "b": 3, "inner": {"name": "linear"}}})
        assert g(1) == 5.0
        assert gradient(g, 1) == (2.0,)

    def test_separable_sum(self):
        g = build_generator({"separable": [{"name": "quadratic"}, {"name": "quadratic"}]})
        assert g((1, 2)) == 5.0
        assert gradient(g, (1, 2)) == (2.0, 4.0)

    def test_negate(self):
        g = build_generator({"negate": {"name": "quadratic"}})
        assert g(3) == -9.0
        assert g.declared_class == "quasiconcave"

    def test_unknown_name(self):
        with pytest.raises(SpecError):
            build_generator("nosuch")

    def test_affine_requires_positive_a(self):
        with pytest.raises(SpecError):
            build_generator({"affine": {"a": 0, "b": 1, "inner": {"name": "linear"}}})

    def test_json_text_spec(self):
        g = build_generator('{"affine": {"a": 2, "b": 3, "inner": {"name": "linear"}}}')
        assert g(1) == 5.0

    def test_linear_fractional_domain(self):
        g = build_generator({"name": "linear-fractional", "a": 1, "b": 0, "c": 1, "d": 2})
        assert g(0) == 0.0
        with pytest.raises(DomainError):
            g(-2.0)

    def test_neg_gauss_dim(self):
        g = build_generator({"name": "neg-gauss", "dim": 3})
        assert g.dim == 3
        assert g((0, 0, 0)) == -1.0

    def test_positivity_claims(self):
        assert build_generator("sqrt").positive
        assert not build_generator("quadratic").positive
        wrapped = build_generator({"affine": {"a": 1, "b": 1, "inner": {"name": "quadratic"}}})
        assert wrapped.positive  # quadratic is nonnegative, so +1 makes it positive

    def test_separable_needs_1d_components(self):
        with pytest.raises(SpecError):
            build_generator({"separable": [{"name": "neg-gauss", "dim": 2}]})

    def test_exactly_one_tag(self):
        with pytest.raises(SpecError):
            build_generator({"name": "log", "negate": {"name": "log"}})


class TestCheckQuasiconvex:
    def test_catalog_is_never_refuted(self):
        for case in sweep_catalog():
            report = check_quasiconvex(case.generator, case.box, 32, 101, 7)
            assert report.verdict == "no-violation-found", case.generator.name

    def test_sine_is_refuted_with_witness(self):
        g = build_generator("sine")
        box = bounded_box((0.0, 4.0 * math.pi))
        report = check_quasiconvex(g, box, 32, 101, 7)
        assert report.refuted
        w = report.witnesses[0]
        # the triple really is non-unimodal: the middle sample dominates
        assert w.values[1] > min(w.values[0], w.values[2])

    def test_deterministic_given_seed(self):
        g = build_generator("sine")
        box = bounded_box((0.0, 4.0 * math.pi))
        a = check_quasiconvex(g, box, 8, 33, 123)
        b = check_quasiconvex(g, box, 8, 33, 123)
        assert a == b

    def test_monotone_is_quasilinear(self):
        report = check_quasiconvex(build_generator("log"), bounded_box((0.1, 10)), 32, 101, 7)
        assert report.verdict == "no-violation-found"

    def test_preconditions(self):
        g = build_generator("quadratic")
        with pytest.raises(ValueError):
            check_quasiconvex(g, bounded_box((-5, 5)), 4, 2, 0)
        with pytest.raises(ValueError):
            check_quasiconvex(g, Box((Interval(0.0, math.inf),)), 4, 11, 0)
        with pytest.raises(DomainError):
            check_quasiconvex(build_generator("log"), bounded_box((-1, 1)), 4, 11, 0)


def test_degenerate_interval_rejected():
    with pytest.raises(ValueError):
        Interval(1.0, 1.0)


def test_box_violation_message():
    box = bounded_box((0, 1))
    assert box.violation((2.0,)) is not None
    assert box.violation((0.5,)) is None


def readme_spec_examples():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Generator spec schema", 1)[1]
    block = section.split("```json", 1)[1].split("```", 1)[0]
    return [line.strip() for line in block.splitlines() if line.strip()]


SPEC_CASES = [(s, bounded_box(*[(0.5, 3.0)] * build_generator(s).dim))
              for s in readme_spec_examples()]
SPEC_CASES += [(case.generator.spec, case.box) for case in sweep_catalog()]


class TestSpecRoundTrip:
    @pytest.mark.parametrize("spec,box", SPEC_CASES, ids=lambda v: str(v)[:40])
    def test_spec_rebuilds_the_generator(self, spec, box):
        g = build_generator(spec)
        again = build_generator(g.spec)
        for field in ("name", "dim", "domain", "declared_class", "positive"):
            assert getattr(again, field) == getattr(g, field)
        rng = random.Random(11)
        for _ in range(20):
            t = sample_point(rng, box)
            assert again.eval(t) == g.eval(t)
        assert again.spec == g.spec  # canonical text is a fixed point

    def test_canonical_text(self):
        assert len(SPEC_CASES) >= 6 + len(sweep_catalog())
        assert build_generator(" log ").spec == '{"name": "log"}'
        assert build_generator({"negate": "log"}).spec == '{"negate": "log"}'
        assert build_generator('{"d": 2, "c": 1, "name": "linear-fractional"}').spec == (
            '{"c": 1, "d": 2, "name": "linear-fractional"}')

    def test_spec_nests_as_text(self):
        g = build_generator({"name": "neg-gauss", "dim": 2})
        neg = build_generator({"negate": g.spec})
        assert neg.dim == 2 and neg((0.5, 1.0)) == -g((0.5, 1.0))

    def test_direct_construction_has_no_spec(self):
        assert Generator(1, lambda t: t[0], Box((Interval(),))).spec is None
