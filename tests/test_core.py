import copy
import dataclasses
import inspect
import json
import math
import pickle
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    real_line,
)
from qcdiv.core import _nesting, _segment_violation
from qcdiv.bregman import bregman, qcvx_bregman
from qcdiv.checks import sample_point, sweep_catalog
from qcdiv.jensen import qcvx_jensen
from qcdiv.statdiv import ExpFamily


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
        # Only the branch rule sets the flag: ExtReal(value) takes none.
        assert list(inspect.signature(ExtReal).parameters) == ["value"]
        assert ExtReal(0.0).tie_sensitive is False
        for args, kwargs in [((1.0, True), {}), ((1.0, False), {}),
                             ((1.0,), {"tie_sensitive": True}), ((1.0,), {"tie_sensitive": 1})]:
            with pytest.raises(TypeError):
                ExtReal(*args, **kwargs)

    def test_a_copy_keeps_the_value_and_the_flag(self):
        # copy and pickle rebuild an ExtReal through ExtReal(value), then set
        # its slot.  Protocols 0 and 1 cannot pickle a slotted float.
        quadratic = build_generator("quadratic")
        tie = qcvx_bregman(quadratic, 1.0, -1.0)  # Q(1) = Q(-1): a tie at distinct points
        assert tie.tie_sensitive
        copies = [copy.copy, copy.deepcopy, *(lambda v, p=p: pickle.loads(pickle.dumps(v, p))
                                              for p in range(2, pickle.HIGHEST_PROTOCOL + 1))]
        for value in (tie, qcvx_bregman(quadratic, 2.0, 1.0), ExtReal(2.5)):
            for make in copies:
                twin = make(value)
                assert ((type(twin), float.hex(twin), twin.tie_sensitive)
                        == (ExtReal, float.hex(value), value.tie_sensitive)), (value, make)

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

    # Text once iterated: "12" read as (1.0, 2.0), b"12" as (49.0, 50.0), and
    # "1.5" raised float's bare message about '.'.
    @pytest.mark.parametrize("text", ["12", "1.5", "", b"12", bytearray(b"12")],
                             ids=["str", "decimal str", "empty str", "bytes", "bytearray"])
    def test_text_is_no_point(self, text):
        kind = type(text).__name__
        with pytest.raises(TypeError, match=f"^a point is a real or a sequence of reals, not {kind}$"):
            as_vector(text)
        with pytest.raises(TypeError, match=f"not {kind}$"):
            eval_generator(build_generator('{"name": "log-norm-sq", "dim": 2}'), text)

    def test_none_and_numeric_strings_in_a_list_keep_their_outcomes(self):
        with pytest.raises(TypeError, match="^'NoneType' object is not iterable$"):
            as_vector(None)
        assert as_vector(["1", "2"]) == (1.0, 2.0)


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

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError,
                           match="^generator quadratic has dimension 1, point has 2$"):
            gradient(build_generator("quadratic"), (1, 2))


class TestOverflow:
    """A generator or gradient that overflows raises a typed error, not OverflowError."""

    def test_value_overflow_is_a_domain_error(self):
        cubic = build_generator("cubic")
        with pytest.raises(DomainError,
                           match=r"^cubic evaluated to non-finite value inf at \(1e\+308,\)$"):
            eval_generator(cubic, 1e308)
        with pytest.raises(DomainError, match="non-finite value inf"):
            qcvx_jensen(cubic, 1e200, 1e-3, 0.5)

    def test_gradient_overflow_is_a_gradient_error(self):
        g = build_generator({"name": "linear-fractional", "c": 1, "d": 2})
        with pytest.raises(GradientError, match="overflowed"):
            gradient(g, 1e200)
        with pytest.raises(GradientError, match="overflowed"):
            qcvx_bregman(g, 1.0, 1e200)

    def test_finite_difference_overflow_is_a_gradient_error(self):
        g = Generator(1, lambda t: t[0] ** 3, real_line())
        with pytest.raises(GradientError, match="overflowed"):
            gradient(g, 1e200)


class TestNonFiniteGradient:
    """A gradient that is NaN or infinite raises GradientError instead of leaking."""

    HUGE = -1.7976931348623157e308

    def test_nan_gradient_in_bregman(self):
        # 2x exp(-x^2) is (-inf) * 0 = NaN at the float limit.
        with pytest.raises(GradientError, match=r"not finite .*\(nan,\)"):
            bregman(build_generator("neg-gauss"), 0.2146, self.HUGE)

    def test_infinite_gradient_in_bregman(self):
        g = build_generator({"affine": {"a": 1e-300, "b": 0, "inner": {"name": "log"}}})
        with pytest.raises(GradientError, match=r"not finite .*\(inf,\)"):
            bregman(g, 1.4378e-09, 5e-324)

    def test_nan_gradient_in_qcvx_bregman(self):
        with pytest.raises(GradientError, match="not finite"):
            qcvx_bregman(build_generator("neg-gauss"), 0.5, self.HUGE)

    def test_finite_difference_branch(self):
        # Float multiplication overflows to inf without raising: inf - inf is NaN.
        g = Generator(1, lambda t: t[0] * t[0] * 1e300, real_line())
        with pytest.raises(GradientError, match=r"not finite .*\(nan,\)"):
            gradient(g, 1e5)


class TestGeneratorFields:
    def test_name_and_spec_are_keyword_only(self):
        f = lambda t: t[0]
        with pytest.raises(TypeError):
            Generator(1, f, real_line(), None, "convex", True, "x")
        g = Generator(1, f, real_line(), None, "convex", name="x")
        assert (g.name, g.declared_class, g.spec) == ("x", "convex", None)

    @pytest.mark.parametrize("dim, domain, cls, error, message", [
        (0, real_line(), "convex", ValueError, "generator dimension must be >= 1"),
        (2, real_line(), "convex", DimensionError, "domain dimension 1 != generator dimension 2"),
        (1, real_line(), "concave", ValueError, "unknown declared class 'concave'"),
        # The dimension is a count: a bool, text or NaN is not a whole number.
        (True, real_line(), "convex", ValueError,
         "generator dimension must be a whole number, got True"),
        ("1", real_line(), "convex", ValueError,
         "generator dimension must be a whole number, got '1'"),
        (math.nan, real_line(), "convex", ValueError,
         "generator dimension must be a whole number, got nan"),
    ])
    def test_invalid_fields(self, dim, domain, cls, error, message):
        with pytest.raises(error, match="^" + re.escape(message) + "$"):
            Generator(dim, lambda t: t[0], domain, None, cls)

    def test_a_whole_float_dimension_is_stored_as_an_int(self):
        g = Generator(2.0, lambda t: t[0], real_line(2))
        assert type(g.dim) is int and g.dim == 2

    def test_replace_keeps_the_other_fields(self):
        g = build_generator("log")
        h = dataclasses.replace(g, eval=lambda t: 0.0, grad=None)
        assert (h.name, h.spec, h.domain) == (g.name, g.spec, g.domain)
        assert h.eval((2.0,)) == 0.0 and h.grad is None


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

    def test_separable_needs_1d_components(self):
        with pytest.raises(SpecError):
            build_generator({"separable": [{"name": "neg-gauss", "dim": 2}]})

    def test_exactly_one_tag(self):
        with pytest.raises(SpecError):
            build_generator({"name": "log", "negate": {"name": "log"}})

    def test_linear_fractional_negative_c_domain(self):
        g = build_generator({"name": "linear-fractional", "a": 1, "b": 0, "c": -1, "d": 2})
        assert g.domain == Box((Interval(-math.inf, 2.0, upper_open=True),))
        assert (g(0), g(1)) == (0.0, 1.0)
        with pytest.raises(DomainError):
            g(2.0)


AFFINE_NEEDS = 'affine spec needs {"a": >0, "b": real, "inner": spec}'
SEPARABLE_NEEDS = "separable spec needs a non-empty list of 1-D specs"
ONE_TAG = "generator spec needs exactly one of name/affine/negate/separable, got "


@pytest.mark.parametrize("spec, message", [
    ('{"name": ', "invalid generator spec JSON: Expecting value: line 1 column 9 (char 8)"),
    ([{"name": "log"}], "generator spec must be a dict or name, got list"),
    ({"negate": 5}, "generator spec must be a dict or name, got int"),
    ({"name": "log", "negate": "log"}, ONE_TAG + "['name', 'negate']"),
    ({}, ONE_TAG + "[]"),
    ({"affine": {"a": 2}}, AFFINE_NEEDS),
    ({"affine": {"b": 1, "inner": "log"}}, AFFINE_NEEDS),
    ({"affine": "log"}, AFFINE_NEEDS),
    ({"affine": {"a": 0, "inner": "log"}}, "affine wrap requires a > 0, got 0.0"),
    ({"affine": {"a": -1, "inner": "log"}}, "affine wrap requires a > 0, got -1.0"),
    ({"separable": []}, SEPARABLE_NEEDS),
    ({"separable": {"name": "log"}}, SEPARABLE_NEEDS),
    ({"separable": ["log", "log-norm-sq"]},
     "separable component 'log-norm-sq' must be 1-D, has dim 2"),
    ("nosuch", "unknown generator name 'nosuch'"),
    ({"name": ["log"]}, "unknown generator name ['log']"),
    ({"name": "linear-fractional", "c": 0, "d": 0}, "linear-fractional with c=0 requires d > 0"),
    ({"name": "linear-fractional", "c": 0, "d": -1}, "linear-fractional with c=0 requires d > 0"),
    ({1: 2}, ONE_TAG + "[1]"),
    ({1: 2, "x": 3}, ONE_TAG + "[1, 'x']"),  # mixed key types sort by their text
    ({"x": 3, 2: 1, "b": 0, None: 1}, ONE_TAG + "[2, None, 'b', 'x']"),
])
def test_spec_error_messages(spec, message):
    with pytest.raises(SpecError) as info:
        build_generator(spec)
    assert type(info.value) is SpecError and str(info.value) == message


@pytest.mark.parametrize("spec, message", [
    ({"name": "neg-gauss", "dims": 3},
     "spec 'neg-gauss' takes only the keys ['name', 'dim'], not 'dims'"),
    ({"name": "log", "dim": 2}, "spec 'log' takes only the keys ['name'], not 'dim'"),
    ({"negate": "log", "extra": 1}, "spec 'negate' takes only the keys ['negate'], not 'extra'"),
    ({"affine": {"a": 2, "inner": "log", "c": 1}},
     "affine object takes only the keys ['a', 'b', 'inner'], not 'c'"),
    ({"name": "neg-gauss", "dim": 2.7}, "neg-gauss dim must be a whole number >= 1, got 2.7"),
    ({"name": "log-norm-sq", "dim": 0}, "log-norm-sq dim must be a whole number >= 1, got 0"),
    ({"name": "neg-gauss", "dim": "x"}, "neg-gauss dim must be a whole number >= 1, got 'x'"),
])
def test_unknown_keys_and_non_whole_dims_are_spec_errors(spec, message):
    with pytest.raises(SpecError) as info:
        build_generator(spec)
    assert str(info.value) == message


def test_a_whole_float_dim_is_a_dim():
    g = build_generator({"name": "neg-gauss", "dim": 2.0})
    assert (g.dim, g.spec) == (2, '{"dim": 2.0, "name": "neg-gauss"}')


def _depth(value) -> int:
    """How deep a decoded JSON value nests its lists and objects."""
    if isinstance(value, dict):
        value = list(value.values())
    return 1 + max(map(_depth, value), default=0) if isinstance(value, list) else 0


_JSON_TEXT = st.text(alphabet='[]{}"\\ab\n\u00e9', max_size=6)
_JSON = st.recursive(st.none() | st.integers() | _JSON_TEXT,
                     lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(_JSON_TEXT, inner, max_size=3), max_leaves=40)


@settings(derandomize=True, deadline=None, max_examples=500)
@given(_JSON, st.booleans())
def test_the_depth_rule_counts_the_nesting_the_decoder_sees(value, ascii_only):
    # Brackets, quotes and backslashes inside strings are not nesting.
    text = json.dumps(value, ensure_ascii=ascii_only)
    assert _nesting(text) == _depth(value)


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
        with pytest.raises(ValueError, match="^n_lines must be >= 1$"):
            check_quasiconvex(g, bounded_box((-5, 5)), 0, 11, 0)

    def test_a_box_may_end_on_a_closed_domain_end(self):
        g = Generator(1, lambda t: t[0] ** 2, bounded_box((0, 1)), None, "convex", name="sq")
        report = check_quasiconvex(g, bounded_box((0, 1)), 4, 5, 0)
        assert report.verdict == "no-violation-found"


def _quasiconvex(g, box):
    return check_quasiconvex(g, box, 4, 5, 0)


def _convex(g, box):
    return ExpFamily(g).validate_convexity(box, 4, 5, 0)


@pytest.mark.parametrize("sampler", [_quasiconvex, _convex])
class TestSegmentValues:
    """Sampled segments evaluate through the checked kernel: no raw overflow, no inf."""

    @pytest.mark.parametrize("name", ["cubic", "quadratic"])
    def test_overflowing_values_are_domain_errors(self, sampler, name):
        with pytest.raises(DomainError, match=f"^{name} evaluated to non-finite value inf"):
            sampler(build_generator(name), bounded_box((-1e200, 1e200)))

    def test_infinite_endpoint_is_reported_as_inf(self, sampler):
        with pytest.raises(DomainError, match=r"^coordinate 0 is not finite: inf$"):
            sampler(build_generator("quadratic"), bounded_box((-1e308, 1e308)))


# rng.uniform can return either end of a box, open or not: (0, 1] would draw
# sqrt's excluded 0.  A box of another dimension is outside the domain too.
@pytest.mark.parametrize("sampler", [_quasiconvex, _convex])
@pytest.mark.parametrize("box", [
    Box((Interval(0.0, 1.0, lower_open=True),)),
    Box((Interval(0.0, 1.0, lower_open=True, upper_open=True),)),
    bounded_box((1, 2), (1, 2)),
], ids=["(0, 1]", "(0, 1)", "2-D"])
def test_a_box_whose_closed_hull_leaves_the_domain_is_a_domain_error(sampler, box):
    with pytest.raises(DomainError, match="^box is not inside the domain of sqrt$"):
        sampler(build_generator("sqrt"), box)


class TestSegmentViolation:
    ALPHAS = [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_rise_before_the_minimum(self):
        w = _segment_violation((0.0,), (1.0,), self.ALPHAS, [5, 3, 4, 1, 6], 0.0)
        assert w.alphas == (0.25, 0.5, 0.75)
        assert w.values == (3, 4, 1)

    def test_fall_after_the_minimum(self):
        w = _segment_violation((0.0,), (1.0,), self.ALPHAS, [6, 1, 4, 3, 5], 0.0)
        assert w.alphas == (0.25, 0.5, 0.75)
        assert w.values == (1, 4, 3)

    def test_witness_text(self):
        w = _segment_violation((0.0,), (1.0,), self.ALPHAS, [5, 3, 4, 1, 6], 0.0)
        assert str(w) == ("segment (0.0,) -> (1.0,): alpha=0.25 value=3, "
                          "alpha=0.5 value=4, alpha=0.75 value=1")

    def test_unimodal_has_no_witness(self):
        assert _segment_violation((0.0,), (1.0,), self.ALPHAS, [5, 3, 1, 4, 6], 0.0) is None


class TestBoundedBox:
    @pytest.mark.parametrize("bounds,bad", [
        (((0, math.inf),), "inf"),
        (((-math.inf, 0),), "-inf"),
        (((math.nan, 1),), "nan"),
        (((1, math.nan),), "nan"),
        (((0, 1), (2, math.inf)), "inf"),
    ])
    def test_a_bound_that_is_not_finite_is_an_error(self, bounds, bad):
        with pytest.raises(ValueError, match=f"^bounded_box bounds must be finite, got {bad}$"):
            bounded_box(*bounds)

    def test_finite_bounds_of_infinite_width_stay_valid(self):
        box = bounded_box((-1e308, 1e308))
        assert box.bounded
        assert math.isinf(box.intervals[0].upper - box.intervals[0].lower)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.lists(st.tuples(st.floats(), st.floats()), min_size=1, max_size=3))
    def test_every_box_it_returns_is_bounded(self, bounds):
        try:
            box = bounded_box(*bounds)
        except ValueError:
            assert not all(math.isfinite(x) and lo < hi for lo, hi in bounds for x in (lo, hi))
            return
        assert box.bounded
        assert [(iv.lower, iv.upper) for iv in box.intervals] == bounds


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
        for field in ("name", "dim", "domain", "declared_class"):
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
