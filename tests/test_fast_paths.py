"""The per-call fast paths against the versions they replaced, and the rules they keep.

``core.as_vector``, ``_eval``, ``_gradient``, ``_lerp``, ``ExtReal.__new__`` and
the three branch kernels of ``bregman`` were rewritten to cost less per call.
``_eval``, ``_gradient``, ``_lerp``, ``sample_point``, ``bregman._linear_term``,
the gradient of the affine wrapper and the built-in ``neg-gauss`` then took a
scalar path for one-coordinate points;
``LimitStudy.errors``, ``LimitStudy.unbounded_trend`` and ``core._fmt`` were
rewritten to state their rule once, from ``ExtReal``'s order and its zero rule.
``Generator`` was a frozen dataclass and is now a ``_Frozen`` record, so that
no import builds a dataclass.  Then ``bregman._branch`` built its value
through ``core._ext_real`` instead of the type call, ``_tie_sensitive`` wrote
``max`` as a conditional expression, ``_qcvx_bregman``'s finite branch became
``0.0 - _linear_term(...)``, and ``_sq_norm`` and the n-D ``neg-gauss`` and
``log-norm-sq`` gradients took the norm once per call.
The reference versions below are the previous code, kept verbatim; the
properties check that the new code gives the same value (compared as
``float.hex``, so the sign of a zero counts), the same ``tie_sensitive`` flag,
or the same exception type and message.  Four differences are deliberate: text
is no point (``as_vector`` raises ``TypeError``), ``_fmt(-inf)`` prints
``-inf``, a value no entry point produces, a generator's dimension is a
count (a bool, text or NaN raises ``ValueError``; a whole float becomes an
int), and a gradient whose length is not the generator's dimension raises
``GradientError``.  The guards at the end keep the rules the rewrite must not
break: ``Generator.__call__`` reaches the module global ``eval_generator`` at
call time, the tie tolerance and ``Box._bounds`` are read only in ``core``,
every tie flag comes from ``_tie_sensitive``, a one-coordinate point makes no
comprehension frame and no ``sum`` call in each function that compares a
length or a dimension with 1 to pick a formula, a branch value is built
without the type call or ``max``, and an n-D built-in gradient takes its norm
once.
"""

import ast
import dataclasses
import itertools
import math
import numbers
import random
import sys
from operator import mul, sub
from dataclasses import KW_ONLY, dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.vendor.pretty import pretty

from qcdiv import core
from qcdiv.oracles import UNBOUNDED_FACTOR, LimitStudy
from qcdiv.bregman import (
    bregman,
    extended_bregman,
    qcvx_bregman,
    _branch,
    _bregman,
    _delta_averaged_qcvx_bregman,
    _extended_bregman,
    _linear_term,
    _qcvx_bregman,
)
from qcdiv.statdiv import ExpFamily, expfam_cross_entropy
from qcdiv.core import (
    FD_STEP,
    Box,
    DimensionError,
    DomainError,
    ExtReal,
    Generator,
    GradientError,
    Interval,
    Vector,
    _NEGATED_CLASS,
    _check_finite,
    build_generator,
    eval_generator,
)

SRC = Path(__file__).resolve().parent.parent / "src" / "qcdiv"
FAST = settings(derandomize=True, deadline=None, max_examples=200)


# --------------------------------------------------------------------------
# The previous versions, verbatim
# --------------------------------------------------------------------------


def ref_as_vector(theta):
    """Coerce a ``numbers.Real`` or a sequence of reals to a finite coordinate tuple."""
    # ints, floats and tuples are decided before the slower ABC check.
    if isinstance(theta, (int, float)) or (
        type(theta) is not tuple and isinstance(theta, numbers.Real)
    ):
        coords = (float(theta),)
    else:
        try:
            coords = tuple(map(float, theta))
        except TypeError:
            # A 0-d array (numpy) is a scalar that neither iterates nor
            # registers as numbers.Real.
            if getattr(theta, "shape", None) != ():
                raise
            coords = (float(theta),)
    if not coords:
        raise DimensionError("parameter vector must have at least one coordinate")
    _check_finite(coords)
    return coords


def ref_eval(g, t):
    """g at t, which must lie in the domain and give a finite value."""
    # A strictly interior point is finite; any other point, such as a derived
    # point that overflowed, gets the coordinate check of as_vector first.
    domain = g.domain
    if not domain.contains_interior(t):
        _check_finite(t)
        problem = domain.violation(t)
        if problem is not None:
            raise DomainError(f"{g.name or 'generator'}: {problem}")
    try:
        value = float(g.eval(t))
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise DomainError(
            f"{g.name or 'generator'} evaluated to non-finite value {value} at {t}"
        )
    return value


def ref_gradient(g, t):
    if not g.domain.contains_interior(t):
        raise GradientError(
            f"gradient of {g.name or 'generator'} requires an interior point, got {t}"
        )
    try:
        if g.grad is not None:
            grad = tuple(map(float, g.grad(t)))
        else:
            out = []
            for i, x in enumerate(t):
                h = FD_STEP * max(1.0, abs(x))
                hi = t[:i] + (x + h,) + t[i + 1 :]
                lo = t[:i] + (x - h,) + t[i + 1 :]
                if not (g.domain.contains(hi) and g.domain.contains(lo)):
                    raise GradientError(
                        f"finite differences for {g.name or 'generator'} need room "
                        f"{x} +/- {h} inside the domain at coordinate {i}"
                    )
                out.append((g.eval(hi) - g.eval(lo)) / (2.0 * h))
            grad = tuple(out)
    except OverflowError:
        raise GradientError(f"gradient of {g.name or 'generator'} overflowed at {t}") from None
    if not all(map(math.isfinite, grad)):
        raise GradientError(f"gradient of {g.name or 'generator'} is not finite at {t}: {grad}")
    return grad


def ref_lerp(t, tp, a):
    return tuple((1.0 - a) * x + a * y for x, y in zip(t, tp))


def ref_sample_point(rng, box):
    """A uniform point of a bounded box: one ``rng.uniform`` per coordinate, in order."""
    return tuple([rng.uniform(lo, hi) for lo, hi in box._bounds])


def ref_linear_term(F, grad, t, tp):
    """<theta - theta_p, grad F(theta_p)>; RangeError when it overflows."""
    g = grad(F, tp)
    return core._in_range(sum(map(mul, map(sub, t, tp), g)), "the linear term")


def ref_affine_grad(a, ig):
    return lambda t: tuple(a * c for c in ig(t))


def ref_sq_norm(t):
    return sum(x * x for x in t)


def ref_neg_gauss():
    """The built-in neg-gauss's eval and grad at any dim."""
    return (lambda t: -math.exp(-ref_sq_norm(t)),
            lambda t: tuple(2.0 * x * math.exp(-ref_sq_norm(t)) for x in t))


def ref_log_norm_sq_grad(t):
    return tuple(2.0 * x / ref_sq_norm(t) for x in t)


def ref_tie_sensitive(a, b):
    # The band is infinite when either value is, and a finite and an
    # infinite value are never a near-tie.
    return abs(a - b) <= core._TIE_REL_TOL * max(abs(a), abs(b)) < math.inf


class RefExtReal(float):
    __slots__ = ("tie_sensitive",)

    def __new__(cls, value: float, tie_sensitive: bool = False) -> "RefExtReal":
        v = float(value)
        if math.isnan(v) or v == -math.inf:
            raise ValueError(f"extended real must be finite or +inf, got {v!r}")
        if v == 0.0:
            v = 0.0  # never hand out -0.0
        self = super().__new__(cls, v)
        self.tie_sensitive = bool(tie_sensitive)
        return self


def ref_errors(self) -> tuple:
    out = []
    for v in self.values:
        vinf = math.isinf(v)
        if vinf and self.target.is_inf:
            out.append(0.0)
        elif vinf or self.target.is_inf:
            out.append(math.inf)
        else:
            out.append(abs(float(v) - float(self.target)))
    return tuple(out)


def ref_unbounded_trend(self) -> bool:
    """Finite prefix strictly increasing, then +inf or past the threshold."""
    finite = [float(v) for v in self.values if math.isfinite(v)]
    n_inf = len(self.values) - len(finite)
    if n_inf and any(math.isfinite(v) for v in self.values[-n_inf:]):
        return False  # an inf value must never be followed by a finite one
    if any(b <= a for a, b in zip(finite, finite[1:])):
        return False
    if n_inf:
        return True
    return finite[-1] > UNBOUNDED_FACTOR * self.scale


def ref_fmt(value: float, mode: str = "csv") -> str:
    """The output rule: infinity is ``inf``, zero is never ``-0``, and plain
    output has 6 significant digits where csv and json have 17."""
    v = float(value)
    if math.isinf(v):
        return "inf"
    if v == 0.0:
        v = 0.0  # never print -0
    return format(v, ".6g" if mode == "plain" else ".17g")


def ref_branch(qt, qtp, finite):
    """+inf when Q(theta) > Q(theta_p), else ``finite()``."""
    tie = ref_tie_sensitive(qt, qtp)
    if qt > qtp:
        return RefExtReal(math.inf, tie_sensitive=tie)
    return RefExtReal(finite(), tie_sensitive=tie)


def ref_qcvx_bregman(Q, t, tp, qt, qtp):
    return ref_branch(qt, qtp, lambda: -ref_linear_term(Q, core._gradient, t, tp))


def ref_delta_averaged_qcvx_bregman(Q, d, t, tp, qt, qtp):
    def finite():
        extrap = tuple(y + d * (y - x) for x, y in zip(t, tp))
        problem = Q.domain.violation(extrap)
        if problem is not None:
            raise DomainError(
                f"delta-averaging needs the domain of {Q.name or 'generator'} to "
                f"cover the extrapolated point {extrap}: {problem}"
            )
        return (core._eval(Q, extrap) - qtp) / d

    return ref_branch(qt, qtp, finite)


def ref_extended_bregman(Q, t, tp, qt, qtp):
    return ref_branch(qt, qtp, lambda: qt - qtp - ref_linear_term(Q, core._gradient, t, tp))


# --------------------------------------------------------------------------
# Outcomes: the value with its exact bits, or the exception
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class RefGenerator:
    """A real-valued function on a box domain with optional analytic gradient.

    ``declared_class`` is the one claim a generator makes, and it is not a
    certificate: ``check_quasiconvex`` can refute it by sampling, never prove
    it.  ``name`` and ``spec`` are keyword-only.  ``spec`` is the canonical
    JSON text ``build_generator`` built it from (None otherwise);
    ``build_generator(g.spec)`` rebuilds the same function.
    """

    dim: int
    eval: Callable[[Vector], float]
    domain: Box
    grad: Optional[Callable[[Vector], Vector]] = None
    declared_class: str = "unknown"
    _: KW_ONLY
    name: str = ""
    spec: Optional[str] = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("generator dimension must be >= 1")
        if self.domain.dim != self.dim:
            raise DimensionError(
                f"domain dimension {self.domain.dim} != generator dimension {self.dim}"
            )
        if self.declared_class not in _NEGATED_CLASS:
            raise ValueError(f"unknown declared class {self.declared_class!r}")

    def __call__(self, theta) -> float:
        return eval_generator(self, theta)


def _bits(value):
    if isinstance(value, tuple):
        return ("tuple", tuple(_bits(v) for v in value))
    if isinstance(value, float):
        flag = getattr(value, "tie_sensitive", None)
        return (type(value).__name__.replace("Ref", ""), float.hex(value), flag, type(flag))
    return (type(value), value)


def outcome(fn, *args):
    try:
        return _bits(fn(*args))
    except Exception as e:  # the type and message are the outcome
        return ("raises", type(e), str(e))


# --------------------------------------------------------------------------
# Strategies
# --------------------------------------------------------------------------

EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
               1.7976931348623157e308, -1.7976931348623157e308, math.nan, math.inf, -math.inf]
floats = st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS))
reals = st.one_of(
    floats,
    st.integers(min_value=-(10**400), max_value=10**400),
    st.integers(min_value=-5, max_value=5),
    st.booleans(),
    st.fractions(),
    st.sampled_from([Fraction(1, 3), Fraction(-7, 2), Fraction(10**400, 3)]),
)
junk = st.sampled_from(["1.5", "x", "", None, b"1", object(), [None], (1.0, "x")])
points = st.one_of(
    reals,
    st.tuples(reals),
    st.lists(reals, max_size=3).map(tuple),
    st.lists(reals, max_size=3),
    junk,
)


def _gen(dim, ev, domain, grad=None, name=""):
    return Generator(dim, ev, domain, grad, name=name)


# Open, closed and half-open bounds, 1-D and 2-D boxes, and generators whose
# value or gradient overflows, is NaN or is not a float.
HALF_OPEN = Box((Interval(0.0, 1.0, upper_open=True),))
BOX_2D = Box((Interval(0.0, 1.0), Interval(-1.0, 2.0, lower_open=True)))
GENERATORS = [
    build_generator("log"),
    build_generator("cubic"),
    build_generator({"name": "log-norm-sq", "dim": 2}),
    build_generator({"separable": ["sqrt", "quadratic"]}),
    _gen(1, lambda t: t[0] ** 3, core.bounded_box((-1.0, 1.0)), name="closed-cube"),
    _gen(1, lambda t: Fraction(1, 3) + int(t[0] > 0.5), HALF_OPEN,
         lambda t: (math.exp(1.0 / t[0]),)),
    _gen(1, lambda t: math.inf * t[0], core.real_line(), lambda t: (math.nan,)),
    _gen(2, lambda t: math.exp(t[0]) + t[1], BOX_2D),
    _gen(2, lambda t: t[0] * t[1], BOX_2D, lambda t: (t[1], t[0]), name="product"),
    # 1-D generators whose gradient has no component, or two: _gradient raises
    # GradientError for them, where map's truncation once dropped or invented terms.
    _gen(1, lambda t: t[0] * t[0], core.real_line(), lambda t: (), name="no-components"),
    _gen(1, lambda t: -t[0], HALF_OPEN, lambda t: (-1.0, t[0]), name="two-components"),
    build_generator("neg-gauss"),
    build_generator({"affine": {"a": 0.5, "inner": {"negate": "sqrt"}}}),
]


def _bounds_of(g):
    """Each axis's bounds, their neighbours and 0, as coordinate candidates."""
    out = set()
    for iv in g.domain.intervals:
        for b in (iv.lower, iv.upper, 0.0):
            if math.isfinite(b):
                out.update((b, math.nextafter(b, math.inf), math.nextafter(b, -math.inf)))
    return sorted(out)


def coordinates(g, wild=True):
    """Coordinate tuples of g's dimension: near a bound, inside, or (when wild) anything."""
    coord = st.one_of(st.sampled_from(_bounds_of(g)), st.floats(-3.0, 3.0),
                      *([floats] if wild else []))
    return st.tuples(*[coord] * g.dim)


def kernel_points(wild=True):
    """(generator, a coordinate tuple of its dimension); unless wild, a point of its domain."""
    return st.sampled_from(GENERATORS).flatmap(
        lambda g: coordinates(g, wild).filter(lambda t: wild or g.domain.contains(t))
        .map(lambda t: (g, t)))


# --------------------------------------------------------------------------
# The properties
# --------------------------------------------------------------------------


@FAST
@given(theta=points)
def test_as_vector_matches_the_reference(theta):
    expected = outcome(ref_as_vector, theta)
    if isinstance(theta, (str, bytes, bytearray)):  # the reference iterated text
        expected = ("raises", TypeError,
                    f"a point is a real or a sequence of reals, not {type(theta).__name__}")
    assert outcome(core.as_vector, theta) == expected


def typed(ref, error, prefix):
    """The reference outcome, with a stray error from the formula turned into ``error``.

    The reference let a bare ValueError or ZeroDivisionError that ``g.eval`` or
    ``g.grad`` raised escape; the kernels raise the typed error that names the
    generator and the point, and keep the formula's message.
    """
    if ref[0] == "raises" and ref[1] in (ValueError, ZeroDivisionError):
        return ("raises", error, f"{prefix}: {ref[2]}")
    return ref


@FAST
@given(case=kernel_points())
def test_eval_matches_the_reference(case):
    g, t = case
    expected = typed(outcome(ref_eval, g, t), DomainError,
                     f"{g.name or 'generator'} cannot be evaluated at {t}")
    assert outcome(core._eval, g, t) == expected


@FAST
@given(case=kernel_points())
def test_gradient_matches_the_reference(case):
    g, t = case
    expected = typed(outcome(ref_gradient, g, t), GradientError,
                     f"gradient of {g.name or 'generator'} cannot be evaluated at {t}")
    if expected[0] == "tuple" and len(expected[1]) != g.dim:  # the reference let it through
        expected = ("raises", GradientError, f"gradient of {g.name or 'generator'} has "
                    f"{len(expected[1])} components, its dimension is {g.dim}, at {t}")
    assert outcome(core._gradient, g, t) == expected


# A generator's own gradient of another length than its dimension: the
# divergences over it were silently wrong, bregman(g, 1.0, 2.0) == -3.0 here.
@pytest.mark.parametrize("dim, grad", [(1, lambda t: ()), (1, lambda t: (2.0 * t[0], 1.0)),
                                       (2, lambda t: (1.0,))], ids=["0 of 1", "2 of 1", "1 of 2"])
def test_a_gradient_of_another_length_raises_gradient_error(dim, grad):
    g = _gen(dim, lambda t: sum(x * x for x in t), core.real_line(dim), grad, name="user")
    t, tp = (1.0,) * dim, (2.0,) * dim
    n = len(grad(tp))
    calls = [lambda: core.gradient(g, tp), lambda: bregman(g, t, tp),
             lambda: qcvx_bregman(g, t, tp), lambda: extended_bregman(g, t, tp),
             lambda: expfam_cross_entropy(ExpFamily(g), tp, t)]
    for call in calls:
        with pytest.raises(GradientError) as info:
            call()
        assert str(info.value) == (f"gradient of user has {n} components, its dimension "
                                   f"is {dim}, at {tp}")


@FAST
@given(t=st.lists(floats, min_size=1, max_size=3), data=st.data(),
       a=st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0, 5e-324, 0.5]), floats))
def test_lerp_matches_the_reference(t, data, a):
    tp = data.draw(st.lists(floats, min_size=len(t), max_size=len(t)))
    assert outcome(core._lerp, tuple(t), tuple(tp), a) == outcome(ref_lerp, tuple(t), tuple(tp), a)


# Boxes of one and two axes with finite or infinite, open or closed ends.
BOUNDS = st.one_of(st.floats(allow_nan=False), st.sampled_from([0.0, -0.0, 1.0, -1.0]))
INTERVALS = st.tuples(BOUNDS, BOUNDS, st.booleans(), st.booleans()).filter(
    lambda b: b[0] < b[1]).map(lambda b: Interval(*b))
BOXES = st.lists(INTERVALS, min_size=1, max_size=2).map(Box)


@FAST
@given(box=BOXES, seed=st.integers(0, 2**32))
def test_sample_point_matches_the_reference(box, seed):
    # The same floats, and the generator left in the same state.
    rng, ref = random.Random(seed), random.Random(seed)
    assert outcome(core.sample_point, rng, box) == outcome(ref_sample_point, ref, box)
    assert rng.getstate() == ref.getstate()


# Coordinates and gradient components whose products are signed zeros,
# subnormal, or leave the floats.
TERMS = st.one_of(floats, st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-200, -1e200]))


@FAST
@given(n=st.integers(1, 3), data=st.data())
def test_linear_term_matches_the_reference(n, data):
    # A gradient of any length from 0 to 3: map truncates to the shorter.
    t = data.draw(st.tuples(*[TERMS] * n))
    tp = data.draw(st.tuples(*[TERMS] * n))
    g = tuple(data.draw(st.lists(TERMS, max_size=3)))

    def grad(F, point):
        return g

    assert (outcome(_linear_term, None, grad, t, tp)
            == outcome(ref_linear_term, None, grad, t, tp))


# Inner generators of one and two coordinates, for the wrappers' gradients.
WRAPPED = ["linear", "quadratic", "cubic", "sqrt", "log", "abs", "sine", "neg-gauss",
           {"name": "linear-fractional", "a": 2.0, "c": 1.0}, {"negate": "log"},
           {"affine": {"a": 3.0, "inner": "cubic"}}, {"separable": ["log"]},
           {"name": "neg-gauss", "dim": 2}, {"name": "log-norm-sq"},
           {"separable": ["sqrt", "quadratic"]}, {"negate": {"name": "log-norm-sq"}}]
SCALES = st.one_of(st.floats(5e-324, 1e300), st.sampled_from([0.5, 2.0, 5e-324, 1e300]))


@FAST
@given(inner=st.sampled_from(WRAPPED), a=SCALES, data=st.data())
def test_wrapper_gradients_match_the_reference(inner, a, data):
    g = build_generator(inner)
    t = data.draw(coordinates(g))
    affine = build_generator({"affine": {"a": a, "inner": inner}}).grad
    assert outcome(affine, t) == outcome(ref_affine_grad(a, g.grad), t)


@FAST
@given(t=st.tuples(floats), dim=st.sampled_from([1, 2]), data=st.data())
def test_neg_gauss_matches_the_reference(t, dim, data):
    t = t + data.draw(st.tuples(*[floats] * (dim - 1)))
    g = build_generator({"name": "neg-gauss", "dim": dim})
    ev, grad = ref_neg_gauss()
    assert outcome(g.eval, t) == outcome(ev, t)
    assert outcome(g.grad, t) == outcome(grad, t)


# Squares that are signed zeros, subnormal, or past the floats.
NORM_TERMS = st.one_of(floats, st.sampled_from([1e155, -1e155, 1.3407807929942596e154,
                                                 1e-170, -2.5e-162, 1.5e-154]))


@FAST
@given(t=st.lists(NORM_TERMS, min_size=1, max_size=4).map(tuple))
def test_sq_norm_matches_the_reference(t):
    assert outcome(core._sq_norm, t) == outcome(ref_sq_norm, t)


@FAST
@given(t=st.lists(NORM_TERMS, min_size=2, max_size=4).map(tuple))
def test_n_d_gradients_match_the_reference(t):
    spec = {"dim": len(t)}
    assert (outcome(build_generator({"name": "neg-gauss", **spec}).grad, t)
            == outcome(ref_neg_gauss()[1], t))
    assert (outcome(build_generator({"name": "log-norm-sq", **spec}).grad, t)
            == outcome(ref_log_norm_sq_grad, t))


TIE_EDGES = [0.0, -0.0, 5e-324, -5e-324, sys.float_info.max, -sys.float_info.max,
             math.inf, -math.inf, math.nan, 1.0, -1.0, math.nextafter(1.0, 2.0)]


def test_tie_sensitive_matches_max_on_every_edge_pair():
    for a, b in itertools.product(TIE_EDGES, repeat=2):
        assert core._tie_sensitive(a, b) is ref_tie_sensitive(a, b), (a, b)


@FAST
@given(a=floats, b=floats, k=st.integers(-3, 3))
def test_tie_sensitive_matches_max(a, b, k):
    near = a * (1.0 + k * sys.float_info.epsilon)  # a near-tie as often as not
    for x, y in ((a, b), (a, near), (near, a)):
        assert core._tie_sensitive(x, y) is ref_tie_sensitive(x, y)


@FAST
@given(qt=floats, qtp=floats, v=floats)
@example(qt=1.0, qtp=2.0, v=-0.0)
@example(qt=2.0, qtp=2.0, v=math.nan)
@example(qt=1.0, qtp=2.0, v=-math.inf)
def test_branch_matches_the_reference(qt, qtp, v):
    new = outcome(_branch, qt, qtp, lambda: v)
    assert new == outcome(ref_branch, qt, qtp, lambda: v)
    if new[0] != "raises":
        assert type(_branch(qt, qtp, lambda: v)) is ExtReal
        assert new[1] != "-0x0.0p+0"


@FAST
@given(value=st.one_of(reals, st.sampled_from(["1.5", "-inf", "nan", "x", None])),
       tie=st.one_of(st.booleans(), st.sampled_from([0, 1, 2, None, "", "no", 0.0, math.nan])))
def test_extreal_matches_the_reference(value, tie):
    assert outcome(ExtReal, value, tie) == outcome(RefExtReal, value, tie)
    assert outcome(ExtReal, value) == outcome(RefExtReal, value)


def _verdicts(study):
    return [float.hex(e) for e in study.errors], study.unbounded_trend


def _ref_verdicts(study):
    return [float.hex(e) for e in ref_errors(study)], ref_unbounded_trend(study)


def _study(values, target, scale):
    ks = tuple(range(len(values)))
    return LimitStudy("ref", ks, ks, tuple(map(ExtReal, values)), ExtReal(target), 1e-3, scale)


# A study's values and target are ExtReals, so never NaN or -inf, and its
# scale is 1 + |Q(t) - Q(tp)|: at least 1, and +inf once that difference
# overflows; from about 1.8e302 up the threshold UNBOUNDED_FACTOR * scale is +inf.
SCALES = st.one_of(st.floats(1.0, 1e12), st.sampled_from([1.0, 1.5, 3.0, 1e302, 1e303, math.inf]))
EXT = st.floats(allow_nan=False).filter(lambda x: x != -math.inf)


@st.composite
def studies(draw):
    """Increasing, flat, decreasing or drawn runs near the threshold, +inf runs after them,
    and now and then a finite value after the +inf run; a finite or +inf target."""
    scale = draw(SCALES)
    edge = UNBOUNDED_FACTOR * scale
    near = [edge, math.nextafter(edge, math.inf), math.nextafter(edge, -math.inf),
            0.0, 1.0, 2.0, 3e6, math.inf]
    value = st.one_of(EXT, st.sampled_from(near), st.floats(0.5 * edge, 2.0 * edge)
                      if math.isfinite(2.0 * edge) else st.just(edge))
    run = draw(st.lists(value, min_size=1, max_size=6))
    shape = draw(st.sampled_from(["drawn", "increasing", "flat", "decreasing"]))
    if shape == "increasing":
        run = sorted(set(run))
    elif shape == "flat":
        run = run[:1] * len(run)
    elif shape == "decreasing":
        run = sorted(run, reverse=True)
    run += [math.inf] * draw(st.integers(0, 3)) + draw(st.lists(value, max_size=1))
    return _study(run, draw(st.one_of(value, st.just(math.inf))), scale)


@settings(derandomize=True, deadline=None, max_examples=500)
@given(study=studies())
def test_limit_verdicts_match_the_reference(study):
    assert _verdicts(study) == _ref_verdicts(study)


def test_limit_verdicts_match_the_reference_on_every_short_sequence():
    # Past 1e6 * scale the trend holds at scale 1, and not at scale 3.
    terms = (1.0, 2.0, 3e6, math.inf)
    for n in range(1, 5):
        for values in itertools.product(terms, repeat=n):
            for target in terms:
                for scale in (1.0, 3.0):
                    study = _study(values, target, scale)
                    assert _verdicts(study) == _ref_verdicts(study), (values, target, scale)


@FAST
@given(value=st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS),
                       EXT.map(ExtReal),
                       st.integers(-10**300, 10**300)),
       mode=st.sampled_from(["plain", "csv", "json"]))
def test_fmt_matches_the_reference_but_at_minus_infinity(value, mode):
    expected = "-inf" if value == -math.inf else ref_fmt(value, mode)
    assert core._fmt(value, mode) == expected


BRANCH_KERNELS = [
    (_qcvx_bregman, ref_qcvx_bregman),
    (_extended_bregman, ref_extended_bregman),
]


@FAST
@given(case=kernel_points(wild=False), data=st.data())
def test_branch_kernels_match_the_reference(case, data):
    g, t = case
    # The second point is the first, a point near a bound, or anything; a
    # generator with a zero gradient (the cubic at 0) gives a zero linear term.
    tp = data.draw(st.one_of(st.just(t), coordinates(g, wild=False).filter(g.domain.contains)))
    try:
        qt, qtp = core._eval(g, t), core._eval(g, tp)
    except ValueError:
        assume(False)
    for new, ref in BRANCH_KERNELS:
        assert outcome(new, g, core._gradient, t, tp, qt, qtp) == outcome(ref, g, t, tp, qt, qtp)
    d = data.draw(st.one_of(st.floats(1e-3, 10.0), st.sampled_from([0.5, 1e300])))
    assert (outcome(_delta_averaged_qcvx_bregman, g, d, t, tp, qt, qtp)
            == outcome(ref_delta_averaged_qcvx_bregman, g, d, t, tp, qt, qtp))


@FAST
@given(gen=st.sampled_from(["quadratic", "cubic", "abs", "linear", "log", "sqrt"]),
       t=st.one_of(st.floats(-2.0, 2.0), st.sampled_from([0.0, -0.0, 1.0, -1.0])),
       tp=st.one_of(st.floats(-2.0, 2.0), st.sampled_from([0.0, -0.0, 1.0, -1.0])))
def test_public_branch_divergences_match_the_reference_at_zero_gradients(gen, t, tp):
    # The quadratic at 0, the cubic at 0 and abs at 0 have a zero gradient, so
    # the finite branch is a signed zero there.
    g = build_generator(gen)
    try:
        qt, qtp = core._eval(g, (t,)), core._eval(g, (tp,))
    except DomainError:
        assume(False)
    for new, ref in BRANCH_KERNELS:
        assert (outcome(new, g, core._gradient, (t,), (tp,), qt, qtp)
                == outcome(ref, g, (t,), (tp,), qt, qtp))


# Generators built from specs, and constructor arguments drawn from small pools
# so that equal draws occur.  The dimension is an int here: a bool, a float or
# text follows the count rule now, which the reference did not apply.
ONE_D = st.recursive(
    st.sampled_from(["linear", "quadratic", "cubic", "sqrt", "log", "abs", "sine",
                     {"name": "linear-fractional", "a": 2.0, "c": 1.0}]),
    lambda inner: st.one_of(inner.map(lambda s: {"negate": s}),
                            inner.map(lambda s: {"affine": {"a": 2.0, "b": 1.0, "inner": s}})),
    max_leaves=3)
SPECS = st.one_of(ONE_D, st.lists(ONE_D, min_size=1, max_size=3).map(lambda s: {"separable": s}),
                  st.sampled_from([{"name": "neg-gauss", "dim": 2}, {"name": "log-norm-sq"}]))
EVALS = [g.eval for g in GENERATORS[:3]]
GRADS = [None, GENERATORS[0].grad]
DOMAINS = [core.real_line(), core.real_line(2), HALF_OPEN, BOX_2D, None]


def _fields_of(g):
    return (g.dim, g.eval, g.domain, g.grad, g.declared_class), {"name": g.name, "spec": g.spec}


generator_args = st.one_of(
    SPECS.map(build_generator).map(_fields_of),
    st.tuples(
        st.sampled_from(DOMAINS).flatmap(lambda domain: st.tuples(
            st.one_of(st.just(getattr(domain, "dim", 1)), st.integers(-1, 3)),
            st.sampled_from(EVALS), st.just(domain), st.sampled_from(GRADS),
            st.sampled_from([*_NEGATED_CLASS, "concave"])))
        .flatmap(lambda args: st.integers(3, 5).map(lambda n: args[:n])),
        st.fixed_dictionaries({}, optional={"name": st.sampled_from(["", "x"]),
                                            "spec": st.sampled_from([None, '"log"'])})))


def _made(cls, args, kwargs):
    try:
        return cls(*args, **kwargs)
    except Exception as e:  # the type and message are the outcome
        return ("raises", type(e), str(e))


def _text(record):
    """The repr without the class name."""
    return repr(record).split("(", 1)[1]


def _assignment_errors(record):
    """What assigning and deleting each field, and a name that is not one, raise."""
    raised = []
    for name in (*RefGenerator.__match_args__, "name", "spec", "other"):
        for act in (lambda: setattr(record, name, 1), lambda: delattr(record, name)):
            with pytest.raises(AttributeError) as info:
                act()
            raised.append(str(info.value))
    return raised


@FAST
@given(a=generator_args, b=generator_args, ev=st.sampled_from(EVALS), grad=st.sampled_from(GRADS))
def test_generator_matches_the_dataclass_it_replaced(a, b, ev, grad):
    new, ref = _made(Generator, *a), _made(RefGenerator, *a)
    if isinstance(ref, tuple):
        assert new == ref
        return
    assert _text(new) == _text(ref)
    assert hash(new) == hash(ref)
    assert (new == _made(Generator, *b)) == (ref == _made(RefGenerator, *b))
    assert _assignment_errors(new) == _assignment_errors(ref)
    assert type(dataclasses.replace(new, eval=ev, grad=grad)) is Generator
    assert (_text(dataclasses.replace(new, eval=ev, grad=grad))
            == _text(dataclasses.replace(ref, eval=ev, grad=grad)))
    assert ([f.name for f in dataclasses.fields(new)]
            == [f.name for f in dataclasses.fields(ref)])
    assert dataclasses.is_dataclass(new)
    assert Generator.__match_args__ == RefGenerator.__match_args__


def test_a_generator_prints_as_the_dataclass_did():
    # Hypothesis prints a falsifying example that holds a generator through the
    # dataclass fields of its class.
    g = build_generator({"negate": "log"})
    args, kwargs = _fields_of(g)
    assert pretty(g) == pretty(RefGenerator(*args, **kwargs)).replace("RefGenerator(", "Generator(")
    assert ([f.name for f in dataclasses.fields(Generator)]
            == [f.name for f in dataclasses.fields(RefGenerator)])


# --------------------------------------------------------------------------
# Guards
# --------------------------------------------------------------------------


def test_generator_call_reaches_the_module_global_eval_generator(monkeypatch):
    # The benchmark's tracer rebinds module globals, so a call must look the
    # global up each time rather than hold the function.
    calls = []
    original = core.eval_generator

    def counting(g, theta):
        calls.append(theta)
        return original(g, theta)

    monkeypatch.setattr(core, "eval_generator", counting)
    g = build_generator("log")
    assert g(2.0) == math.log(2.0)
    assert g((3.0,)) == math.log(3.0)
    assert calls == [2.0, (3.0,)]


def _trees():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}


def test_the_tie_tolerance_and_box_bounds_are_read_only_in_core():
    readers = set()
    for module, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id == "_TIE_REL_TOL":
                readers.add((module, "_TIE_REL_TOL"))
            elif isinstance(node, ast.alias) and node.name == "_TIE_REL_TOL":
                readers.add((module, "_TIE_REL_TOL"))
            elif isinstance(node, ast.Attribute) and node.attr == "_bounds":
                readers.add((module, "_bounds"))
            elif isinstance(node, ast.Constant) and node.value == "_bounds":
                readers.add((module, "_bounds"))
    assert readers == {("core", "_TIE_REL_TOL"), ("core", "_bounds")}


def _functions(tree):
    return {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}


# The two constructors and their flag parameter, which each stores as given:
# ExtReal.__new__ passes bool(tie_sensitive) on to _ext_real, which sets the slot.
CONSTRUCTORS = {("core", "ExtReal.__new__"): "tie_sensitive", ("core", "_ext_real"): "tie"}


def _scopes(tree, prefix=""):
    """(qualified name, node) of each function in tree, methods as ``Class.method``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.FunctionDef):
            yield prefix + node.name, node
            yield from _scopes(node, f"{prefix}{node.name}.<locals>.")
        elif isinstance(node, ast.ClassDef):
            yield from _scopes(node, f"{prefix}{node.name}.")
        else:
            yield from _scopes(node, prefix)


def _own(scope):
    """The nodes of a module or function outside the functions defined in it; lambdas are in."""
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            todo.extend(ast.iter_child_nodes(node))


def _tie_flags(scope):
    """Each flag that a scope hands to ExtReal or _ext_real, or stores in a ``tie_sensitive`` slot."""
    for node in _own(scope):
        if isinstance(node, ast.Call):
            func = getattr(node.func, "id", getattr(node.func, "attr", None))
            if func in ("ExtReal", "_ext_real"):
                keyword = {"ExtReal": "tie_sensitive", "_ext_real": "tie"}[func]
                if len(node.args) > 1:
                    yield node.args[1]
                yield from (kw.value for kw in node.keywords if kw.arg == keyword)
            elif (len(node.args) > 2 and isinstance(node.args[1], ast.Constant)
                  and node.args[1].value == "tie_sensitive"):  # setattr, object.__setattr__
                yield node.args[2]
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if any(isinstance(t, ast.Attribute) and t.attr == "tie_sensitive"
                       for t in ast.walk(target)):
                    yield node.value


def _tie_setters(trees):
    """The functions that compute a tie flag, once every flag is checked.

    Outside the constructors a flag must be a name bound to a _tie_sensitive
    result in the same function; in them, their flag parameter (or its bool).
    """
    setters = set()
    for module, tree in trees.items():
        for name, fn in [("<module>", tree), *_scopes(tree)]:
            ties = {target.id for node in _own(fn) if isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Call)
                    and getattr(node.value.func, "id", None) == "_tie_sensitive"
                    for target in node.targets if isinstance(target, ast.Name)}
            for flag in _tie_flags(fn):
                if (module, name) in CONSTRUCTORS:
                    if (isinstance(flag, ast.Call) and getattr(flag.func, "id", None) == "bool"
                            and len(flag.args) == 1):
                        flag = flag.args[0]
                    assert isinstance(flag, ast.Name), (module, name)
                    assert flag.id == CONSTRUCTORS[module, name], (module, name)
                else:
                    assert isinstance(flag, ast.Name) and flag.id in ties, (module, name)
                    setters.add((module, name))
    return setters


def test_every_tie_flag_comes_from_tie_sensitive():
    setters = _tie_setters(_trees())
    # bregman's one branch rule, which the nested-support KLs of statdiv share.
    assert setters == {("bregman", "_branch")}
    kernels = _functions(_trees()["bregman"])
    for name in ("_qcvx_bregman", "_delta_averaged_qcvx_bregman", "_extended_bregman"):
        calls = {getattr(node.func, "id", None) for node in ast.walk(kernels[name])
                 if isinstance(node, ast.Call)}
        assert "_branch" in calls, name


# Each way to hand out or store a flag that is not a _tie_sensitive result.
UNCHECKED_FLAGS = [
    "def f(x):\n    x.tie_sensitive = True",
    "def f(x, a, b):\n    x.tie_sensitive = a < b",
    "def f(x):\n    object.__setattr__(x, 'tie_sensitive', True)",
    "def f(x, t):\n    setattr(x, 'tie_sensitive', t)",
    "def f(v):\n    return _ext_real(v, True)",
    "def f(v, t):\n    return core._ext_real(v, tie=t)",
    "def f(v):\n    return ExtReal(v, tie_sensitive=1)",
    "X = ExtReal(1.0, True)",
    "F = lambda v: _ext_real(v, False)",
    "class C:\n    def m(self, v):\n        return ExtReal(v, True)",
    "def f(v, a, b):\n    tie = _tie_sensitive(a, b)\n    def g():\n        return ExtReal(v, tie)",
]


@pytest.mark.parametrize("source", UNCHECKED_FLAGS)
def test_the_tie_flag_guard_sees_every_setter(source):
    with pytest.raises(AssertionError):
        _tie_setters({"m": ast.parse(source)})


def test_the_tie_flag_guard_counts_a_computed_flag_in_a_slot():
    source = ("def f(v, a, b):\n    tie = _tie_sensitive(a, b)\n"
              "    r = float.__new__(ExtReal, v)\n    r.tie_sensitive = tie")
    assert _tie_setters({"m": ast.parse(source)}) == {("m", "f")}


def _profiled(call):
    """The code objects of the qcdiv functions that ``call()`` enters, and the builtins it calls."""
    codes, builtins = [], []

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and Path(code.co_filename).resolve().parent == SRC:
            codes.append(code)
        elif event == "c_call":
            builtins.append(arg)

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return codes, builtins


def _n_coordinate_work(call):
    """The comprehension frames of qcdiv and the ``sum`` calls that ``call()`` makes."""
    codes, builtins = _profiled(call)
    return ([f"{c.co_name} at {Path(c.co_filename).name}:{c.co_firstlineno}" for c in codes
             if c.co_name in ("<listcomp>", "<genexpr>")] + ["sum" for b in builtins if b is sum])


LOG = build_generator("log")
AFFINE = build_generator({"affine": {"a": 0.5, "inner": "quadratic"}})
NEG_GAUSS = build_generator("neg-gauss")
BOX_1D, RNG = core.bounded_box((0.1, 10.0)), random.Random(1)
Q1, Q2 = math.log(1.5), math.log(2.0)
# One call each on 1-D points, the finite branch of each branch kernel.
SCALAR_CALLS = {
    "_eval": lambda: core._eval(LOG, (1.5,)),
    "_gradient": lambda: core._gradient(LOG, (1.5,)),
    "_lerp": lambda: core._lerp((1.5,), (2.0,), 0.3),
    "sample_point": lambda: core.sample_point(RNG, BOX_1D),
    "_qcvx_bregman": lambda: _qcvx_bregman(LOG, core._gradient, (1.5,), (2.0,), Q1, Q2),
    "_extended_bregman": lambda: _extended_bregman(LOG, core._gradient, (1.5,), (2.0,), Q1, Q2),
    "affine grad": lambda: core._gradient(AFFINE, (1.5,)),
    "neg-gauss": lambda: (core._eval(NEG_GAUSS, (1.5,)), core._gradient(NEG_GAUSS, (1.5,))),
}


@pytest.mark.parametrize("name", SCALAR_CALLS)
def test_one_coordinate_points_take_the_scalar_path(name):
    # A comprehension frame or a sum over one term costs more than the
    # arithmetic it does; the scalar path computes on t[0] instead.
    assert _n_coordinate_work(SCALAR_CALLS[name]) == []


def test_the_scalar_path_guard_sees_the_n_coordinate_path():
    # The same calls on 2-D points run the loops the guard looks for.
    lns = build_generator({"name": "log-norm-sq", "dim": 2})
    assert "sum" in _n_coordinate_work(lambda: _qcvx_bregman(
        lns, core._gradient, (1.0, 1.0), (2.0, 1.0), core._eval(lns, (1.0, 1.0)),
        core._eval(lns, (2.0, 1.0))))
    assert any(s.startswith("<genexpr>") for s in _n_coordinate_work(
        lambda: _delta_averaged_qcvx_bregman(lns, 0.5, (1.0, 1.0), (2.0, 1.0), 0.0, 1.0)))


def _forks(trees):
    """Each (module, function) that compares a ``len(...)`` or a ``dim`` with 1 by == or !=."""
    def sized(node):
        return (getattr(node, "id", getattr(node, "attr", None)) == "dim"
                or isinstance(node, ast.Call) and getattr(node.func, "id", None) == "len")

    found = set()
    for module, tree in trees.items():
        for name, fn in _scopes(tree):
            for node in _own(fn):
                if isinstance(node, ast.Compare) and any(
                        isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                    operands = [node.left, *node.comparators]
                    if (any(isinstance(o, ast.Constant) and type(o.value) is int and o.value == 1
                            for o in operands) and any(map(sized, operands))):
                        found.add((module, name))
    return found


# The functions that pick a one-coordinate formula, each with the SCALAR_CALLS
# entries whose call takes it; _gradient holds two forks, the interior test and
# the finiteness test.
FORKS = {
    ("core", "_eval"): ("_eval",),
    ("core", "_gradient"): ("_gradient",),
    ("core", "_lerp"): ("_lerp",),
    ("core", "sample_point"): ("sample_point",),
    ("core", "_neg_gauss"): ("neg-gauss",),
    ("core", "_affine"): ("affine grad",),
    ("bregman", "_linear_term"): ("_qcvx_bregman", "_extended_bregman"),
}
# The functions that compare a length or a dimension with 1 to reject an argument.
ARGUMENT_CHECKS = {
    ("cli", "_scalar"), ("core", "_build"), ("core", "_separable"),
    ("means", "MeanSpec.__init__"), ("means", "_mn_jensen"), ("means", "_exponents"),
    ("means", "_r_exponent"), ("oracles", "integrate_delta_average"), ("checks", "suite_means"),
}


def test_every_one_coordinate_fork_has_a_scalar_path_entry():
    trees = _trees()
    found = _forks(trees)
    assert ARGUMENT_CHECKS <= found
    assert found - ARGUMENT_CHECKS == FORKS.keys()
    assert sorted(key for keys in FORKS.values() for key in keys) == sorted(SCALAR_CALLS)
    # Each entry's call runs code of its fork: the function, or a lambda it builds.
    spans = {(module, name): (fn.lineno, fn.end_lineno)
             for module, tree in trees.items() for name, fn in _scopes(tree)}
    for (module, name), keys in FORKS.items():
        lo, hi = spans[module, name]
        for key in keys:
            codes, _ = _profiled(SCALAR_CALLS[key])
            assert any(Path(c.co_filename).stem == module and lo <= c.co_firstlineno <= hi
                       for c in codes), (module, name, key)


@pytest.mark.parametrize("source", [
    "def f(t):\n    if len(t) == 1:\n        return t[0]",
    "def f(g):\n    return (lambda t: t[0]) if 1 != g.dim else None",
    "class C:\n    def m(self, t, g):\n        return len(t) == 1 == g.dim",
    "def f(dim):\n    def g(t):\n        return t\n    return g if dim == 1 else None",
])
def test_the_fork_guard_sees_a_new_fork(source):
    assert len(_forks({"m": ast.parse(source)})) == 1


@pytest.mark.parametrize("t, tp", [((1.5,), (2.0,)), ((2.0,), (1.5,))],
                         ids=["finite", "infinite"])
def test_a_branch_value_is_built_without_the_type_call(t, tp):
    # _ext_real costs half the type call ExtReal(v, tie), and the conditional
    # in _tie_sensitive less than the max builtin.
    codes, builtins = _profiled(lambda: _qcvx_bregman(
        LOG, core._gradient, t, tp, math.log(t[0]), math.log(tp[0])))
    assert ExtReal.__new__.__code__ not in codes and _bregman.__code__ not in codes
    assert max not in builtins
    assert codes.count(core._ext_real.__code__) == 1 and core._tie_sensitive.__code__ in codes


@pytest.mark.parametrize("spec", [{"name": "log-norm-sq", "dim": 2}, {"name": "neg-gauss", "dim": 2}],
                         ids=["log-norm-sq", "neg-gauss"])
def test_an_n_d_gradient_takes_the_norm_once(spec):
    g = build_generator(spec)
    codes, _ = _profiled(lambda: core._gradient(g, (1.5, 0.5)))
    assert codes.count(core._sq_norm.__code__) == 1
    assert not [c for c in codes if c.co_name == "<genexpr>"]

