"""The per-call fast paths against the versions they replaced, and the rules they keep.

``core.as_vector``, ``_eval``, ``_gradient``, ``_lerp``, ``ExtReal.__new__`` and
the three branch kernels of ``bregman`` were rewritten to cost less per call;
``LimitStudy.errors``, ``LimitStudy.unbounded_trend`` and ``core._fmt`` were
rewritten to state their rule once, from ``ExtReal``'s order and its zero rule.
``Generator`` was a frozen dataclass and is now a ``_Frozen`` record, so that
no import builds a dataclass.
The reference versions below are the previous code, kept verbatim; the
properties check that the new code gives the same value (compared as
``float.hex``, so the sign of a zero counts), the same ``tie_sensitive`` flag,
or the same exception type and message.  Three differences are deliberate: text
is no point (``as_vector`` raises ``TypeError``), ``_fmt(-inf)`` prints
``-inf``, a value no entry point produces, and a generator's dimension is a
count (a bool, text or NaN raises ``ValueError``; a whole float becomes an int).  The guards at the end keep the three
rules the rewrite must not break: ``Generator.__call__`` reaches the module
global ``eval_generator`` at call time, the tie tolerance and ``Box._bounds``
are read only in ``core``, and every tie flag comes from ``_tie_sensitive``.
"""

import ast
import dataclasses
import itertools
import math
import numbers
from dataclasses import KW_ONLY, dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qcdiv import core
from qcdiv.oracles import UNBOUNDED_FACTOR, LimitStudy
from qcdiv.bregman import (
    _delta_averaged_qcvx_bregman,
    _extended_bregman,
    _linear_term,
    _qcvx_bregman,
)
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
    tie = core._tie_sensitive(qt, qtp)
    if qt > qtp:
        return ExtReal(math.inf, tie_sensitive=tie)
    return ExtReal(finite(), tie_sensitive=tie)


def ref_qcvx_bregman(Q, t, tp, qt, qtp):
    return ref_branch(qt, qtp, lambda: -_linear_term(Q, core._gradient, t, tp))


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
    return ref_branch(qt, qtp, lambda: qt - qtp - _linear_term(Q, core._gradient, t, tp))


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
    assert outcome(core._gradient, g, t) == expected


@FAST
@given(t=st.lists(floats, min_size=1, max_size=3), data=st.data(),
       a=st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0, 5e-324, 0.5]), floats))
def test_lerp_matches_the_reference(t, data, a):
    tp = data.draw(st.lists(floats, min_size=len(t), max_size=len(t)))
    assert outcome(core._lerp, tuple(t), tuple(tp), a) == outcome(ref_lerp, tuple(t), tuple(tp), a)


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


def _tie_flag(call):
    """The tie flag argument of an ``ExtReal(...)`` call, or None."""
    if len(call.args) > 1:
        return call.args[1]
    return next((kw.value for kw in call.keywords if kw.arg == "tie_sensitive"), None)


def test_every_tie_flag_comes_from_tie_sensitive():
    setters = set()
    for module, tree in _trees().items():
        for name, fn in _functions(tree).items():
            ties = {target.id for node in ast.walk(fn) if isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Call)
                    and getattr(node.value.func, "id", None) == "_tie_sensitive"
                    for target in node.targets}
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "ExtReal":
                    flag = _tie_flag(node)
                    if flag is not None:
                        assert isinstance(flag, ast.Name) and flag.id in ties, (module, name)
                        setters.add((module, name))
    # bregman's one branch rule, which the nested-support KLs of statdiv share.
    assert setters == {("bregman", "_branch")}
    kernels = _functions(_trees()["bregman"])
    for name in ("_qcvx_bregman", "_delta_averaged_qcvx_bregman", "_extended_bregman"):
        calls = {getattr(node.func, "id", None) for node in ast.walk(kernels[name])
                 if isinstance(node, ast.Call)}
        assert "_branch" in calls, name
