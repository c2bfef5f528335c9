"""Generators on box domains, extended-real values, and quasiconvexity refutation.

A Generator packages a real-valued function on a box domain together with an
optional analytic gradient and a declared convexity class; ``build_generator``
builds one from a JSON-shaped spec.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import numbers
import random
import sys
from operator import mul
from typing import Callable, NamedTuple, Optional

Vector = tuple  # tuple of floats, length >= 1

# Central-difference step balances truncation against rounding.
FD_STEP = sys.float_info.epsilon ** (1.0 / 3.0)


class DomainError(ValueError):
    """A point lies outside a generator's domain."""


class DimensionError(ValueError):
    """Mismatched vector dimensions."""


class GradientError(ValueError):
    """Gradient evaluation failed (boundary point or missing room for differences)."""


class SpecError(ValueError):
    """Malformed generator spec."""


class NonPositiveError(ValueError):
    """A value required to be strictly positive was not."""


class PreconditionError(ValueError):
    """An operation's stated precondition does not hold for these arguments."""


class RangeError(ValueError):
    """A divergence's value or a term of it leaves the floats."""


class GeneratorClassWarning(UserWarning):
    """A divergence was evaluated with a generator of the opposite declared class."""


# Bound once: _ext_real runs once per branch-divergence value.
_INF = math.inf
_new_float = float.__new__


class ExtReal(float):
    """A finite real or +inf; never -inf, never NaN.

    Divergences use this as their codomain: +inf is an answer, not an error.
    ``tie_sensitive`` is set by branch-based divergences when the two values
    being compared were within 1e-12 relative of each other, i.e. the result
    sits on the finite/infinite discontinuity.
    """

    __slots__ = ("tie_sensitive",)

    def __new__(cls, value: float, tie_sensitive: bool = False) -> "ExtReal":
        return _ext_real(float(value), bool(tie_sensitive), cls)

    @property
    def is_inf(self) -> bool:
        return math.isinf(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = ", tie_sensitive=True" if self.tie_sensitive else ""
        return f"ExtReal({float.__repr__(self)}{flag})"


# The one rule of an ExtReal's value and flag.  bregman._branch calls it
# directly, which costs half the type call ExtReal(v, tie) makes.
def _ext_real(v: float, tie: bool, cls=ExtReal) -> ExtReal:
    """ExtReal(v, tie) for a float v and a bool tie."""
    v += 0.0  # adding +0.0 turns -0.0 into 0.0 and keeps every other value
    if not v > -_INF:  # NaN or -inf
        raise ValueError(f"extended real must be finite or +inf, got {v!r}")
    self = _new_float(cls, v)
    self.tie_sensitive = tie
    return self


POS_INF = ExtReal(math.inf)

# The one tie policy for every branch-based divergence: a one-ulp perturbation
# of either compared value can flip the finite/infinite branch within this band.
_TIE_REL_TOL = 1e-12


def _tie_sensitive(a: float, b: float) -> bool:
    # The band is infinite when either value is, and a finite and an
    # infinite value are never a near-tie.  y if y > x else x is max(x, y),
    # NaN included, without the builtin's call.
    x, y = abs(a), abs(b)
    return abs(a - b) <= _TIE_REL_TOL * (y if y > x else x) < _INF


# csv and json show 17 significant digits, enough to round-trip every float.
_CSV = "%.17g"


def _fill(template: str, values) -> str:
    """The output rule: ``template`` with its slots filled by ``values``, where zero is never
    ``-0`` (+0.0 is added, as in ``ExtReal``) and infinity is ``inf``."""
    return template % tuple([v + 0.0 for v in values])


def _fmt(value: float, mode: str = "csv") -> str:
    """One value by the output rule: plain output has 6 significant digits, csv and json 17."""
    return _fill("%.6g" if mode == "plain" else _CSV, (float(value),))


def as_vector(theta) -> Vector:
    """Coerce a ``numbers.Real`` or a sequence of reals, not text, to a finite coordinate tuple."""
    if isinstance(theta, numbers.Real):
        coords = (float(theta),)
    elif isinstance(theta, (str, bytes, bytearray)):
        raise TypeError(f"a point is a real or a sequence of reals, not {type(theta).__name__}")
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


def _check_finite(coords: Vector) -> None:
    for c in coords:
        if not math.isfinite(c):
            # index finds c itself, NaN included: every earlier coordinate is finite.
            raise DomainError(f"coordinate {coords.index(c)} is not finite: {c!r}")


def _in_range(value: float, what: str) -> float:
    if not math.isfinite(value):
        raise RangeError(f"{what} leaves the floats: {value!r}")
    return value


def _validate_positive(name: str, value: float) -> float:
    v = float(value)
    if not v > 0.0:
        raise ValueError(f"{name} must be > 0, got {v}")
    return v


def _points(theta, theta_p):
    """Coerce both points and check that their dimensions agree."""
    t, tp = as_vector(theta), as_vector(theta_p)
    if len(t) != len(tp):
        raise DimensionError(f"dimension mismatch: {len(t)} vs {len(tp)}")
    return t, tp


def _validate_weight(alpha: float, what: str = "mean weight") -> float:
    a = float(alpha)
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"{what} must lie in [0, 1], got {a}")
    return a


def interpolate(theta, theta_p, alpha: float) -> Vector:
    """Weighted linear interpolation (1-alpha)*theta + alpha*theta_p."""
    t, tp = _points(theta, theta_p)
    return _lerp(t, tp, _validate_weight(alpha, "interpolation weight"))


# The kernels below that loop over coordinates take one len(t) == 1 test first
# and compute a one-coordinate point on t[0] directly, with the same float
# operations in the same order: most points here are 1-D, and the loop's
# iterator or list frame costs more than the arithmetic.
def _lerp(t: Vector, tp: Vector, a: float) -> Vector:
    b = 1.0 - a
    if len(t) == 1:
        return (b * t[0] + a * tp[0],)
    return tuple([b * x + a * y for x, y in zip(t, tp)])


# Fields kept in the instance dict are the fastest attribute reads, and the
# densities, means and intervals are read per quadrature node or per sample.
class _Frozen:
    """Repr, equality and hash over ``_fields``; ``__init__`` checks them, then sets them once."""

    def _astuple(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._astuple()))
        return f"{type(self).__qualname__}({inner})"

    def __eq__(self, other):
        return self._astuple() == other._astuple() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Interval(_Frozen):
    """One axis of a box: bounds may be infinite, and each end open or closed."""

    _fields = ("lower", "upper", "lower_open", "upper_open")

    def __init__(self, lower: float = -math.inf, upper: float = math.inf,
                 lower_open: bool = False, upper_open: bool = False):
        lower, upper = float(lower), float(upper)
        if not lower < upper:
            raise ValueError(f"degenerate interval: [{lower}, {upper}]")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "lower_open", bool(lower_open))
        object.__setattr__(self, "upper_open", bool(upper_open))

    def contains(self, x: float) -> bool:
        if self.lower_open:
            if not x > self.lower:
                return False
        elif not x >= self.lower:
            return False
        if self.upper_open:
            return x < self.upper
        return x <= self.upper

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.lower) and math.isfinite(self.upper)

    def __str__(self) -> str:
        lo = "(" if (self.lower_open or math.isinf(self.lower)) else "["
        hi = ")" if (self.upper_open or math.isinf(self.upper)) else "]"
        return f"{lo}{self.lower}, {self.upper}{hi}"


class Box(_Frozen):
    """Product of intervals; the (convex) domain of a generator."""

    _fields = ("intervals",)

    def __init__(self, intervals):
        intervals = tuple(intervals)
        if not intervals:
            raise ValueError("box needs at least one dimension")
        object.__setattr__(self, "intervals", intervals)
        # Plain bounds for the interior test every generator evaluation runs.
        object.__setattr__(self, "_bounds", tuple((iv.lower, iv.upper) for iv in intervals))

    @property
    def dim(self) -> int:
        return len(self.intervals)

    def contains(self, theta: Vector) -> bool:
        return all(iv.contains(x) for iv, x in zip(self.intervals, theta))

    def contains_interior(self, theta: Vector) -> bool:
        # Strictly between the bounds also means finite.
        for (lo, hi), x in zip(self._bounds, theta):
            if not lo < x < hi:
                return False
        return True

    @property
    def bounded(self) -> bool:
        return all(iv.bounded for iv in self.intervals)

    def violation(self, theta: Vector) -> Optional[str]:
        """Describe the first out-of-bounds coordinate, or None."""
        if self.contains_interior(theta):
            return None
        for i, (iv, x) in enumerate(zip(self.intervals, theta)):
            if not iv.contains(x):
                return f"coordinate {i} value {x} outside {iv}"
        return None


def real_line(dim: int = 1) -> Box:
    return Box(tuple(Interval() for _ in range(_count("dim", dim, 1))))


def positive_ray(dim: int = 1) -> Box:
    return Box(tuple(Interval(0.0, math.inf, lower_open=True)
                     for _ in range(_count("dim", dim, 1))))


def bounded_box(*bounds) -> Box:
    """Closed bounded box from (lo, hi) pairs; a bound that is not finite raises ValueError."""
    pairs = [(float(lo), float(hi)) for lo, hi in bounds]
    for x in sum(pairs, ()):
        if not math.isfinite(x):
            raise ValueError(f"bounded_box bounds must be finite, got {x}")
    return Box(tuple(Interval(lo, hi) for lo, hi in pairs))


def sample_point(rng: random.Random, box: Box) -> Vector:
    """A uniform point of a bounded box: one ``rng.uniform`` per coordinate, in order."""
    if len(box._bounds) == 1:
        lo, hi = box._bounds[0]
        return (rng.uniform(lo, hi),)
    return tuple([rng.uniform(lo, hi) for lo, hi in box._bounds])


# The declared classes, each mapped to the class of the negated generator.
_NEGATED_CLASS = {
    "convex": "quasiconcave",
    "quasiconvex": "quasiconcave",
    "quasiconcave": "quasiconvex",
    "quasilinear": "quasilinear",
    "unknown": "unknown",
}


class _FieldsOnDemand:
    """``Generator.__dataclass_fields__``, read on the class and on an instance alike."""

    def __get__(self, obj, cls) -> dict:
        return _dataclass_fields()


class Generator(_Frozen):
    """A real-valued function on a box domain with optional analytic gradient.

    ``declared_class`` is the one claim a generator makes, and it is not a
    certificate: ``check_quasiconvex`` can refute it by sampling, never prove
    it.  ``name`` and ``spec`` are keyword-only.  ``spec`` is the canonical
    JSON text ``build_generator`` built it from (None otherwise);
    ``build_generator(g.spec)`` rebuilds the same function.
    ``dataclasses.replace``, ``fields`` and ``is_dataclass`` work on an instance,
    and ``fields`` and ``is_dataclass`` on the class too.
    """

    _fields = ("dim", "eval", "domain", "grad", "declared_class", "name", "spec")
    __match_args__ = _fields[:5]
    # Read only by the dataclasses functions, so only their callers import the module.
    __dataclass_fields__ = _FieldsOnDemand()

    def __init__(self, dim: int, eval: Callable[[Vector], float], domain: Box,
                 grad: Optional[Callable[[Vector], Vector]] = None,
                 declared_class: str = "unknown", *, name: str = "",
                 spec: Optional[str] = None):
        dim = _count("generator dimension", dim, 1)
        if domain.dim != dim:
            raise DimensionError(f"domain dimension {domain.dim} != generator dimension {dim}")
        if declared_class not in _NEGATED_CLASS:
            raise ValueError(f"unknown declared class {declared_class!r}")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "eval", eval)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "grad", grad)
        object.__setattr__(self, "declared_class", declared_class)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "spec", spec)

    def __call__(self, theta) -> float:
        return eval_generator(self, theta)


@functools.cache
def _dataclass_fields() -> dict:
    import dataclasses
    record = dataclasses.make_dataclass("Generator", Generator._fields)
    return {f.name: f for f in dataclasses.fields(record)}


def eval_generator(g: Generator, theta) -> float:
    """Evaluate g at theta with domain checking; the value must be finite."""
    t = as_vector(theta)
    _check_dim(g, t)
    return _eval(g, t)


def gradient(g: Generator, theta) -> Vector:
    """Analytic gradient when available, else central finite differences.

    The per-coordinate step is cbrt(machine epsilon) * max(1, |theta_i|).
    Points on the domain boundary are rejected; one-sided differences are not
    attempted.
    """
    t = as_vector(theta)
    _check_dim(g, t)
    return _gradient(g, t)


# The kernels below take coordinate tuples of the generator's dimension and do
# not coerce: public functions validate their points once, then call these.


def _check_dim(g: Generator, t: Vector) -> None:
    if len(t) != g.dim:
        raise DimensionError(
            f"generator {g.name or '?'} has dimension {g.dim}, point has {len(t)}"
        )


# Each divergence (jensen, bregman, means) calls its kernel with the checked
# arguments, then the two points that _pair checked and their generator values;
# ``qcdiv eval`` and ``qcdiv table`` call the same checks and kernels.  Call
# arguments are evaluated left to right, so the argument checks run before the
# point checks.
def _pair(g: Generator, theta, theta_p):
    """(t, tp, g(t), g(tp)): both points coerced and checked, then g at each."""
    t, tp = _points(theta, theta_p)
    _check_dim(g, t)
    return t, tp, _eval(g, t), _eval(g, tp)


def _check_domain(g: Generator, t: Vector) -> None:
    """DomainError unless t lies in g's domain, the coordinate check of as_vector first."""
    _check_finite(t)
    problem = g.domain.violation(t)
    if problem is not None:
        raise DomainError(f"{g.name or 'generator'}: {problem}")


def _eval(g: Generator, t: Vector) -> float:
    """g at t, which must lie in the domain and give a finite value."""
    # A strictly interior point is finite; any other point, such as a derived
    # point that overflowed, gets the full domain check.
    # The test is Box.contains_interior, inlined: this runs per evaluation.  A
    # one-coordinate point inside its bounds skips the loop; every other
    # point, a 1-D one outside them included, runs it.
    bounds = g.domain._bounds
    if len(t) != 1 or not bounds[0][0] < t[0] < bounds[0][1]:
        for (lo, hi), x in zip(bounds, t):
            if not lo < x < hi:
                _check_domain(g, t)
                break
    try:
        value = float(g.eval(t))
    except OverflowError:
        value = math.inf
    except (ValueError, ZeroDivisionError) as e:  # e.g. a term that underflows to 0
        raise DomainError(f"{g.name or 'generator'} cannot be evaluated at {t}: {e}") from None
    if not math.isfinite(value):
        raise DomainError(
            f"{g.name or 'generator'} evaluated to non-finite value {value} at {t}"
        )
    return value


def _gradient(g: Generator, t: Vector) -> Vector:
    bounds = g.domain._bounds  # Box.contains_interior, inlined as in _eval
    if len(t) != 1 or not bounds[0][0] < t[0] < bounds[0][1]:
        for (lo, hi), x in zip(bounds, t):
            if not lo < x < hi:
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
    except GradientError:  # the finite-difference room check, already typed
        raise
    except OverflowError:
        raise GradientError(f"gradient of {g.name or 'generator'} overflowed at {t}") from None
    except (ValueError, ZeroDivisionError) as e:
        raise GradientError(
            f"gradient of {g.name or 'generator'} cannot be evaluated at {t}: {e}") from None
    # One test for the length and the values: a 1-D generator's one component
    # pays one more comparison.
    if not (math.isfinite(grad[0]) if len(grad) == 1 == g.dim
            else len(grad) == g.dim and all(map(math.isfinite, grad))):
        if len(grad) != g.dim:
            raise GradientError(f"gradient of {g.name or 'generator'} has {len(grad)} "
                                f"components, its dimension is {g.dim}, at {t}")
        raise GradientError(f"gradient of {g.name or 'generator'} is not finite at {t}: {grad}")
    return grad


# --------------------------------------------------------------------------
# Built-in catalog
# --------------------------------------------------------------------------


def _sq_norm(t: Vector) -> float:
    return sum(map(mul, t, t))


# The n-D gradients take the norm (and exp) once per call.
def _neg_gauss_grad(t: Vector) -> Vector:
    e = math.exp(-_sq_norm(t))
    return tuple([2.0 * x * e for x in t])


def _log_norm_sq_grad(t: Vector) -> Vector:
    s = _sq_norm(t)
    return tuple([2.0 * x / s for x in t])


def _neg_gauss(dim):
    if dim == 1:  # _sq_norm((x,)) is 0 + x * x, and x * x is never -0.0
        return (lambda t: -math.exp(-(t[0] * t[0])), real_line(),
                lambda t: (2.0 * t[0] * math.exp(-(t[0] * t[0])),), "quasiconvex")
    return lambda t: -math.exp(-_sq_norm(t)), real_line(dim), _neg_gauss_grad, "quasiconvex"


def _linear_fractional(a, b, c, d):
    if c > 0.0:
        dom = Box((Interval(-d / c, math.inf, lower_open=True),))
    elif c < 0.0:
        dom = Box((Interval(-math.inf, -d / c, upper_open=True),))
    elif d <= 0.0:
        raise SpecError("linear-fractional with c=0 requires d > 0")
    else:
        dom = real_line()
    det = a * d - b * c
    return (lambda t: (a * t[0] + b) / (c * t[0] + d), dom,
            lambda t: (det / (c * t[0] + d) ** 2,), "quasilinear",
            f"linear-fractional({a},{b},{c},{d})")


def build_generator(spec) -> Generator:
    """Build a Generator from a spec dict, JSON text, or bare built-in name.

    Spec forms, with each built-in's keys at their defaults:
      {"name": "linear" | "quadratic" | "cubic" | "sqrt" | "log" | "abs" | "sine"}
      {"name": "neg-gauss", "dim": 1} or {"name": "log-norm-sq", "dim": 2}
      {"name": "linear-fractional", "a": 1, "b": 0, "c": 0, "d": 1}
      {"affine": {"a": >0, "b": 0, "inner": spec}} or {"negate": spec}
      {"separable": [spec, ...]} of 1-D component specs
    Any other key, a numeric key that is not a finite number (text, bool and
    null included), a number JSON cannot hold, a dim that is not a whole
    number from 1 to MAX_DIM (10000), a separable list of more than MAX_DIM
    specs, or a spec nested more than MAX_DEPTH (32) levels deep raises
    SpecError, and so does JSON text nesting more than 2 * MAX_DEPTH - 1 brackets.
    """
    spec = _parse(spec)
    g = _build(spec)
    # Generator is frozen; g was just built and is not shared yet.
    object.__setattr__(g, "spec", _canonical_json(spec))
    return g


def _not_json(value):
    # The key checks let through only numbers, so a value JSON cannot hold is one.
    raise SpecError(f"generator spec value {_shown(value)} is not a JSON number")


# One encoder for every spec: json.dumps would build a new one per call.
_canonical_json = json.JSONEncoder(sort_keys=True, default=_not_json).encode


def _parse(spec):
    """JSON text to a dict, a bare name to {"name": name}; anything else as is."""
    if isinstance(spec, str):
        text = spec.strip()
        if text.startswith("{"):
            # A spec of MAX_DEPTH levels nests at most 2 * MAX_DEPTH - 1 brackets: two per
            # affine or separable level, one per negate level and one for the leaf.
            # Deeper text is refused before the decoder can recurse into it.
            if _nesting(text) > 2 * MAX_DEPTH - 1:
                raise SpecError(f"generator spec nests deeper than {MAX_DEPTH} levels")
            try:
                return json.loads(text)
            except ValueError as e:  # JSONDecodeError, or an integer past the digit limit
                raise SpecError(f"invalid generator spec JSON: {e}") from None
        return {"name": text}
    return spec


def _nesting(text: str) -> int:
    """The deepest bracket nesting of JSON text outside its strings."""
    # With escaped backslashes, then escaped quotes dropped, the even parts
    # between quotes lie outside strings; an unclosed string runs to the end.
    outside = "".join(text.replace("\\\\", "").replace('\\"', "").split('"')[::2])
    return max(itertools.accumulate(((c in "[{") - (c in "]}") for c in outside), initial=0))


# Each form checks its keys after it is built: a spec with an unknown key and
# another fault raises the other fault's error.
def _only(obj: dict, keys, where: str) -> None:
    for key in obj:
        if key not in keys:
            raise SpecError(f"{where} takes only the keys {list(keys)}, not {_shown(key)}")


def _shown(value, form=repr) -> str:
    """form(value), or a stand-in for an int past Python's int-to-str digit limit
    or a container nested past the recursion limit."""
    try:
        return form(value)
    except (ValueError, RecursionError):
        return f"<{type(value).__name__} too long to print>"


# A domain holds one Interval per coordinate, so a larger dim, or a separable
# list of more components, is refused before anything is built.
MAX_DIM = 10_000
# Each level of a spec is one recursive _build call.
MAX_DEPTH = 32


def _whole(value) -> bool:
    """A real, not a bool, with no fractional part: NaN and the infinities have one."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and value % 1 == 0


def _count(name: str, value, least: int) -> int:
    """A count argument (k_max, samples, n_lines, n_points, dim) as an int >= ``least``."""
    if not _whole(value):
        raise ValueError(f"{name} must be a whole number, got {_shown(value)}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}")
    return int(value)


def _dim(name: str, value) -> int:
    if _whole(value) and value >= 1:
        if value > MAX_DIM:
            raise SpecError(f"{name} dim must be at most {MAX_DIM}, got {_shown(value)}")
        return int(value)
    raise SpecError(f"{name} dim must be a whole number >= 1, got {_shown(value)}")


def _real(form: str, key: str, value) -> float:
    """A numeric spec value: a finite real that is not a bool, as a float."""
    # The bounds reject NaN, the infinities, and ints or fractions past the floats.
    if (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and -sys.float_info.max <= value <= sys.float_info.max):
        return float(value)
    raise SpecError(f"{form} {key} must be a finite number, got {_shown(value)}")


def _affine(obj, depth: int) -> Generator:
    if not isinstance(obj, dict) or "inner" not in obj or "a" not in obj:
        raise SpecError('affine spec needs {"a": >0, "b": real, "inner": spec}')
    a = _real("affine", "a", obj["a"])
    b = _real("affine", "b", obj.get("b", 0.0))
    if not a > 0.0:
        raise SpecError(f"affine wrap requires a > 0, got {a}")
    inner = _build(obj["inner"], depth)
    _only(obj, ("a", "b", "inner"), "affine object")
    ie, ig = inner.eval, inner.grad
    # A built inner's gradient has inner.dim components, so a 1-D one is (c,).
    grad = ((lambda t: (a * ig(t)[0],)) if inner.dim == 1
            else lambda t: tuple(a * c for c in ig(t)))
    return Generator(inner.dim, lambda t: a * ie(t) + b, inner.domain, grad,
                     inner.declared_class, name=f"affine({a},{b},{inner.name})")


def _negate(inner_spec, depth: int) -> Generator:
    inner = _build(inner_spec, depth)
    ie, ig = inner.eval, inner.grad
    return Generator(inner.dim, lambda t: -ie(t), inner.domain, lambda t: tuple(-c for c in ig(t)),
                     _NEGATED_CLASS[inner.declared_class], name=f"neg({inner.name})")


def _separable(items, depth: int) -> Generator:
    if not isinstance(items, (list, tuple)) or not items:
        raise SpecError("separable spec needs a non-empty list of 1-D specs")
    if len(items) > MAX_DIM:
        raise SpecError(f"separable spec takes at most {MAX_DIM} components, got {len(items)}")
    comps = [_build(item, depth) for item in items]
    for g in comps:
        if g.dim != 1:
            raise SpecError(f"separable component {g.name!r} must be 1-D, has dim {g.dim}")
    evals = [g.eval for g in comps]
    grads = [g.grad for g in comps]
    dim = len(comps)
    domain = Box(tuple(g.domain.intervals[0] for g in comps))
    cls = "convex" if all(g.declared_class == "convex" for g in comps) else "unknown"
    return Generator(dim, lambda t: sum(evals[i]((t[i],)) for i in range(dim)), domain,
                     lambda t: tuple(grads[i]((t[i],))[0] for i in range(dim)),
                     cls, name="sum(" + ",".join(g.name for g in comps) + ")")


# The spec schema.  A built-in name maps to (fields, {}) when it takes no key,
# else to (factory, its keys with their defaults), the factory taking the keys'
# values.  The fields are eval, domain, grad, declared class and, when it is
# not the bare name, the generator's name.  A combinator tag maps to the
# function that builds a generator from its value.
_BUILTINS = {
    "linear": ((lambda t: t[0], real_line(), lambda t: (1.0,), "quasilinear"), {}),
    "quadratic": ((lambda t: t[0] * t[0], real_line(), lambda t: (2.0 * t[0],), "convex"), {}),
    "cubic": ((lambda t: t[0] ** 3, real_line(), lambda t: (3.0 * t[0] * t[0],),
               "quasilinear"), {}),
    "sqrt": ((lambda t: math.sqrt(t[0]), positive_ray(), lambda t: (0.5 / math.sqrt(t[0]),),
              "quasilinear"), {}),
    "log": ((lambda t: math.log(t[0]), positive_ray(), lambda t: (1.0 / t[0],),
             "quasilinear"), {}),
    # grad at 0 returns the subgradient 0; abs is the catalog's
    # non-differentiable case (delta-averaging does not need grad).
    "abs": ((lambda t: abs(t[0]), real_line(),
             lambda t: (math.copysign(1.0, t[0]) if t[0] != 0.0 else 0.0,), "convex"), {}),
    "neg-gauss": (_neg_gauss, {"dim": 1}),
    "log-norm-sq": (lambda dim: (lambda t: math.log(_sq_norm(t)), positive_ray(dim),
                                 _log_norm_sq_grad, "quasiconvex"), {"dim": 2}),
    "linear-fractional": (_linear_fractional, {"a": 1.0, "b": 0.0, "c": 0.0, "d": 1.0}),
    "sine": ((lambda t: math.sin(t[0]), real_line(), lambda t: (math.cos(t[0]),), "unknown"), {}),
}
_COMBINATORS = {"affine": _affine, "negate": _negate, "separable": _separable}


def _build(spec, depth: int = 1) -> Generator:
    """The generator of a spec at nesting level ``depth``: a combinator's value
    is one level deeper than the combinator."""
    if depth > MAX_DEPTH:
        raise SpecError(f"generator spec nests deeper than {MAX_DEPTH} levels")
    spec = _parse(spec)
    if not isinstance(spec, dict):
        raise SpecError(f"generator spec must be a dict or name, got {type(spec).__name__}")
    forms = ("name", *_COMBINATORS)
    tags = [k for k in forms if k in spec]
    if len(tags) != 1:
        raise SpecError(
            f"generator spec needs exactly one of {'/'.join(forms)}, got "
            f"[{', '.join(map(_shown, sorted(spec, key=lambda k: _shown(k, str))))}]")
    tag = tags[0]
    if tag != "name":
        g = _COMBINATORS[tag](spec[tag], depth + 1)
        _only(spec, (tag,), f"spec {tag!r}")
        return g
    name = spec["name"]
    if not isinstance(name, str) or name not in _BUILTINS:
        raise SpecError(f"unknown generator name {_shown(name)}")
    entry, keys = _BUILTINS[name]
    params = {k: _dim(name, spec.get(k, v)) if k == "dim" else _real(name, k, spec.get(k, v))
              for k, v in keys.items()}
    ev, domain, grad, cls, *label = entry(**params) if keys else entry
    _only(spec, ("name", *keys), f"spec {name!r}")
    return Generator(domain.dim, ev, domain, grad, cls, name=label[0] if label else name)


# --------------------------------------------------------------------------
# Sampling-based quasiconvexity refutation
# --------------------------------------------------------------------------


class ViolationWitness(NamedTuple):
    """Three points on one segment whose values are not unimodal."""

    endpoints: tuple
    alphas: tuple
    values: tuple

    def __str__(self) -> str:
        pts = ", ".join(f"alpha={a:.6g} value={v:.6g}"
                        for a, v in zip(self.alphas, self.values))
        return f"segment {self.endpoints[0]} -> {self.endpoints[1]}: {pts}"


class QuasiconvexityReport(NamedTuple):
    verdict: str  # "no-violation-found" | "refuted"
    witnesses: tuple
    lines_checked: int
    points_per_line: int

    @property
    def refuted(self) -> bool:
        return self.verdict == "refuted"


def check_quasiconvex(g: Generator, box: Box, n_lines: int, n_points: int,
                      seed: int) -> QuasiconvexityReport:
    """Try to refute quasiconvexity of g by sampling segments inside box.

    Refutes when an interior sample exceeds both endpoint values, or the
    values along a segment are not decreasing-then-increasing, beyond a
    tolerance of 1e-12 * (1 + max |value|).  Sampling can never certify
    quasiconvexity, hence the "no-violation-found" verdict.  The box must be
    bounded, and its closed hull inside g's domain, open ends or not: the
    sampler can return either end of the box.
    """
    witnesses = []
    for p, q, alphas, values in _segments(g, box, n_lines, n_points, seed):
        tol = 1e-12 * (1.0 + max(abs(v) for v in values))
        w = _segment_violation(p, q, alphas, values, tol)
        if w is not None:
            witnesses.append(w)
    verdict = "refuted" if witnesses else "no-violation-found"
    return QuasiconvexityReport(verdict, tuple(witnesses), int(n_lines), int(n_points))


def _segments(g: Generator, box: Box, n_lines: int, n_points: int, seed: int):
    """Yield (p, q, alphas, values) for n_lines seeded segments p -> q in box.

    ``values`` are g at ``n_points`` equally spaced points, endpoints included.
    The box must be bounded, and its closed hull inside g's domain.
    """
    n_lines, n_points = _count("n_lines", n_lines, 1), _count("n_points", n_points, 3)
    if not box.bounded:
        raise ValueError("sampling requires a bounded box")
    # rng.uniform can return either end, so the box's two corners, and with
    # them its closed hull, must lie in the domain.
    if box.dim != g.dim or not all(map(g.domain.contains, zip(*box._bounds))):
        raise DomainError(f"box is not inside the domain of {g.name or 'generator'}")
    rng = random.Random(seed)
    alphas = [i / (n_points - 1) for i in range(n_points)]
    for _ in range(n_lines):
        p = sample_point(rng, box)
        q = sample_point(rng, box)
        # A box wider than the float range samples an infinite endpoint.
        _check_finite(p)
        _check_finite(q)
        yield p, q, alphas, [_eval(g, _lerp(p, q, a)) for a in alphas]


def _segment_violation(p, q, alphas, values, tol):
    """The first non-unimodal triple on the segment p -> q as a witness, or None."""
    triple = _violating_triple(values, tol)
    if triple is None:
        return None
    return ViolationWitness((p, q), tuple(alphas[i] for i in triple),
                            tuple(values[i] for i in triple))


def _violating_triple(values, tol):
    last = len(values) - 1
    end_max = max(values[0], values[last])
    for i in range(1, last):
        if values[i] > end_max + tol:
            return 0, i, last
    m = min(range(len(values)), key=values.__getitem__)
    for j in range(m):  # prefix must be non-increasing
        if values[j + 1] > values[j] + tol:
            return j, j + 1, m
    for j in range(m, last):  # suffix must be non-decreasing
        if values[j + 1] < values[j] - tol:
            return m, j, j + 1
    return None
