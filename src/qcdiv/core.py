"""Generators on box domains, extended-real values, and quasiconvexity refutation.

A Generator packages a real-valued function on a box domain together with an
optional analytic gradient and a declared convexity class.  The built-in
catalog (``build_generator``) covers the usual unimodal suspects (linear,
quadratic, cubic, sqrt, log, abs, neg-gauss, log-norm-sq, linear-fractional,
sine) plus three combinators: affine-wrap ``a*Q + b`` with ``a > 0``, negate,
and separable sums of 1-D generators.

Generator specs are plain JSON-shaped dicts, e.g. ``{"name": "log"}`` or
``{"affine": {"a": 2, "b": 3, "inner": {"name": "linear"}}}``; see the README
for the full schema.
"""

from __future__ import annotations

import json
import math
import numbers
import random
import sys
from dataclasses import KW_ONLY, dataclass
from typing import Callable, Optional

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


class ExtReal(float):
    """A finite real or +inf; never -inf, never NaN.

    Divergences use this as their codomain: +inf is an answer, not an error.
    ``tie_sensitive`` is set by branch-based divergences when the two values
    being compared were within 1e-12 relative of each other, i.e. the result
    sits on the finite/infinite discontinuity.
    """

    __slots__ = ("tie_sensitive",)

    def __new__(cls, value: float, tie_sensitive: bool = False) -> "ExtReal":
        v = float(value)
        if math.isnan(v) or v == -math.inf:
            raise ValueError(f"extended real must be finite or +inf, got {v!r}")
        if v == 0.0:
            v = 0.0  # never hand out -0.0
        self = super().__new__(cls, v)
        self.tie_sensitive = bool(tie_sensitive)
        return self

    @property
    def is_inf(self) -> bool:
        return math.isinf(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = ", tie_sensitive=True" if self.tie_sensitive else ""
        return f"ExtReal({float.__repr__(self)}{flag})"


POS_INF = ExtReal(math.inf)

# The one tie policy for every branch-based divergence: a one-ulp perturbation
# of either compared value can flip the finite/infinite branch within this band.
_TIE_REL_TOL = 1e-12


def _tie_sensitive(a: float, b: float) -> bool:
    return abs(a - b) <= _TIE_REL_TOL * max(abs(a), abs(b))


def _fmt(value: float, mode: str = "csv") -> str:
    """The output rule: infinity is ``inf``, zero is never ``-0``, and plain
    output has 6 significant digits where csv and json have 17."""
    v = float(value)
    if math.isinf(v):
        return "inf"
    if v == 0.0:
        v = 0.0  # never print -0
    return format(v, ".6g" if mode == "plain" else ".17g")


def as_vector(theta) -> Vector:
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


def _check_finite(coords: Vector) -> None:
    if not all(map(math.isfinite, coords)):
        i = next(i for i, c in enumerate(coords) if not math.isfinite(c))
        raise DomainError(f"coordinate {i} is not finite: {coords[i]!r}")


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


def interpolate(theta, theta_p, alpha: float) -> Vector:
    """Weighted linear interpolation (1-alpha)*theta + alpha*theta_p."""
    t, tp = _points(theta, theta_p)
    a = float(alpha)
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"interpolation weight must be in [0, 1], got {a}")
    return _lerp(t, tp, a)


def _lerp(t: Vector, tp: Vector, a: float) -> Vector:
    return tuple((1.0 - a) * x + a * y for x, y in zip(t, tp))


@dataclass(frozen=True)
class Interval:
    """One axis of a box: bounds may be infinite, and each end open or closed."""

    lower: float = -math.inf
    upper: float = math.inf
    lower_open: bool = False
    upper_open: bool = False

    def __post_init__(self):
        if not self.lower < self.upper:
            raise ValueError(f"degenerate interval: [{self.lower}, {self.upper}]")

    def contains(self, x: float) -> bool:
        if self.lower_open:
            if not x > self.lower:
                return False
        elif not x >= self.lower:
            return False
        if self.upper_open:
            return x < self.upper
        return x <= self.upper

    def contains_interval(self, other: "Interval") -> bool:
        if other.lower < self.lower or (
            other.lower == self.lower and self.lower_open and not other.lower_open
        ):
            return False
        if other.upper > self.upper or (
            other.upper == self.upper and self.upper_open and not other.upper_open
        ):
            return False
        return True

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.lower) and math.isfinite(self.upper)

    def __str__(self) -> str:
        lo = "(" if (self.lower_open or math.isinf(self.lower)) else "["
        hi = ")" if (self.upper_open or math.isinf(self.upper)) else "]"
        return f"{lo}{self.lower}, {self.upper}{hi}"


@dataclass(frozen=True)
class Box:
    """Product of intervals; the (convex) domain of a generator."""

    intervals: tuple

    def __post_init__(self):
        object.__setattr__(self, "intervals", tuple(self.intervals))
        if not self.intervals:
            raise ValueError("box needs at least one dimension")
        # Plain bounds for the interior test every generator evaluation runs.
        object.__setattr__(self, "_bounds", tuple((iv.lower, iv.upper) for iv in self.intervals))

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

    def contains_box(self, other: "Box") -> bool:
        return self.dim == other.dim and all(
            a.contains_interval(b) for a, b in zip(self.intervals, other.intervals)
        )

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
    return Box(tuple(Interval() for _ in range(dim)))


def positive_ray(dim: int = 1) -> Box:
    return Box(tuple(Interval(0.0, math.inf, lower_open=True) for _ in range(dim)))


def bounded_box(*bounds) -> Box:
    """Closed bounded box from (lo, hi) pairs."""
    return Box(tuple(Interval(float(lo), float(hi)) for lo, hi in bounds))


def sample_point(rng: random.Random, box: Box) -> Vector:
    """A uniform point of a bounded box: one ``rng.uniform`` per coordinate, in order."""
    return tuple(rng.uniform(iv.lower, iv.upper) for iv in box.intervals)


# The declared classes, each mapped to the class of the negated generator.
_NEGATED_CLASS = {
    "convex": "quasiconcave",
    "quasiconvex": "quasiconcave",
    "quasiconcave": "quasiconvex",
    "quasilinear": "quasilinear",
    "unknown": "unknown",
}


@dataclass(frozen=True)
class Generator:
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


def _values(g: Generator, t: Vector, tp: Vector):
    """(g(t), g(tp)) at two coerced points of one dimension."""
    _check_dim(g, t)
    return _eval(g, t), _eval(g, tp)


def _eval(g: Generator, t: Vector) -> float:
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


def _gradient(g: Generator, t: Vector) -> Vector:
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


# --------------------------------------------------------------------------
# Built-in catalog
# --------------------------------------------------------------------------


def _sq_norm(t: Vector) -> float:
    return sum(x * x for x in t)


def _builtin(name: str, params: dict) -> Generator:
    if name == "linear":
        return Generator(1, lambda t: t[0], real_line(), lambda t: (1.0,),
                         "quasilinear", name="linear")
    if name == "quadratic":
        return Generator(1, lambda t: t[0] * t[0], real_line(),
                         lambda t: (2.0 * t[0],), "convex", name="quadratic")
    if name == "cubic":
        return Generator(1, lambda t: t[0] ** 3, real_line(),
                         lambda t: (3.0 * t[0] * t[0],), "quasilinear", name="cubic")
    if name == "sqrt":
        return Generator(1, lambda t: math.sqrt(t[0]), positive_ray(),
                         lambda t: (0.5 / math.sqrt(t[0]),), "quasilinear", name="sqrt")
    if name == "log":
        return Generator(1, lambda t: math.log(t[0]), positive_ray(),
                         lambda t: (1.0 / t[0],), "quasilinear", name="log")
    if name == "abs":
        # grad at 0 returns the subgradient 0; abs is the catalog's
        # non-differentiable case (delta-averaging does not need grad).
        return Generator(1, lambda t: abs(t[0]), real_line(),
                         lambda t: (math.copysign(1.0, t[0]) if t[0] != 0.0 else 0.0,),
                         "convex", name="abs")
    if name == "neg-gauss":
        dim = int(params.get("dim", 1))
        return Generator(
            dim,
            lambda t: -math.exp(-_sq_norm(t)),
            real_line(dim),
            lambda t: tuple(2.0 * x * math.exp(-_sq_norm(t)) for x in t),
            "quasiconvex", name="neg-gauss",
        )
    if name == "log-norm-sq":
        dim = int(params.get("dim", 2))
        return Generator(
            dim,
            lambda t: math.log(_sq_norm(t)),
            positive_ray(dim),
            lambda t: tuple(2.0 * x / _sq_norm(t) for x in t),
            "quasiconvex", name="log-norm-sq",
        )
    if name == "linear-fractional":
        a = float(params.get("a", 1.0))
        b = float(params.get("b", 0.0))
        c = float(params.get("c", 0.0))
        d = float(params.get("d", 1.0))
        if c > 0.0:
            dom = Box((Interval(-d / c, math.inf, lower_open=True),))
        elif c < 0.0:
            dom = Box((Interval(-math.inf, -d / c, upper_open=True),))
        else:
            if d <= 0.0:
                raise SpecError("linear-fractional with c=0 requires d > 0")
            dom = real_line()
        det = a * d - b * c
        return Generator(
            1,
            lambda t: (a * t[0] + b) / (c * t[0] + d),
            dom,
            lambda t: (det / (c * t[0] + d) ** 2,),
            "quasilinear", name=f"linear-fractional({a},{b},{c},{d})",
        )
    if name == "sine":
        return Generator(1, lambda t: math.sin(t[0]), real_line(),
                         lambda t: (math.cos(t[0]),), "unknown", name="sine")
    raise SpecError(f"unknown generator name {name!r}")


def build_generator(spec) -> Generator:
    """Build a Generator from a spec dict, JSON text, or bare built-in name.

    Spec forms:
      {"name": <builtin>, ...params}            params: a,b,c,d for
                                                linear-fractional; dim for
                                                neg-gauss / log-norm-sq
      {"affine": {"a": >0, "b": r, "inner": spec}}
      {"negate": spec}
      {"separable": [spec, ...]}                1-D components only
    """
    spec = _parse(spec)
    g = _build(spec)
    # Generator is frozen; g was just built and is not shared yet.
    object.__setattr__(g, "spec", _canonical_json(spec))
    return g


# One encoder for every spec: json.dumps would build a new one per call.
_canonical_json = json.JSONEncoder(sort_keys=True).encode


def _parse(spec):
    """JSON text to a dict, a bare name to {"name": name}; anything else as is."""
    if isinstance(spec, str):
        text = spec.strip()
        if text.startswith("{"):
            try:
                return json.loads(text)
            except json.JSONDecodeError as e:
                raise SpecError(f"invalid generator spec JSON: {e}") from None
        return {"name": text}
    return spec


def _build(spec) -> Generator:
    spec = _parse(spec)
    if not isinstance(spec, dict):
        raise SpecError(f"generator spec must be a dict or name, got {type(spec).__name__}")

    tags = [k for k in ("name", "affine", "negate", "separable") if k in spec]
    if len(tags) != 1:
        raise SpecError(
            f"generator spec needs exactly one of name/affine/negate/separable, got {sorted(spec)}"
        )
    tag = tags[0]

    if tag == "name":
        return _builtin(spec["name"], {k: v for k, v in spec.items() if k != "name"})

    if tag == "affine":
        obj = spec["affine"]
        if not isinstance(obj, dict) or "inner" not in obj or "a" not in obj:
            raise SpecError('affine spec needs {"a": >0, "b": real, "inner": spec}')
        a = float(obj["a"])
        b = float(obj.get("b", 0.0))
        if not a > 0.0:
            raise SpecError(f"affine wrap requires a > 0, got {a}")
        inner = _build(obj["inner"])
        ie, ig = inner.eval, inner.grad
        grad = None if ig is None else (lambda t: tuple(a * c for c in ig(t)))
        return Generator(inner.dim, lambda t: a * ie(t) + b, inner.domain, grad,
                         inner.declared_class, name=f"affine({a},{b},{inner.name})")

    if tag == "negate":
        inner = _build(spec["negate"])
        ie, ig = inner.eval, inner.grad
        grad = None if ig is None else (lambda t: tuple(-c for c in ig(t)))
        return Generator(inner.dim, lambda t: -ie(t), inner.domain, grad,
                         _NEGATED_CLASS[inner.declared_class], name=f"neg({inner.name})")

    # separable sum
    items = spec["separable"]
    if not isinstance(items, (list, tuple)) or not items:
        raise SpecError("separable spec needs a non-empty list of 1-D specs")
    comps = [_build(item) for item in items]
    for g in comps:
        if g.dim != 1:
            raise SpecError(f"separable component {g.name!r} must be 1-D, has dim {g.dim}")
    evals = [g.eval for g in comps]
    grads = [g.grad for g in comps]
    dim = len(comps)
    domain = Box(tuple(g.domain.intervals[0] for g in comps))
    grad = None
    if all(gr is not None for gr in grads):
        grad = lambda t: tuple(grads[i]((t[i],))[0] for i in range(dim))
    cls = "convex" if all(g.declared_class == "convex" for g in comps) else "unknown"
    return Generator(dim, lambda t: sum(evals[i]((t[i],)) for i in range(dim)), domain, grad,
                     cls, name="sum(" + ",".join(g.name for g in comps) + ")")


# --------------------------------------------------------------------------
# Sampling-based quasiconvexity refutation
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ViolationWitness:
    """Three points on one segment whose values are not unimodal."""

    endpoints: tuple
    alphas: tuple
    values: tuple

    def __str__(self) -> str:
        pts = ", ".join(f"alpha={a:.6g} value={v:.6g}"
                        for a, v in zip(self.alphas, self.values))
        return f"segment {self.endpoints[0]} -> {self.endpoints[1]}: {pts}"


@dataclass(frozen=True)
class QuasiconvexityReport:
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
    quasiconvexity, hence the "no-violation-found" verdict.
    """
    witnesses = []
    for p, q, alphas, values in _segments(g, box, n_lines, n_points, seed):
        tol = 1e-12 * (1.0 + max(abs(v) for v in values))
        w = _segment_violation(p, q, alphas, values, tol)
        if w is not None:
            witnesses.append(w)
    verdict = "refuted" if witnesses else "no-violation-found"
    return QuasiconvexityReport(verdict, tuple(witnesses), n_lines, n_points)


def _segments(g: Generator, box: Box, n_lines: int, n_points: int, seed: int):
    """Yield (p, q, alphas, values) for n_lines seeded segments p -> q in box.

    ``values`` are g at ``n_points`` equally spaced points, endpoints included.
    The box must be bounded and inside g's domain.
    """
    if n_points < 3:
        raise ValueError("n_points must be >= 3")
    if n_lines < 1:
        raise ValueError("n_lines must be >= 1")
    if not box.bounded:
        raise ValueError("sampling requires a bounded box")
    if not g.domain.contains_box(box):
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
