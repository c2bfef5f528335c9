"""The public records keep their repr, equality, hash, immutability and checks.

Every record and validated class of the library is pinned here: its repr
text, that equal instances compare and hash equal, that a field cannot be
assigned, and the type and exact message of each validation error.
"""

import ast
import builtins
import math
from pathlib import Path

import pytest

from qcdiv import (
    Box,
    DimensionError,
    ExpFamily,
    ExtReal,
    Interval,
    LimitStudy,
    MeanSpec,
    NestedUniform,
    PowerNested,
    QuadratureResult,
    QuasiconvexityReport,
    RangeError,
    SuiteResult,
    ViolationWitness,
    build_generator,
)
from qcdiv.checks import SweepCase

QUAD = build_generator("quadratic")
UNIT = Box((Interval(0.0, 1.0),))

# (factory, repr text); the factory is called twice to get two equal instances.
REPRS = [
    (lambda: Interval(), "Interval(lower=-inf, upper=inf, lower_open=False, upper_open=False)"),
    (lambda: Interval(0.0, 1.0, lower_open=True),
     "Interval(lower=0.0, upper=1.0, lower_open=True, upper_open=False)"),
    (lambda: Box((Interval(0.0, 1.0),)),
     "Box(intervals=(Interval(lower=0.0, upper=1.0, lower_open=False, upper_open=False),))"),
    (lambda: MeanSpec.power(2.0), "MeanSpec(kind='power', delta=2.0, f=None)"),
    (lambda: MeanSpec.arithmetic(), "MeanSpec(kind='arithmetic', delta=None, f=None)"),
    (lambda: MeanSpec.quasi_arithmetic(QUAD),
     f"MeanSpec(kind='quasi-arithmetic', delta=None, f={QUAD!r})"),
    (lambda: NestedUniform(1.5), "NestedUniform(theta=1.5)"),
    (lambda: PowerNested(2.0, 0.5), "PowerNested(alpha=2.0, theta=0.5)"),
    (lambda: ExpFamily(QUAD), f"ExpFamily(F={QUAD!r})"),
    (lambda: QuadratureResult(1.0, 1e-12, 3, True),
     "QuadratureResult(value=1.0, error_bound=1e-12, panels=3, converged=True)"),
    (lambda: LimitStudy("x", (4,), (0.5,), (1.0,), ExtReal(1.0), 1e-4, 2.0),
     "LimitStudy(name='x', ks=(4,), params=(0.5,), values=(1.0,), target=ExtReal(1.0), "
     "tol=0.0001, scale=2.0)"),
    (lambda: ViolationWitness(((0.0,), (1.0,)), (0.0, 0.5, 1.0), (1.0, 2.0, 1.0)),
     "ViolationWitness(endpoints=((0.0,), (1.0,)), alphas=(0.0, 0.5, 1.0), values=(1.0, 2.0, 1.0))"),
    (lambda: QuasiconvexityReport("refuted", (), 4, 11),
     "QuasiconvexityReport(verdict='refuted', witnesses=(), lines_checked=4, points_per_line=11)"),
    (lambda: SweepCase(QUAD, UNIT), f"SweepCase(generator={QUAD!r}, box={UNIT!r})"),
    (lambda: SuiteResult("means"), "SuiteResult(suite='means', checked=0, failures=(), failed=0)"),
]
IDS = [text.split("(", 1)[0] for _, text in REPRS]


@pytest.mark.parametrize("make, text", REPRS, ids=IDS)
def test_repr(make, text):
    assert repr(make()) == text


@pytest.mark.parametrize("make", [make for make, _ in REPRS], ids=IDS)
def test_equal_instances_compare_and_hash_equal(make):
    a, b = make(), make()
    assert a == b and not a != b
    assert hash(a) == hash(b)


@pytest.mark.parametrize("make, other", [
    (lambda: Interval(0.0, 1.0), Interval(0.0, 2.0)),
    (lambda: Box((Interval(0.0, 1.0),)), Box((Interval(0.0, 2.0),))),
    (lambda: MeanSpec.power(2.0), MeanSpec.power(3.0)),
    (lambda: NestedUniform(1.5), NestedUniform(2.5)),
    (lambda: PowerNested(2.0, 0.5), PowerNested(3.0, 0.5)),
    (lambda: QuadratureResult(1.0, 0.0, 1, True), QuadratureResult(1.0, 0.0, 1, False)),
    (lambda: SuiteResult("means"), SuiteResult("means", checked=1)),
])
def test_instances_with_different_fields_differ(make, other):
    assert make() != other


@pytest.mark.parametrize("make", [make for make, _ in REPRS], ids=IDS)
def test_fields_cannot_be_assigned(make):
    record = make()
    field = repr(record).split("(", 1)[1].split("=", 1)[0]
    with pytest.raises(AttributeError):
        setattr(record, field, 1.0)
    with pytest.raises(AttributeError):
        delattr(record, field)


def test_suite_result_is_immutable_with_empty_defaults():
    a = SuiteResult("x")
    assert (a.suite, a.checked, a.failures, a.failed) == ("x", 0, (), 0)
    assert a.passed and not hasattr(a, "check")
    for field in SuiteResult._fields:
        with pytest.raises(AttributeError):
            setattr(a, field, 1)
    b = SuiteResult("z", 2, ("v",), 3)
    assert (b.failures, b.passed) == (("v",), False)
    assert a == SuiteResult("x")


# The one hand-written value type: ExtReal is a float with a tie flag.
VALUE_TYPES = {"ExtReal"}


def _class_bases():
    """Every class defined in src/qcdiv -> the names of its bases."""
    classes = {}
    for path in sorted((Path(__file__).resolve().parent.parent / "src" / "qcdiv").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                classes[node.name] = [ast.unparse(b).rsplit(".", 1)[-1] for b in node.bases]
    return classes


def test_every_class_is_a_record_that_cannot_be_assigned_or_an_error():
    """A class is a NamedTuple, a _Frozen subclass, an exception or warning, or a value type."""
    classes = _class_bases()

    def allowed(name):
        if name in ("NamedTuple", "_Frozen"):
            return True
        builtin = getattr(builtins, name, None)
        if isinstance(builtin, type):
            return issubclass(builtin, BaseException)
        return name in classes and bool(classes[name]) and all(map(allowed, classes[name]))

    assert VALUE_TYPES | {"_Frozen"} <= classes.keys()
    assert [n for n in classes if n not in VALUE_TYPES | {"_Frozen"} and not allowed(n)] == []


def test_box_keeps_its_intervals_as_a_tuple():
    box = Box([Interval(), Interval(0.0, 1.0)])
    assert box.intervals == (Interval(), Interval(0.0, 1.0))
    assert type(box.intervals) is tuple


LINE = build_generator({"separable": ["log", "log"]})

# (callable, error type, exact message) for every check a constructor makes.
INVALID = [
    (lambda: Interval(1.0, 1.0), ValueError, "degenerate interval: [1.0, 1.0]"),
    (lambda: Interval(2.0, 1.0), ValueError, "degenerate interval: [2.0, 1.0]"),
    (lambda: Interval(math.nan), ValueError, "degenerate interval: [nan, inf]"),
    (lambda: Interval(upper=-math.inf), ValueError, "degenerate interval: [-inf, -inf]"),
    (lambda: Box(()), ValueError, "box needs at least one dimension"),
    (lambda: Box([]), ValueError, "box needs at least one dimension"),
    (lambda: MeanSpec("median"), ValueError, "unknown mean kind 'median'"),
    (lambda: MeanSpec("power"), ValueError, "power mean needs an exponent delta"),
    (lambda: MeanSpec("quasi-arithmetic"), ValueError,
     "quasi-arithmetic mean needs a 1-D generator f"),
    (lambda: MeanSpec("quasi-arithmetic", f=LINE), DimensionError,
     "quasi-arithmetic generator must be 1-D"),
    (lambda: MeanSpec.quasi_arithmetic(LINE), DimensionError,
     "quasi-arithmetic generator must be 1-D"),
    (lambda: NestedUniform(0.0), ValueError, "theta must be > 0, got 0.0"),
    (lambda: NestedUniform(-1), ValueError, "theta must be > 0, got -1.0"),
    (lambda: NestedUniform(math.nan), ValueError, "theta must be > 0, got nan"),
    (lambda: PowerNested(1.0, 1.0), ValueError, "power family exponent alpha must be > 1, got 1.0"),
    (lambda: PowerNested(1, 1), ValueError, "power family exponent alpha must be > 1, got 1"),
    (lambda: PowerNested(2.0, 0.0), ValueError, "theta must be > 0, got 0.0"),
    (lambda: PowerNested(1.0, -1.0), ValueError, "power family exponent alpha must be > 1, got 1.0"),
    # Parameters whose log density leaves the floats: log_pdf returned -inf.
    (lambda: NestedUniform(math.inf), RangeError,
     "the log density leaves the floats: alpha = 1.0, theta = inf"),
    (lambda: PowerNested(2.0, 1e308), RangeError,
     "the log density leaves the floats: alpha = 2.0, theta = 1e+308"),
    (lambda: PowerNested(1.7976931348623157e308, 1e-300), RangeError,
     "the log density leaves the floats: alpha = 1.7976931348623157e+308, theta = 1e-300"),
]


@pytest.mark.parametrize("make, error, message", INVALID, ids=[m for _, _, m in INVALID])
def test_validation_errors(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert type(info.value) is error
    assert str(info.value) == message


# Real fields are stored as floats and open flags as bools, so a value that is
# not a real raises at construction rather than at first use.
def test_real_fields_are_stored_as_floats():
    iv = Interval(0, 1, lower_open=1)
    assert [type(v) for v in iv._astuple()] == [float, float, bool, bool]
    assert iv == Interval(0.0, 1.0, lower_open=True)
    assert type(NestedUniform("2").theta) is float and NestedUniform("2") == NestedUniform(2.0)
    assert PowerNested(3, "0.5") == PowerNested(3.0, 0.5)
    assert type(PowerNested(3, 1).alpha) is float
    assert type(MeanSpec("power", delta=2).delta) is float


NOT_REAL = [
    lambda: Interval("a", "b"),
    lambda: Interval(0.0, "b"),
    lambda: NestedUniform("x"),
    lambda: PowerNested("x", 1.0),
    lambda: PowerNested(2.0, "x"),
    lambda: MeanSpec("power", delta="x"),
]


@pytest.mark.parametrize("make", NOT_REAL)
def test_a_field_that_is_not_a_real_raises_value_error(make):
    with pytest.raises(ValueError, match="could not convert string to float"):
        make()


# A named tuple's _replace and _make (and copy.replace's __replace__) build an
# instance without calling __new__, so a validated class may have them only
# when they check as its constructor does.
BAD_FIELDS = [
    (Interval(0.0, 1.0), {"upper": -5.0}),
    (Box((Interval(),)), {"intervals": ()}),
    (MeanSpec.power(2.0), {"kind": "median"}),
    (MeanSpec.power(2.0), {"delta": None}),
    (MeanSpec.quasi_arithmetic(QUAD), {"f": LINE}),
    (NestedUniform(1.0), {"theta": 0.0}),
    (PowerNested(2.0, 1.0), {"alpha": 1.0}),
    (PowerNested(2.0, 1.0), {"theta": -1.0}),
]


@pytest.mark.parametrize("record, bad", BAD_FIELDS, ids=[str(b) for _, b in BAD_FIELDS])
def test_copy_paths_check_as_the_constructor_does(record, bad):
    cls = type(record)
    fields = {name: getattr(record, name) for name in cls._fields}
    fields.update(bad)
    with pytest.raises(ValueError) as expected:
        cls(**fields)
    copies = [getattr(record, "_replace", None), getattr(record, "__replace__", None)]
    calls = [lambda f=f: f(**bad) for f in copies if f is not None]
    if hasattr(cls, "_make"):
        calls.append(lambda: cls._make(fields.values()))
    for call in calls:
        with pytest.raises(ValueError) as info:
            call()
        assert (type(info.value), str(info.value)) == (type(expected.value), str(expected.value))
