"""The nested-support densities are one power family, and the uniform is its alpha = 1 member.

``NestedUniform`` and ``PowerNested`` used to implement ``support``, ``pdf``
and ``log_pdf`` each on their own.  Both now inherit them from one private
base class, and ``NestedUniform`` is the family at alpha = 1, where the power
formulas reduce exactly to exp(-theta) and -theta.  The reference classes
below are the previous code, kept verbatim; the properties check that the
family gives the same floats (compared as ``float.hex``) inside the support.
The guards at the end keep the fold: no public density class defines the
density methods itself, and the alpha > 1 rule has one message in ``src/``.
"""

import ast
import math
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from qcdiv.core import DomainError, RangeError, _Frozen, _validate_positive
from qcdiv.statdiv import NestedUniform, PowerNested

SRC = Path(__file__).resolve().parent.parent / "src" / "qcdiv"
FAST = settings(derandomize=True, deadline=None, max_examples=200)
DENSITY_METHODS = {"support", "pdf", "log_pdf"}


# --------------------------------------------------------------------------
# The previous versions, verbatim
# --------------------------------------------------------------------------


# The support (0, e^theta) of both densities; RangeError when e^theta leaves the floats.
def ref_support(theta: float) -> tuple:
    try:
        return (0.0, math.exp(theta))
    except OverflowError:
        raise RangeError(f"the support (0, e^theta) leaves the floats: theta = {theta!r}") from None


class RefNestedUniform(_Frozen):
    """Uniform density on (0, e^theta): p(x) = exp(-theta) there, 0 elsewhere."""

    _fields = ("theta",)

    def __init__(self, theta: float):
        object.__setattr__(self, "theta", _validate_positive("theta", theta))

    def support(self):
        return ref_support(self.theta)

    def pdf(self, x: float) -> float:
        lo, hi = self.support()
        return math.exp(-self.theta) if lo < x < hi else 0.0

    def log_pdf(self, x: float) -> float:
        return -self.theta


class RefPowerNested(_Frozen):
    """Density alpha * x^(alpha-1) * exp(-theta*alpha) on (0, e^theta), alpha > 1."""

    _fields = ("alpha", "theta")

    def __init__(self, alpha: float, theta: float):
        if not float(alpha) > 1.0:
            raise ValueError(f"power family exponent alpha must be > 1, got {alpha}")
        object.__setattr__(self, "alpha", float(alpha))
        object.__setattr__(self, "theta", _validate_positive("theta", theta))

    def support(self):
        return ref_support(self.theta)

    def pdf(self, x: float) -> float:
        lo, hi = self.support()
        if not lo < x < hi:
            return 0.0
        # The density is at most alpha * e^-theta; a product past that, or
        # one that raised, overflowed on the way, and the log form has it.
        try:
            p = self.alpha * x ** (self.alpha - 1.0) * math.exp(-self.theta * self.alpha)
            if p < math.inf:
                return p
        except OverflowError:
            pass
        return math.exp(self.log_pdf(x))

    def log_pdf(self, x: float) -> float:
        """The log of the density formula at a finite x > 0; the support is not checked."""
        if 0.0 < x < math.inf:
            return math.log(self.alpha) + (self.alpha - 1.0) * math.log(x) - self.theta * self.alpha
        raise DomainError(f"log_pdf needs a finite x > 0, got {x!r}")


# --------------------------------------------------------------------------
# Same floats inside the support
# --------------------------------------------------------------------------

# theta up to 709.7, where the reference's support is still finite.
THETAS = st.floats(min_value=1e-300, max_value=709.7)
ALPHAS = st.floats(min_value=1.0, max_value=1000.0, exclude_min=True)


def _inside(data, theta):
    return data.draw(st.floats(min_value=0.0, max_value=math.exp(theta),
                               exclude_min=True, exclude_max=True), label="x")


def _same_floats(new, ref, x):
    assert new.support() == ref.support()
    assert new.pdf(x).hex() == ref.pdf(x).hex(), (new, x)
    assert new.log_pdf(x).hex() == ref.log_pdf(x).hex(), (new, x)


@FAST
@given(theta=THETAS, data=st.data())
def test_uniform_matches_the_reference_inside_the_support(theta, data):
    _same_floats(NestedUniform(theta), RefNestedUniform(theta), _inside(data, theta))


@FAST
@given(alpha=ALPHAS, theta=THETAS, data=st.data())
def test_power_matches_the_reference_inside_the_support(alpha, theta, data):
    _same_floats(PowerNested(alpha, theta), RefPowerNested(alpha, theta), _inside(data, theta))


def test_records_are_unchanged():
    u, p = NestedUniform(2), PowerNested(3, 0.5)
    assert repr(u) == "NestedUniform(theta=2.0)" and repr(p) == "PowerNested(alpha=3.0, theta=0.5)"
    assert u == NestedUniform(2.0) and hash(u) == hash(RefNestedUniform(2.0))
    assert p == PowerNested(3.0, 0.5) and hash(p) == hash(RefPowerNested(3.0, 0.5))
    assert u != PowerNested(1.5, 2.0) and not isinstance(u, PowerNested)
    assert not isinstance(p, NestedUniform)


# --------------------------------------------------------------------------
# Guards
# --------------------------------------------------------------------------


def _classes():
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, ast.ClassDef):
                yield node, {f.name for f in node.body if isinstance(f, ast.FunctionDef)}


def test_the_density_methods_have_one_private_owner():
    owners = [(node.name, sorted(methods & DENSITY_METHODS)) for node, methods in _classes()
              if methods & DENSITY_METHODS]
    assert len(owners) == 1
    name, methods = owners[0]
    assert name.startswith("_") and methods == sorted(DENSITY_METHODS)
    assert issubclass(NestedUniform, PowerNested.__mro__[1])


def test_the_alpha_rule_has_one_message():
    message = "power family exponent alpha must be > 1"
    assert sum(path.read_text().count(message) for path in SRC.glob("*.py")) == 1
