"""The generator spec schema has one owner, ``core._BUILTINS`` with
``core._COMBINATORS``: the README and the ``build_generator`` docstring list
what it holds, and every spec tree drawn from it rebuilds from its ``spec``."""

import copy
import json
import math
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcdiv.core import _BUILTINS, _COMBINATORS, MAX_DIM, SpecError, build_generator

README = Path(__file__).resolve().parent.parent / "README.md"
TABLE = {name: keys for name, (_, keys) in _BUILTINS.items()}


def test_readme_builtins_are_the_table():
    section = README.read_text(encoding="utf-8").split("## Generator spec schema", 1)[1]
    rows = [line.strip("|").split("|") for line in section.splitlines() if line.startswith("| `")]
    listed = {name.strip(" `"): json.loads("{" + keys.replace("`", "") + "}")
              for name, *_, keys in rows}
    assert listed == TABLE


def test_docstring_builtins_are_the_table():
    listed = {}
    for form in re.findall(r'\{"name": [^{}]*\}', build_generator.__doc__):
        if " | " in form:
            listed.update(dict.fromkeys(re.findall(r'"([a-z-]+)"', form)[1:], {}))
        else:
            keys = json.loads(form)
            listed[keys.pop("name")] = keys
    assert listed == TABLE


def test_combinators_are_the_documented_tags():
    assert set(_COMBINATORS) == {"affine", "negate", "separable"}
    for tag in _COMBINATORS:
        assert f'{{"{tag}": ' in build_generator.__doc__


def test_an_integer_past_the_digit_limit_is_a_spec_error():
    # json.loads raises a bare ValueError for an integer longer than Python's
    # int-to-str digit limit (4300 digits by default).
    with pytest.raises(SpecError):
        build_generator('{"affine": {"a": 1' + "0" * 5000 + ', "inner": "log"}}')


def test_a_number_json_cannot_hold_is_a_spec_error():
    # A Fraction is a finite real, so it passes the key checks; the canonical
    # JSON of the spec is what refuses it.
    with pytest.raises(SpecError, match=re.escape("spec value Fraction(1, 3) is not a JSON")):
        build_generator({"affine": {"a": Fraction(1, 3), "inner": "log"}})


def test_a_numpy_integer_is_a_spec_error():
    np = pytest.importorskip("numpy")
    with pytest.raises(SpecError, match="is not a JSON number"):
        build_generator({"name": "neg-gauss", "dim": np.int64(2)})


def test_the_largest_dim_builds():
    assert build_generator({"name": "neg-gauss", "dim": MAX_DIM}).dim == MAX_DIM


# Values each built-in key takes; d > 0 keeps a linear-fractional with c = 0 valid.
VALUES = {
    "dim": st.integers(1, 3),
    "a": st.floats(-4, 4), "b": st.floats(-4, 4),
    "c": st.sampled_from([-2.0, -0.5, 0.0, 0.5, 2.0]), "d": st.floats(0.25, 4),
}
KNOWN = {"name", "inner", *_COMBINATORS, *VALUES}


@st.composite
def trees(draw, depth, one_d=False):
    """A valid spec tree of dicts; ``one_d`` trees build 1-D generators."""
    kind = draw(st.sampled_from(["name", "affine", "negate", "separable"][: 4 if depth else 1]))
    if kind == "name":
        name = draw(st.sampled_from([n for n in TABLE if not (one_d and n == "log-norm-sq")]))
        keys = draw(st.lists(st.sampled_from(list(TABLE[name])), unique=True)) if TABLE[name] else []
        node = {"name": name, **{k: draw(VALUES[k]) for k in keys}}
        if one_d and "dim" in node:
            node["dim"] = 1
        return node
    if kind == "affine":
        body = {"a": draw(st.floats(0.125, 4)), "inner": draw(trees(depth - 1, one_d))}
        if draw(st.booleans()):
            body["b"] = draw(st.floats(-4, 4))
        return {"affine": body}
    if kind == "negate":
        return {"negate": draw(trees(depth - 1, one_d))}
    parts = st.lists(trees(depth - 1, True), min_size=1, max_size=1 if one_d else 3)
    return {"separable": draw(parts)}


def sites(node):
    """Every dict of the tree that a key can be added to: specs and affine bodies."""
    yield node
    for tag, value in node.items():
        if tag == "affine":
            yield value
            yield from sites(value["inner"])
        elif tag == "negate":
            yield from sites(value)
        elif tag == "separable":
            for item in value:
                yield from sites(item)


@st.composite
def rendered(draw, node):
    """The tree with each spec written as a dict, as JSON text, or as a bare name."""
    if "affine" in node:
        body = node["affine"]
        node = {**node, "affine": {**body, "inner": draw(rendered(body["inner"]))}}
    elif "negate" in node:
        node = {**node, "negate": draw(rendered(node["negate"]))}
    elif "separable" in node:
        node = {**node, "separable": [draw(rendered(item)) for item in node["separable"]]}
    forms = ["dict", "text"] + (["bare"] if list(node) == ["name"] else [])
    form = draw(st.sampled_from(forms))
    return node["name"] if form == "bare" else json.dumps(node) if form == "text" else node


def interior_points(g, n=4):
    rng = random.Random(0)
    for _ in range(n):
        point = []
        for iv in g.domain.intervals:
            lo = iv.lower if math.isfinite(iv.lower) else min(iv.upper, 2.0) - 4.0
            hi = iv.upper if math.isfinite(iv.upper) else max(iv.lower, -2.0) + 4.0
            point.append(lo + (hi - lo) * rng.uniform(0.05, 0.95))
        yield tuple(point)


def outcome(f, t):
    try:
        return f(t)
    except (ArithmeticError, ValueError) as e:
        return type(e)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data())
def test_spec_trees_rebuild_and_reject_unknown_keys(data):
    tree = data.draw(trees(3))
    g = build_generator(data.draw(rendered(tree)))
    again = build_generator(g.spec)
    assert (again.spec, again.name, again.dim) == (g.spec, g.name, g.dim)
    assert g.grad is not None  # every built-in and combinator passes a gradient on
    for t in interior_points(g):
        assert outcome(again.eval, t) == outcome(g.eval, t)
        assert outcome(again.grad, t) == outcome(g.grad, t)

    bad = copy.deepcopy(tree)
    where = data.draw(st.sampled_from(list(sites(bad))))
    key = data.draw(st.text("abdimnxz-", min_size=1, max_size=4).filter(lambda k: k not in KNOWN))
    where[key] = 1
    with pytest.raises(SpecError, match=f"not {re.escape(repr(key))}$"):
        build_generator(data.draw(rendered(bad)))
