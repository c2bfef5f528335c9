"""Generator specs in every form ``build_generator`` takes: the corpus of ``data/spec_pins.json``.

The file holds, for every spec below, what ``build_generator`` made of it: the
canonical ``spec``, ``name``, ``declared_class``, ``dim`` and
``str(domain)``, and the value and gradient at two interior points as
``float.hex``; or, for a spec it rejects, the error type and message.  The
corpus has every built-in with its keys left out and written out, each as a
bare name, JSON text and a dict, nested ``affine``/``negate``/``separable``
trees, every ``SpecError`` path of the schema, and JSON text on both sides of
the depth rule.  ``PYTHONPATH=src python tests/pins.py`` regenerates the file.
"""

import json

from qcdiv.core import _BUILTINS, MAX_DEPTH, MAX_DIM, build_generator, eval_generator, gradient


def negations(levels: int) -> str:
    """JSON text of a spec ``levels`` deep: log under ``levels - 1`` negations."""
    return '{"negate": ' * (levels - 1) + '"log"' + "}" * (levels - 1)


def affines(levels: int) -> str:
    """JSON text of a spec ``levels`` deep with ``2 * levels - 1`` brackets: log under
    ``levels - 1`` affine wraps."""
    return '{"affine": {"a": 1, "inner": ' * (levels - 1) + '{"name": "log"}' + "}}" * (levels - 1)


NESTED = {
    "affine of log": {"affine": {"a": 2, "b": 1, "inner": "log"}},
    "affine without b": {"affine": {"a": 0.5, "inner": {"name": "quadratic"}}},
    "negate of affine of negate": {"negate": {"affine": {"a": 3, "b": -1,
                                                         "inner": {"negate": "sqrt"}}}},
    "separable of three": {"separable": ["quadratic", {"negate": "log"},
                                         {"affine": {"a": 2, "inner": "abs"}}]},
    "negate of separable": {"negate": {"separable": ["quadratic", "abs"]}},
    "affine of 2-D neg-gauss": {"affine": {"a": 1, "b": -2,
                                           "inner": {"name": "neg-gauss", "dim": 2}}},
    "separable of linear-fractionals": {"separable": [
        {"name": "linear-fractional", "c": 1, "d": 2},
        {"affine": {"a": 1, "inner": {"name": "linear-fractional", "c": -1, "d": 2}}}]},
    "affine chain at the depth cap": json.loads(affines(MAX_DEPTH)),
}
# Each SpecError path of the schema, and the errors of specs that are not specs.
ERRORS = {
    "unknown key next to a name": {"name": "log", "dim": 2},
    "unknown key next to a tag": {"negate": "log", "scale": 2},
    "unknown key inside affine": {"affine": {"a": 1, "inner": "log", "c": 2}},
    "unknown key deep inside": {"separable": ["quadratic", {"negate": {"name": "abs", "x": 1}}]},
    "dim 0": {"name": "neg-gauss", "dim": 0},
    "dim 1.5": {"name": "log-norm-sq", "dim": 1.5},
    "dim as text": {"name": "neg-gauss", "dim": "2"},
    "dim true": {"name": "neg-gauss", "dim": True},
    # Refused before any Interval of the domain is built.
    "dim past the maximum": {"name": "neg-gauss", "dim": MAX_DIM + 1},
    "dim 1e12": {"name": "neg-gauss", "dim": 1e12},
    "dim 10**5000": {"name": "log-norm-sq", "dim": 10**5000},
    "affine b null": {"affine": {"a": 1, "b": None, "inner": "log"}},
    "affine a as a list": {"affine": {"a": [2], "inner": "log"}},
    "affine a as text": {"affine": {"a": "2", "inner": "log"}},
    "affine a true": {"affine": {"a": True, "inner": "log"}},
    "affine a Infinity": {"affine": {"a": float("inf"), "inner": "log"}},
    "affine a past the floats": {"affine": {"a": 10**400, "inner": "log"}},
    "linear-fractional c NaN": {"name": "linear-fractional", "c": float("nan")},
    "linear-fractional c NaN in JSON text": '{"name": "linear-fractional", "c": NaN}',
    "linear-fractional c 'nan'": {"name": "linear-fractional", "c": "nan"},
    "linear-fractional c 'abc'": {"name": "linear-fractional", "c": "abc"},
    "affine a = 0": {"affine": {"a": 0, "inner": "log"}},
    "affine a < 0": {"affine": {"a": -1, "b": 2, "inner": "quadratic"}},
    "affine without inner": {"affine": {"a": 1}},
    "linear-fractional c = 0, d = 0": {"name": "linear-fractional", "c": 0, "d": 0},
    "linear-fractional c = 0, d < 0": {"name": "linear-fractional", "c": 0, "d": -1},
    "2-D separable component": {"separable": ["quadratic", {"name": "log-norm-sq"}]},
    "empty separable": {"separable": []},
    "a number": 3,
    "a list": ["log"],
    "None": None,
    "unknown name": "nope",
    "unknown name in a dict": {"name": 7},
    "two tags": {"name": "log", "negate": "log"},
    "no tag": {},
    "invalid JSON": '{"name": "log"',
    # Refused before the level past the cap, or the component past MAX_DIM, is built.
    "nested one past the depth cap": json.loads(negations(MAX_DEPTH + 1)),
    "nested 500 deep as JSON text": negations(500),
    "JSON text nested past the decoder's limit": negations(5000),
    # The depth rule for text counts the brackets outside JSON strings.
    "affine chain one past the depth cap as JSON text": affines(MAX_DEPTH + 1),
    "a leaf value nested 1000 deep as JSON text": '{"name": "abs", "x": ' + "[" * 1000
                                                  + "]" * 1000 + "}",
    "brackets inside a JSON string": '{"name": "' + "[" * 100 + '"}',
    "separable past the maximum": {"separable": ["log"] * (MAX_DIM + 1)},
    # Keys and names past the int-to-str digit limit are shown by a stand-in.
    "an int key past the digit limit next to a name": {"name": "log", 10**5000: 1},
    "an int key past the digit limit without a tag": {10**5000: 1},
    "a name past the digit limit": {"name": 10**5000},
}


def _forms(label, spec):
    """The spec as a dict and as JSON text, and as a bare name when it is one."""
    cases = {f"{label}: dict": spec, f"{label}: json": json.dumps(spec)}
    if list(spec) == ["name"]:
        cases[f"{label}: name"] = spec["name"]
    return cases


def _corpus() -> dict:
    cases = {}
    for name, (_, keys) in _BUILTINS.items():
        cases.update(_forms(f"built-in {name}", {"name": name}))
        if keys:
            cases.update(_forms(f"built-in {name} explicit", {"name": name, **keys}))
    cases.update(_forms("built-in neg-gauss dim 3", {"name": "neg-gauss", "dim": 3}))
    cases.update(_forms("built-in log-norm-sq dim 3", {"name": "log-norm-sq", "dim": 3}))
    cases.update(_forms("built-in linear-fractional c > 0",
                        {"name": "linear-fractional", "a": 2, "b": -1, "c": 1, "d": 2}))
    cases.update(_forms("built-in linear-fractional c < 0",
                        {"name": "linear-fractional", "c": -1, "d": 2}))
    for label, spec in NESTED.items():
        cases.update(_forms(f"nested {label}", spec))
    cases.update({f"error {label}": spec for label, spec in ERRORS.items()})
    return cases


CORPUS = _corpus()


def _hex(values) -> list:
    return [float(v).hex() for v in values]


def record(spec) -> dict:
    """What ``build_generator(spec)`` made, with eval and grad at 0.75 and 1.5 (+0.25 per axis)."""
    try:
        g = build_generator(spec)
    except Exception as e:  # the pin records every error type and message
        return {"error": [type(e).__name__, str(e)]}
    points = [tuple(x + 0.25 * i for i in range(g.dim)) for x in (0.75, 1.5)]
    return {"spec": g.spec, "name": g.name, "declared_class": g.declared_class, "dim": g.dim,
            "domain": str(g.domain), "points": [_hex(p) for p in points],
            "eval": _hex(eval_generator(g, p) for p in points),
            "grad": [_hex(gradient(g, p)) for p in points]}
