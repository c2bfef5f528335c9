"""Generator specs in every form ``build_generator`` takes, pinned bit for bit.

``data/spec_pins.json`` holds what ``build_generator`` made of every spec of
``corpora/spec.py``, or the error it raised.  Here: each case matches its pin,
the forms of one spec build the same generator, and every error case raises
``SpecError``.  ``PYTHONPATH=src python tests/pins.py`` regenerates the file.
"""

import pins
from corpora.spec import CORPUS
from test_pins import matches_its_pin


def test_the_forms_of_a_spec_build_the_same_generator():
    pinned = pins.load("spec_pins.json")
    for key in CORPUS:
        if key.endswith(": dict"):
            label = key[: -len(": dict")]
            forms = [pinned[f"{label}: {form}"] for form in ("dict", "json", "name")
                     if f"{label}: {form}" in pinned]
            assert all(pin == forms[0] for pin in forms), label


def test_every_error_case_raises_spec_error_and_every_other_case_builds():
    for key, pin in pins.load("spec_pins.json").items():
        if key.startswith("error "):
            assert pin["error"][0] == "SpecError", key
        else:
            assert "error" not in pin, key


test_spec_matches_its_pin = matches_its_pin("spec_pins.json")
