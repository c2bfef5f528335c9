"""`qcdiv table` and `qcdiv limit-study` on small argument vectors, pinned byte for byte.

``data/study_table_pins.json`` holds what ``pins.run_cli`` saw for each argv
of ``corpora/study_table.py``: the exit code, stdout, stderr and warnings.
Over the whole group, every run exits 0, 1 or 2 without a traceback, and
prints no ``nan`` or ``-inf``.  ``PYTHONPATH=src python tests/pins.py``
regenerates the file.
"""

import pins
from test_pins import matches_its_pin


def test_every_run_exits_0_1_or_2_without_a_traceback_nan_or_minus_inf():
    pinned = pins.load("study_table_pins.json").values()
    assert {pin["exit"] for pin in pinned} == {0, 1, 2}
    for pin in pinned:
        assert "Traceback" not in pin["stderr"]
        tokens = pin["stdout"].replace(",", " ").split()
        assert "nan" not in tokens and "-inf" not in tokens, pin["argv"]


def _first_failure(div, gen, grid):
    """(row, column, message) of the first pair a row-major loop of library calls fails on."""
    for i, a in enumerate(grid):
        for j, b in enumerate(grid):
            try:
                pins.library_call(div, gen, {"--alpha": 0.3}, [(a,), (b,)])
            except ValueError as e:
                return i, j, str(e)


def test_the_interior_failure_is_not_in_the_first_row_or_column():
    pin = pins.load("study_table_pins.json")["table log-ratio sine, first failure inside"]
    i, j, message = _first_failure("log-ratio", "sine", [0.5, 1.5, 2.5, 3.5, 4.5])
    assert i > 0 and j > 0
    assert (pin["exit"], pin["stdout"], pin["stderr"]) == (2, "", f"qcdiv: error: {message}\n")


test_run_matches_its_pin = matches_its_pin("study_table_pins.json")
