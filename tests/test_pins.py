"""The pin harness itself: every pin file has one group, and only ``pins.py`` records or writes.

``pins.GROUPS`` maps each file of ``data/`` to the test module whose corpus
makes it; that module compares each case with its pin.  Here: the files and
the groups match one to one, each file holds exactly its group's keys, and no
other test module records warnings or writes into ``data/``, so that every
golden corpus goes through the one encoder and the one regeneration command.
"""

import ast
import importlib
from pathlib import Path

import pytest

import pins

TESTS = Path(__file__).resolve().parent


def test_each_pin_file_belongs_to_exactly_one_group():
    assert sorted(path.name for path in pins.DATA.iterdir()) == sorted(pins.GROUPS)
    assert len(set(pins.GROUPS.values())) == len(pins.GROUPS)


@pytest.mark.parametrize("name", sorted(pins.GROUPS))
def test_the_pins_cover_every_case(name):
    group = importlib.import_module(pins.GROUPS[name])
    assert sorted(pins.load(name)) == sorted(group.CORPUS)


def _calls(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            yield getattr(func, "attr", getattr(func, "id", None)), node


def test_only_the_harness_records_warnings_or_writes_pins():
    for path in sorted(TESTS.glob("*.py")):
        if path.name == "pins.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls = list(_calls(tree))
        assert not any(name == "catch_warnings" and any(
            kw.arg == "record" for kw in node.keywords) for name, node in calls), path.name
        # A module that writes files must not name the pin directory.
        writes = any(name in ("write_text", "write_bytes", "dump") for name, _ in calls)
        names_data = any(isinstance(node, ast.Constant) and node.value == "data"
                         or isinstance(node, ast.Attribute) and node.attr == "DATA"
                         for node in ast.walk(tree))
        assert not (writes and names_data), path.name
