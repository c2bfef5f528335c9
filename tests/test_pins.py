"""The pin harness itself: every pin file has one group, and only ``pins.py`` records or writes.

``pins.GROUPS`` maps each file of ``data/`` to the module of ``corpora/``
whose corpus makes it.  ``matches_its_pin`` is the one comparison of a case
with its pin; each group's test module binds it as its ``*_matches_its_pin``
test, one test per pinned key.  Here: the files and the groups match one to
one, each file holds exactly its group's keys, the corpora need neither
pytest nor hypothesis, and no other module records warnings or writes into
``data/``, so that every golden corpus goes through the one encoder and the
one regeneration command.
"""

import ast
import importlib
from pathlib import Path

import pytest

import pins

TESTS = Path(__file__).resolve().parent


def matches_its_pin(name: str):
    """The test that compares each case of pin file ``name`` with its pin, one per key."""
    group = importlib.import_module(pins.GROUPS[name])

    @pytest.mark.parametrize("key", sorted(group.CORPUS))
    def case_matches_its_pin(key):
        assert group.record(group.CORPUS[key]) == pins.load(name)[key]

    return case_matches_its_pin


def test_each_pin_file_belongs_to_exactly_one_group():
    assert sorted(path.name for path in pins.DATA.iterdir()) == sorted(pins.GROUPS)
    assert len(set(pins.GROUPS.values())) == len(pins.GROUPS)


@pytest.mark.parametrize("name", sorted(pins.GROUPS))
def test_the_pins_cover_every_case(name):
    group = importlib.import_module(pins.GROUPS[name])
    assert sorted(pins.load(name)) == sorted(group.CORPUS)


def test_the_corpora_import_neither_pytest_nor_hypothesis():
    for path in sorted((TESTS / "corpora").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                   for alias in node.names}
        modules |= {node.module for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.module}
        assert not {module.split(".")[0] for module in modules} & {"pytest", "hypothesis"}, \
            path.name


def _calls(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            yield getattr(func, "attr", getattr(func, "id", None)), node


def test_only_the_harness_records_warnings_or_writes_pins():
    for path in sorted(TESTS.rglob("*.py")):
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
