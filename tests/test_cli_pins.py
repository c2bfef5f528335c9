"""`qcdiv eval` on a seeded corpus of argument vectors, pinned byte for byte.

``data/cli_pins.json`` holds, for every argv of ``corpora/cli.py``, what
``cli.main`` did in process (``pins.run_cli``): the exit code, stdout, stderr,
and the warnings it issued.  ``PYTHONPATH=src python tests/pins.py``
regenerates the file, and only a deliberate change of the CLI's output should.
A fixed slice of the corpus, and one 101 x 101 table, also run through
``python -m qcdiv`` and must exit, print and report as ``cli.main`` did.
Since ``pyproject.toml`` declares ``requires-python = ">=3.10"``, every other
CPython from 3.10 up that starts, on ``PATH`` or installed by pyenv, makes all
six pin files byte for byte, runs one pinned argv through ``python -m qcdiv``,
and checks that importing the CLI leaves ``dataclasses`` out and that
``dataclasses.replace`` and ``dataclasses.fields`` work on a generator.
"""

import functools
import json
import os
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import pins
from corpora.cli import CORPUS, FORMATS
from qcdiv import cli
from test_pins import matches_its_pin

TESTS = Path(__file__).resolve().parent
SRC = str(TESTS.parent / "src")


def test_the_corpus_reaches_every_div_format_and_exit_code():
    assert {argv[2] for argv in CORPUS.values()} == set(cli.DIVERGENCES)
    formats = {arg.split("=")[1] for argv in CORPUS.values() for arg in argv
               if arg.startswith("--format=")}
    assert formats == set(FORMATS)
    pinned = pins.load("cli_pins.json").values()
    assert {pin["exit"] for pin in pinned} == {0, 2}
    assert not any("usage:" in pin["stderr"] for pin in pinned)
    assert any(pin["warnings"] for pin in pinned)


test_eval_matches_its_pin = matches_its_pin("cli_pins.json")


def _child(args, python=sys.executable, path=SRC) -> dict:
    """``python args`` with ``path`` (``src``) on the path: its exit code, stdout and stderr."""
    env = {**os.environ, "PYTHONPATH": path + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([python, *args], env=env, capture_output=True, text=True, timeout=60)
    return {"exit": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}


def _process(argv, python=sys.executable) -> dict:
    """``python -m qcdiv argv`` in a child process: its exit code, stdout and stderr."""
    return _child(["-m", "qcdiv", *argv], python)


# The pins record cli.main in process.  A fixed slice of them runs through the
# process entry too: every 16th key whose run issued no warning, since a
# process prints its warnings to stderr.
PROCESS_KEYS = [key for key in sorted(CORPUS)
                if not pins.load("cli_pins.json")[key]["warnings"]][::16]


@pytest.fixture(scope="module")
def processes():
    # Two children at a time: each spends most of its life starting Python.
    with ThreadPoolExecutor(2) as pool:
        return dict(zip(PROCESS_KEYS, pool.map(_process, (CORPUS[k] for k in PROCESS_KEYS))))


@pytest.mark.parametrize("key", PROCESS_KEYS)
def test_a_process_matches_the_pin(key, processes):
    pin = pins.load("cli_pins.json")[key]
    assert processes[key] == {name: pin[name] for name in ("exit", "stdout", "stderr")}


# Prints sys.version under a CPython from 3.10 up, and nothing under an older one.
VERSION = "import sys; print(sys.version if sys.version_info >= (3, 10) else '')"


def _pyenv_root():
    root = os.environ.get("PYENV_ROOT")
    if root is None and shutil.which("pyenv"):
        root = subprocess.run(["pyenv", "root"], capture_output=True, text=True,
                              timeout=60).stdout.strip()
    return root


@functools.cache
def _other_pythons():
    """Each other CPython from 3.10 up that starts, one per ``sys.version``: the
    ``python3.N`` on PATH, then each version that pyenv installed."""
    candidates = [shutil.which(f"python3.{minor}") for minor in range(10, 14)]
    root = _pyenv_root()
    if root:
        candidates += sorted(map(str, Path(root).glob("versions/*/bin/python3")))
    found = {sys.version.strip(): None}
    for path in filter(None, candidates):
        run = subprocess.run([path, "-c", VERSION], capture_output=True, text=True, timeout=60)
        # A pyenv shim of a version it has not selected exits 127.
        if run.returncode == 0 and run.stdout.strip():
            found.setdefault(run.stdout.strip(), path)
    return [path for path in found.values() if path is not None]


# Prints the six pin texts as ``pins.texts()`` makes them, as one JSON object.
PIN_TEXTS = "import json, pins; print(json.dumps(pins.texts()))"


def test_every_supported_python_matches_the_pins():
    pythons = _other_pythons()
    if not pythons:
        pytest.skip("no other CPython from 3.10 up starts")
    key = PROCESS_KEYS[0]
    pin = pins.load("cli_pins.json")[key]

    def runs(python):
        texts = _child(["-c", PIN_TEXTS], python, SRC + os.pathsep + str(TESTS))
        return texts, _process(CORPUS[key], python)

    with ThreadPoolExecutor(2) as pool:
        for python, (texts, process) in zip(pythons, pool.map(runs, pythons)):
            assert texts["exit"] == 0, (python, texts["stderr"])
            made = json.loads(texts["stdout"])
            assert sorted(made) == sorted(pins.GROUPS), python
            differ = [name for name, text in made.items()
                      if text.encode("utf-8") != (pins.DATA / name).read_bytes()]
            assert differ == [], python
            assert process == {name: pin[name] for name in ("exit", "stdout", "stderr")}, python


# The CLI's import leaves dataclasses out, and a generator's dataclass API
# imports it on first use.  Modules a site hook imported before qcdiv do not count.
DATACLASS_API = """
import sys
before = set(sys.modules)
import qcdiv.cli
print("dataclasses" in set(sys.modules) - before)
import dataclasses
g = qcdiv.build_generator("log")
h = dataclasses.replace(g, eval=abs, grad=None)
print(h.eval(-2.0), h.grad, h.spec, h == g, [f.name for f in dataclasses.fields(g)])
"""


def test_every_supported_python_builds_the_dataclass_api_on_demand():
    pythons = _other_pythons()
    if not pythons:
        pytest.skip("no other CPython from 3.10 up starts on PATH")
    fields = ["dim", "eval", "domain", "grad", "declared_class", "name", "spec"]
    stdout = f'False\n2.0 None {{"name": "log"}} False {fields}\n'
    for python in pythons:
        assert _child(["-c", DATACLASS_API], python) == {"exit": 0, "stdout": stdout,
                                                         "stderr": ""}, python


def test_a_process_writes_a_whole_table():
    # 101 x 101 rows, flushed through the pipe when the process exits.
    argv = ["table", "--div", "qcvx-bregman", "--gen=log", "--grid-min=0.5", "--grid-max=13",
            "--grid-step=0.125"]
    run = _process(argv)
    assert run["stdout"].count("\n") == 1 + 101 * 101
    assert run == {name: pins.run_cli(argv)[name] for name in ("exit", "stdout", "stderr")}
