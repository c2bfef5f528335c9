"""The process entry: ``python -m qcdiv`` and the ``qcdiv`` script run ``cli.run``.

``run`` freezes the heap that the imports left (``gc.freeze``) and then runs
``cli.main``, so no collection walks those objects again, at exit least of
all.  Only the entry freezes: ``import qcdiv`` and an in-process ``cli.main``
leave a library caller's heap as it was.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ARGV = ["eval", "--div", "qcvx-bregman", "--gen=log", "--theta=1", "--theta-prime=2"]
# In a fresh interpreter: ARGV through cli.main and a suite in process, then
# through the entry as ``python -m qcdiv`` runs it.  Each reports its exit
# code, its stdout and the freeze count after it.
PROBE = """
import contextlib, gc, io, json, runpy, sys
import qcdiv, qcdiv.cli
from qcdiv.checks import run_suite

def report(call):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = call()
        except SystemExit as e:
            code = e.code
    return [code, out.getvalue(), gc.get_freeze_count()]

def in_process():
    code = qcdiv.cli.main(argv)
    run_suite("means", 5, 1)
    return code

argv = json.loads(sys.argv[1])
main = report(in_process)
sys.argv = ["qcdiv", *argv]
entry = report(lambda: runpy.run_module("qcdiv", run_name="__main__"))
print(json.dumps({"main": main, "entry": entry}))
"""


@pytest.fixture(scope="module")
def probe():
    env = {**os.environ, "PYTHONPATH": str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", "")}
    out = subprocess.run([sys.executable, "-c", PROBE, json.dumps(ARGV)], env=env,
                         capture_output=True, text=True, check=True, timeout=60)
    return json.loads(out.stdout)


def test_the_library_and_main_freeze_nothing(probe):
    assert probe["main"] == [0, "0.5\n", 0]


def test_the_entry_freezes_the_heap_and_prints_what_main_prints(probe):
    code, stdout, frozen = probe["entry"]
    assert [code, stdout] == probe["main"][:2]
    assert frozen > 0


def test_the_script_runs_the_function_that_dash_m_runs():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        script = tomllib.load(fh)["project"]["scripts"]["qcdiv"]
    tree = ast.parse((SRC / "qcdiv" / "__main__.py").read_text())
    imported = {alias.asname or alias.name: f"qcdiv.{node.module}:{alias.name}"
                for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    exits = [node.args[0].func.id for node in ast.walk(tree)
             if isinstance(node, ast.Call) and ast.unparse(node.func) == "sys.exit"]
    assert [imported[name] for name in exits] == [script]
