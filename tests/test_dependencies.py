"""qcdiv runs on the standard library alone."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qcdiv"


def test_pyproject_declares_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_imports_only_the_standard_library(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            assert name.split(".")[0] in sys.stdlib_module_names, (path.name, name)


NO_NUMPY = """\
import sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
import qcdiv
from qcdiv import cli
codes = [
    cli.main(["eval", "--div", "qcvx-bregman", "--gen", "log", "--theta", "1",
              "--theta-prime", "2"]),
    cli.main(["check", "--suite", "kl-quadrature", "--samples", "5", "--seed", "7"]),
]
sys.exit(max(codes))
"""


def test_cli_runs_with_numpy_unimportable():
    path = str(ROOT / "src") + os.pathsep + os.environ.get("PYTHONPATH", "")
    env = dict(os.environ, PYTHONPATH=path)
    r = subprocess.run([sys.executable, "-c", NO_NUMPY], capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "0.5\nsuite kl-quadrature: 30 checks, 0 failures -> PASS\n"
