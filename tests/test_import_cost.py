"""qcdiv's import stays free of dataclass machinery.

Most ``qcdiv`` processes evaluate one divergence, so their cost is mostly the
import and the exit.  ``cli.run`` freezes the heap the import left, so exit no
longer collects it, and what the import builds is the larger part left.  Each
``@dataclass`` is built by ``dataclasses._process_class`` at import, which
costs about ten times a ``NamedTuple``, and importing ``dataclasses`` pulls in
``inspect``, ``ast``, ``dis`` and ``tokenize``.  The records are named tuples
or ``_Frozen`` classes instead.  ``core.Generator`` builds its
``__dataclass_fields__`` on first read, so ``dataclasses.replace``, ``fields``
and ``is_dataclass`` still work on a generator and only their callers import
the module.  A fresh process that runs ``qcdiv eval`` and counts a
generator's work through ``core._counted`` imports neither ``dataclasses``
nor ``inspect``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qcdiv"
MODULES = sorted(PACKAGE.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), str(path))


def _name(node):
    node = node.func if isinstance(node, ast.Call) else node
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _imported(node) -> list:
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        return [node.module]
    return []


def test_no_dataclass_is_built_or_imported_at_module_level():
    decorated = [f"{path.stem}.{node.name}" for path in MODULES for node in ast.walk(_tree(path))
                 if isinstance(node, ast.ClassDef)
                 and any(_name(d) == "dataclass" for d in node.decorator_list)]
    assert decorated == []
    top_level = [path.name for path in MODULES for node in _tree(path).body
                 if "dataclasses" in _imported(node)]
    assert top_level == []


def test_only_core_imports_dataclasses():
    importers = [path.name for path in MODULES for node in ast.walk(_tree(path))
                 if "dataclasses" in _imported(node)]
    assert importers == ["core.py"]


# Modules the child had before qcdiv, such as those a site hook imports, are
# not qcdiv's to keep out.
CHILD = """
import sys
before = set(sys.modules)
import qcdiv, qcdiv.cli
code = qcdiv.cli.main(["eval", "--div=qcvx-bregman", "--gen=log", "--theta=1", "--theta-prime=2"])
counted = qcdiv.core._counted(qcdiv.build_generator("log"), {"eval": 0, "grad": 0})
assert counted(1.0) == 0.0
print(code, sorted({"dataclasses", "inspect"} & (set(sys.modules) - before)))
"""


def test_a_qcdiv_eval_process_imports_neither_dataclasses_nor_inspect():
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    proc = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True,
                          text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[-1] == "0 []"
