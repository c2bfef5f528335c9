"""qcdiv's import stays free of dataclass machinery it does not need.

Most ``qcdiv`` processes evaluate one divergence, so their cost is mostly the
import and the exit.  ``cli.run`` freezes the heap the import left, so exit no
longer collects it, and what the import builds is the larger part left.  Each
``@dataclass`` is built by ``dataclasses._process_class`` at import, which
costs about ten times a ``NamedTuple``.  The records are named
tuples or small hand-written classes instead.  ``core.Generator`` is the one
exception: ``bench/spans.py`` calls ``dataclasses.replace`` on every generator
that ``build_generator`` returns, to wrap its ``eval`` and ``grad``, and it
keeps ``import dataclasses`` in ``core.py`` with it.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qcdiv"
MODULES = sorted(PACKAGE.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), str(path))


def _name(node):
    node = node.func if isinstance(node, ast.Call) else node
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def test_generator_is_the_only_dataclass():
    found = [f"{path.stem}.{node.name}" for path in MODULES for node in ast.walk(_tree(path))
             if isinstance(node, ast.ClassDef)
             and any(_name(d) == "dataclass" for d in node.decorator_list)]
    assert found == ["core.Generator"]


def test_only_core_imports_dataclasses():
    importers = []
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            if "dataclasses" in names:
                importers.append(path.name)
    assert importers == ["core.py"]
