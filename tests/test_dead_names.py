"""Every public name in qcdiv is exported or used somewhere.

A function, class or constant that is neither in ``qcdiv.__all__`` nor
referenced from ``src/``, ``tests/`` or ``bench/`` is a dead or parallel list,
and so is a public method or property that nothing there reads; this guard
keeps new ones from landing.
"""

import ast
import functools
import types
from collections import Counter
from pathlib import Path

import qcdiv

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qcdiv"


def _definitions(tree):
    """Public names bound by the top-level statements of one module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from (name for name in names if not name.startswith("_"))


def _members(tree):
    """(class, name) of the public methods and properties of one module's classes."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield node.name, item.name


def _uses(tree):
    """Names read, attributes accessed and names imported anywhere in one file."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]


@functools.cache
def _all_uses() -> Counter:
    uses = Counter()
    for folder in ("src", "tests", "bench"):
        for path in (ROOT / folder).rglob("*.py"):
            uses.update(_uses(ast.parse(path.read_text(), str(path))))
    return uses


def test_no_unused_public_module_names():
    uses = _all_uses()
    dead = [
        f"{path.name}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _definitions(ast.parse(path.read_text(), str(path)))
        if name not in qcdiv.__all__ and not uses[name]
    ]
    assert dead == []


def test_no_unused_public_methods_or_properties():
    # A member is read as an attribute, so its name is used wherever it is.
    uses = _all_uses()
    members = [(path.name, cls, name) for path in sorted(PACKAGE.glob("*.py"))
               for cls, name in _members(ast.parse(path.read_text(), str(path)))]
    assert len(members) > 20  # the walk reaches the class bodies
    assert [f"{path}: {cls}.{name}" for path, cls, name in members if not uses[name]] == []


def test_public_api_is_what_the_package_imports():
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = {alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names}
    assert qcdiv.__all__ == sorted(imported)
    assert not any(isinstance(getattr(qcdiv, name), types.ModuleType) for name in qcdiv.__all__)


def _imported(tree):
    """(name, line) of each name a module's imports bind, ``__future__`` features aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((alias.asname or alias.name.split(".")[0], node.lineno)
                        for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from ((alias.asname or alias.name, node.lineno) for alias in node.names)


def test_every_imported_name_is_read():
    # A stale import outlives the code that read it; the package's __init__
    # imports to re-export, so it is the one module left out.
    stale = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        stale += [f"{path.name}:{line}: {name}" for name, line in _imported(tree)
                  if name not in read]
    assert stale == []
