"""Every name a package module imports is used in that module, every name
it exports is defined in it, and every private name it defines at module
level is named somewhere in the package.

No linter is a dependency, so this reads each module with ``ast``: an
imported name counts as used when some expression of the module names it.
The modules postpone annotations with ``from __future__ import
annotations``, so annotations are expressions here too, never strings.
``__init__.py`` only re-exports, so it is left out.
"""

import ast
import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "comove"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name the module's imports bind, with the line that binds it."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def test_modules_are_found():
    assert {p.name for p in MODULES} >= {"cli.py", "miner.py", "model.py", "store.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"{path.name}: imported but never used: {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_exports_are_defined(path):
    module = importlib.import_module(f"comove.{path.stem}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{path.name}: __all__ names undefined {missing}"


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """Each private function, class and constant the module defines at its
    top level, with the line that defines it."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):  # a, b = ... too
            targets = [n.id for t in node.targets for n in ast.walk(t)
                       if isinstance(n, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        names.update((name, node.lineno) for name in targets
                     if name.startswith("_") and not name.startswith("__"))
    return names


def _named(tree: ast.Module) -> set[str]:
    """The names a module reads, as a name or an attribute, or imports."""
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            named.update(alias.name for alias in node.names)
    return named


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_private_definitions_are_named(path):
    # a private definition that no module of the package names is left over
    # from code that is gone
    named = set().union(*(_named(ast.parse(p.read_text(), filename=str(p)))
                          for p in PACKAGE.glob("*.py")))
    defined = _private_definitions(ast.parse(path.read_text(), filename=str(path)))
    unnamed = {name: line for name, line in defined.items() if name not in named}
    assert not unnamed, f"{path.name}: defined but never named: {unnamed}"
