"""Every name a package module imports is used in that module.

A refactor that moves work elsewhere tends to leave its imports behind;
this reads each module's syntax tree with the standard ``ast`` module and
lists the imported names that no expression refers to.  ``__init__.py``
imports names to re-export them and is left out.  The same trees also
show module-level private helpers that nothing in the package refers to.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "modmax"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def test_modules_are_found():
    assert {"classify.py", "groups.py", "lattice.py", "verify.py"} <= {
        p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(set(_imported_names(tree)) - used)
    assert not unused, f"{path.name} imports names it never uses: {unused}"


_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _references(tree):
    """(owner, name) for every name, attribute and imported name in a module,
    where owner is the module-level definition the reference sits in (None
    outside any)."""
    for node in tree.body:
        owner = node.name if isinstance(node, _DEFINITIONS) else None
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                yield owner, sub.id
            elif isinstance(sub, ast.Attribute):
                yield owner, sub.attr
            elif isinstance(sub, ast.ImportFrom):
                for alias in sub.names:
                    yield owner, alias.name


def test_every_private_helper_is_used():
    """A module-level private function or class that nothing but its own
    body refers to is dead: a refactor that folds a helper away should take
    it out too."""
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"))
             for p in SRC.glob("*.py")}
    refs = {(module, owner, name)
            for module, tree in trees.items()
            for owner, name in _references(tree)}
    unused = sorted(
        f"{module}:{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, _DEFINITIONS) and node.name.startswith("_")
        and not any(name == node.name and (m, owner) != (module, node.name)
                    for m, owner, name in refs))
    assert not unused, f"private helpers nothing refers to: {unused}"
