"""Every name a package module imports is used in that module.

A refactor that moves work elsewhere tends to leave its imports behind;
this reads each module's syntax tree with the standard ``ast`` module and
lists the imported names that no expression refers to.  ``__init__.py``
imports names to re-export them and is left out.  The same trees also
show module-level private helpers that nothing in the package refers to,
and public names that nothing but tests calls.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "modmax"
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


def _defined(node):
    """The name a module-level statement defines: a function, a class or
    the first name assigned (None for any other statement)."""
    if isinstance(node, _DEFINITIONS):
        return node.name
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        target = node.targets[0] if isinstance(node, ast.Assign) else node.target
        return target.id if isinstance(target, ast.Name) else None
    return None


def _references(tree, imports=True):
    """(owner, name) for every name, attribute and, unless ``imports`` is
    false, imported name in a module, where owner is the module-level
    definition or assignment the reference sits in (None outside any)."""
    for node in tree.body:
        owner = _defined(node)
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                yield owner, sub.id
            elif isinstance(sub, ast.Attribute):
                yield owner, sub.attr
            elif isinstance(sub, ast.ImportFrom) and imports:
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


def _is_cache_init(node) -> bool:
    """``x._cache = {}`` or ``x._cache: dict = {}``."""
    if isinstance(node, ast.AnnAssign):
        targets = [node.target]
    elif isinstance(node, ast.Assign):
        targets = node.targets
    else:
        return False
    return (len(targets) == 1 and isinstance(targets[0], ast.Attribute)
            and targets[0].attr == "_cache"
            and isinstance(node.value, ast.Dict) and not node.value.keys)


def _cache_uses(node, scope=()):
    """(dotted enclosing definition, line) for every ``_cache`` attribute or
    string under ``node``, leaving out the empty initialisations."""
    for child in ast.iter_child_nodes(node):
        if _is_cache_init(child):
            continue
        inner = scope + (child.name,) if isinstance(child, _DEFINITIONS) else scope
        if (isinstance(child, ast.Attribute) and child.attr == "_cache"
                or isinstance(child, ast.Constant) and child.value == "_cache"):
            yield ".".join(scope), child.lineno
        yield from _cache_uses(child, inner)


def test_only_memo_reads_or_writes_a_cache():
    """Every memo goes through ``groups._memo`` and is emptied only by
    ``groups._forget``.  Besides them, a ``_cache`` is only set to ``{}``:
    where an owner is built, and by ``Group.__getstate__``, which ships
    none to a worker process."""
    allowed = {("groups.py", "_memo"), ("groups.py", "_forget"),
               ("groups.py", "Group.__getstate__")}
    uses = {(p.name, scope, line)
            for p in SRC.glob("*.py")
            for scope, line in _cache_uses(ast.parse(p.read_text(encoding="utf-8")))}
    assert {(name, scope) for name, scope, _ in uses} >= allowed
    stray = sorted(use for use in uses if use[:2] not in allowed)
    assert not stray, f"_cache read or written outside groups._memo: {stray}"


# public for the tests alone, each on purpose
TEST_ONLY_EXPORTS = {
    "chief_series": "a test kills a mutant of its choice of cover",
    "find_isomorphism": "the tests' isomorphism oracle",
}


def test_every_export_has_a_caller_outside_the_tests():
    """Every public name a package module defines at module level (a
    function, a class or an assigned name) is referred to by the package,
    the demos or the benchmark, from outside its own definition; an import
    is no reference.  A reference from inside a name that has no such
    caller does not count, so a helper only a dead name calls is dead
    too."""
    public = {name for p in MODULES for node in ast.parse(p.read_text(encoding="utf-8")).body
              if (name := _defined(node)) and not name.startswith("_")}
    callers = [*MODULES, *(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    refs = {(owner, name) for p in callers
            for owner, name in _references(ast.parse(p.read_text(encoding="utf-8")), False)
            if name in public and owner != name}
    dead = set()
    while True:
        newly = {name for name in public - dead - set(TEST_ONLY_EXPORTS)
                 if not any(n == name and owner not in dead for owner, n in refs)}
        if not newly:
            break
        dead |= newly
    assert not dead, f"public names with no caller outside the tests: {sorted(dead)}"
    assert set(TEST_ONLY_EXPORTS) <= public
