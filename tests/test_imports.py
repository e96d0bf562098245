"""Every name a module of the package imports is used in that module, and
every private module-level name is used somewhere in the package.

No linter ships with the test dependencies, so this is the F401 check
(unused import): each `src/skewfrac/*.py` except `__init__.py`, whose
imports are the public re-exports, is parsed with `ast`.  A name counts
as used when it appears as an identifier anywhere in the module, string
annotations included.  `from __future__` imports and lines marked
`# noqa: F401` are skipped.

The second check finds the dead code F401 misses: a module-level
`_x = ...`, `def _x` or `class _x` that no module of the package reads,
as a name, an attribute or an import, apart from its definition.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "skewfrac"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported(tree, lines):
    """(name bound by the import, line) for each import to check."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            yield (alias.asname or alias.name.split(".")[0]), node.lineno


def _used(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        for field in ("annotation", "returns"):
            annotation = getattr(node, field, None)
            if annotation is None:
                continue
            for part in ast.walk(annotation):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    names |= _used(ast.parse(part.value, mode="eval"))
    return names


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    source = path.read_text()
    tree = ast.parse(source)
    used = _used(tree)
    unused = [f"{path.name}:{line}: {name}"
              for name, line in _imported(tree, source.splitlines())
              if name not in used]
    assert not unused, "imported but unused: " + ", ".join(unused)


def _private_definitions(tree):
    """(name, line) for each private name a module binds at top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                for part in ast.walk(target):
                    if isinstance(part, ast.Name):
                        yield part.id, node.lineno


def _read(tree):
    """Every name a module reads: loaded names, attributes and imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_no_dead_private_names():
    trees = {p.name: ast.parse(p.read_text()) for p in PACKAGE.glob("*.py")}
    read = set().union(*map(_read, trees.values()))
    dead = [f"{name}:{line}: {private}"
            for name, tree in sorted(trees.items())
            for private, line in _private_definitions(tree)
            if private.startswith("_") and not private.startswith("__")
            and private not in read]
    assert not dead, "defined but never used: " + ", ".join(dead)
