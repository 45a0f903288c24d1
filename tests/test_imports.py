"""Import hygiene: every name a module imports is used in it, and every
helper ``tests/support.py`` defines is used somewhere.

No linter runs on the repository, so this is its unused-import rule (F401)
over ``src/``, ``scripts/`` and ``tests/``.  A package's ``__init__.py``
imports names to re-export them and is skipped, as is any import on a line
marked ``# noqa: F401``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _unused_imports(path):
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            if alias.name != "*" and "noqa: F401" not in lines[alias.lineno - 1]:
                imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for name, line in imported.items()
        if name not in used
    ]


def test_every_imported_name_is_used():
    paths = sorted(
        path
        for top in ("src", "scripts", "tests")
        for path in (ROOT / top).rglob("*.py")
        if path.name != "__init__.py"
    )
    assert len(paths) > 20
    unused = [entry for path in paths for entry in _unused_imports(path)]
    assert unused == []


def _read_names(tree):
    """Names a tree reads: loaded names, attributes and names imported from."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _defined_names(stmt):
    """Top-level names a statement defines: a function, a class or an assignment."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return {t.id for t in targets if isinstance(t, ast.Name)}
    return set()


def test_every_support_helper_is_used():
    support = ROOT / "tests" / "support.py"
    used = {
        name
        for top in ("src", "scripts", "tests", "perfbench")
        for path in (ROOT / top).rglob("*.py")
        if path != support
        for name in _read_names(ast.parse(path.read_text()))
    }
    defined = set()
    for stmt in ast.parse(support.read_text()).body:
        own = _defined_names(stmt)
        defined |= own
        used |= _read_names(stmt) - own
    assert len(defined) > 30
    assert sorted(defined - used) == []
