"""Import hygiene: every name a module imports is used in it.

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
