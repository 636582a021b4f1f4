"""Every module reads each name it imports.

An `ast` pass over the package and the tests; re-exports in the package's
__init__.py are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHECKED = [
    p for p in sorted((ROOT / "src" / "surrogate_dfl").glob("*.py")) if p.name != "__init__.py"
] + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(path) -> list:
    """Names bound by an import in path's module and never loaded there."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    loaded = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in loaded]


def test_checked_modules_found():
    names = {p.name for p in CHECKED}
    assert {"cli.py", "pipelines.py", "test_imports.py"} <= names


def test_no_unused_imports():
    unused = [entry for path in CHECKED for entry in unused_imports(path)]
    assert not unused, f"imported names never read: {unused}"
