"""Every private helper in the package has a caller.

An `ast` pass over src/surrogate_dfl: each `_`-prefixed module-level function
and method (dunder methods aside) must be referenced, by name or as an
attribute, somewhere in the package outside its own definition.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "surrogate_dfl").glob("*.py"))


def _private_defs(tree):
    """Module-level functions and methods whose names start with one `_`."""
    defs = []
    for node in tree.body:
        body = node.body if isinstance(node, ast.ClassDef) else [node]
        defs += [
            d for d in body
            if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef))
            and d.name.startswith("_") and not d.name.startswith("__")
        ]
    return defs


def _references(node):
    """Names loaded, and attribute names read, anywhere under node."""
    refs = []
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            refs.append(n.id)
        elif isinstance(n, ast.Attribute):
            refs.append(n.attr)
    return refs


def dead_helpers(sources) -> list:
    """'file:line: name' of each private helper in sources ({filename: text})
    that nothing outside its own definition references."""
    trees = {name: ast.parse(text, filename=name) for name, text in sources.items()}
    refs = [r for tree in trees.values() for r in _references(tree)]
    dead = []
    for name, tree in trees.items():
        for d in _private_defs(tree):
            if refs.count(d.name) == _references(d).count(d.name):
                dead.append(f"{name}:{d.lineno}: {d.name}")
    return dead


def test_package_found():
    assert {"cli.py", "pipelines.py", "optlayer.py"} <= {p.name for p in PACKAGE}


def test_no_dead_private_helpers():
    dead = dead_helpers({p.name: p.read_text() for p in PACKAGE})
    assert not dead, f"private helpers nothing calls: {dead}"


def test_planted_unused_helper_is_reported():
    planted = (
        "def _helper():\n"
        "    return _helper()\n"  # a call from inside its own definition does not count
        "\n"
        "def _used():\n"
        "    return 1\n"
        "\n"
        "class C:\n"
        "    def __init__(self):\n"
        "        self.v = self._method() + _used()\n"
        "\n"
        "    def _method(self):\n"
        "        return 2\n"
        "\n"
        "    def _unused_method(self):\n"
        "        return 3\n"
    )
    assert dead_helpers({"planted.py": planted}) == [
        "planted.py:1: _helper", "planted.py:14: _unused_method"
    ]
