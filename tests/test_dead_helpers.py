"""Every helper, public name, public method and dataclass field in the
package has a caller or a reader.

An `ast` pass over src/surrogate_dfl: each `_`-prefixed module-level function
and method (dunder methods aside) must be referenced, by name or as an
attribute, somewhere in the package outside its own definition.  So must
each public module-level function and class, with references from
`__init__.py` (re-exports) not counted, and each public method of a class.
Each field of a dataclass must be read somewhere in the package: its name
loaded as an attribute; a local variable of the same name, assigning the
field or passing it by keyword does not count.  By the same test, so must
each attribute a module-level class stores on `self`.
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


def _public_defs(tree):
    """Module-level functions and classes whose names do not start with `_`."""
    return [
        d for d in tree.body
        if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not d.name.startswith("_")
    ]


def _public_methods(tree):
    """Methods, properties included, whose names do not start with `_`, of
    the module-level classes."""
    return [
        d for node in tree.body if isinstance(node, ast.ClassDef)
        for d in node.body
        if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef)) and not d.name.startswith("_")
    ]


def _is_dataclass(node):
    return isinstance(node, ast.ClassDef) and any(
        getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
        for d in node.decorator_list
    )


def _unreferenced(trees, defs_of) -> list:
    """'file:line: name' of each definition defs_of(tree) finds in trees
    ({filename: ast}) that nothing outside its own definition references."""
    refs = [r for tree in trees.values() for r in _references(tree)]
    return [
        f"{name}:{d.lineno}: {d.name}"
        for name, tree in trees.items()
        for d in defs_of(tree)
        if refs.count(d.name) == _references(d).count(d.name)
    ]


def dead_helpers(sources) -> list:
    """The private helpers in sources ({filename: text}) without a caller."""
    trees = {name: ast.parse(text, filename=name) for name, text in sources.items()}
    return _unreferenced(trees, _private_defs)


def dead_public(sources) -> list:
    """The public functions and classes in sources ({filename: text}) that
    nothing references outside their own definition and `__init__.py`."""
    trees = {
        name: ast.parse(text, filename=name)
        for name, text in sources.items() if name != "__init__.py"
    }
    return _unreferenced(trees, _public_defs)


def dead_methods(sources) -> list:
    """The public methods in sources ({filename: text}) that nothing
    references outside their own definition."""
    trees = {name: ast.parse(text, filename=name) for name, text in sources.items()}
    return _unreferenced(trees, _public_methods)


def dead_fields(sources) -> list:
    """'file:line: Class.field' of each dataclass field in sources
    ({filename: text}) whose name nothing loads as an attribute."""
    trees = {name: ast.parse(text, filename=name) for name, text in sources.items()}
    reads = _attribute_reads(trees)
    return [
        f"{name}:{f.lineno}: {cls.name}.{f.target.id}"
        for name, tree in trees.items()
        for cls in tree.body if _is_dataclass(cls)
        for f in cls.body
        if isinstance(f, ast.AnnAssign) and f.target.id not in reads
    ]


def _attribute_reads(trees):
    """Attribute names loaded anywhere in trees."""
    return {
        n.attr for tree in trees.values() for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    }


def dead_attributes(sources) -> list:
    """'file:line: Class.attr' of each attribute a module-level class in
    sources ({filename: text}) stores on self and nothing loads as an
    attribute, each at its first store."""
    trees = {name: ast.parse(text, filename=name) for name, text in sources.items()}
    reads = _attribute_reads(trees)
    dead = {}
    for name, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for n in ast.walk(cls):
                if (isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                        and isinstance(n.value, ast.Name) and n.value.id == "self"
                        and n.attr not in reads):
                    dead.setdefault((cls.name, n.attr), f"{name}:{n.lineno}: {cls.name}.{n.attr}")
    return list(dead.values())


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


def test_every_public_name_has_a_package_caller():
    dead = dead_public({p.name: p.read_text() for p in PACKAGE})
    assert not dead, f"public names nothing in the package calls: {dead}"


def test_planted_unused_public_name_is_reported():
    planted = (
        "def unused():\n"
        "    return unused()\n"  # a call from inside its own definition does not count
        "\n"
        "class Used:\n"
        "    def method(self):\n"
        "        return Used()\n"
        "\n"
        "class Reexported:\n"
        "    pass\n"
        "\n"
        "def caller():\n"
        "    return Used().method()\n"
    )
    init = "from .planted import Reexported\n__all__ = [Reexported, caller]\n"
    assert dead_public({"planted.py": planted, "__init__.py": init}) == [
        "planted.py:1: unused", "planted.py:8: Reexported", "planted.py:11: caller"
    ]


def test_every_public_method_has_a_package_caller():
    dead = dead_methods({p.name: p.read_text() for p in PACKAGE})
    assert not dead, f"public methods nothing in the package calls: {dead}"


def test_planted_unused_public_method_is_reported():
    planted = (
        "class C:\n"
        "    def used(self):\n"
        "        return 1\n"
        "\n"
        "    def unused(self):\n"
        "        return self.unused()\n"  # a call from inside its own definition does not count
        "\n"
        "    @property\n"
        "    def size(self):\n"
        "        return 2\n"
        "\n"
        "    def _private(self):\n"  # the private-helper rule covers it
        "        return 3\n"
        "\n"
        "def caller(c):\n"
        "    return c.used()\n"
    )
    assert dead_methods({"planted.py": planted}) == [
        "planted.py:5: unused", "planted.py:9: size"
    ]


def test_every_dataclass_field_is_read():
    dead = dead_fields({p.name: p.read_text() for p in PACKAGE})
    assert not dead, f"dataclass fields nothing reads: {dead}"


def test_planted_unread_dataclass_field_is_reported():
    planted = (
        "from dataclasses import dataclass, field\n"
        "\n"
        "@dataclass\n"
        "class D:\n"
        "    read: int\n"
        "    written: int = 0\n"
        "    _cache: dict = field(default=None)\n"
        "\n"
        "    def method(self):\n"
        "        self.written = self._cache\n"  # assigning a field does not read it
        "        return self.read\n"
        "\n"
        "@dataclass(frozen=True)\n"
        "class Unread:\n"
        "    value: float\n"
        "\n"
        "class Plain:\n"  # not a dataclass: its annotations are not fields
        "    hint: int\n"
        "\n"
        "def make():\n"
        "    value = 3.0\n"  # loading a local of a field's name does not read the field
        "    return D(read=1, written=2), Unread(value=value)\n"  # keywords do not read
    )
    assert dead_fields({"planted.py": planted}) == [
        "planted.py:6: D.written", "planted.py:15: Unread.value"
    ]


def test_every_stored_attribute_is_read():
    dead = dead_attributes({p.name: p.read_text() for p in PACKAGE})
    assert not dead, f"attributes stored on self that nothing reads: {dead}"


def test_planted_unread_attribute_is_reported():
    planted = (
        "class C:\n"
        "    def __init__(self):\n"
        "        self.read = 1\n"
        "        self.unread = 2\n"
        "        self.counted = 0\n"
        "\n"
        "    def bump(self):\n"
        "        self.counted += 1\n"  # an augmented assignment stores, it does not read
        "        self.unread = 3\n"  # reported once, at its first store
        "        return self.read\n"
        "\n"
        "def make(other):\n"
        "    other.elsewhere = 4\n"  # stored on another object: not this rule's case
        "    return C().bump()\n"
    )
    assert dead_attributes({"planted.py": planted}) == [
        "planted.py:4: C.unread", "planted.py:5: C.counted"
    ]
