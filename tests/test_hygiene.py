"""Source hygiene: every package module imports at its top level only, and
uses every name it imports; every module-level private function or class
is named somewhere else in the package."""

import ast
import collections
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "twistparity"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _names(node):
    """Every name a node mentions: variables, attributes and imported names."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.asname or n.name


def unused_imports(source: str):
    """Names bound by import statements that no expression or __all__ mentions."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def function_imports(source: str):
    """(line, function name) of each import statement inside a function body."""
    found = set()
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    found.add((node.lineno, fn.name))
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_only_at_top_level(path):
    assert function_imports(path.read_text(encoding="utf-8")) == []


def test_function_level_import_is_reported():
    src = "import os\n\n\ndef f():\n    import math\n\n    def g():\n        from . import a\n"
    assert function_imports(src) == [(5, "f"), (8, "f"), (8, "g")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_reported():
    src = "import os\nfrom .a import b, c as d\nprint(b)\n"
    assert unused_imports(src) == [(1, "os"), (2, "d")]


def dead_private_definitions(sources: dict):
    """(module, name) of each module-level ``_private`` function or class
    that only its own definition and other dead definitions name."""
    top = [(module, node) for module, text in sources.items() for node in ast.parse(text).body]
    private = [
        (module, node)
        for module, node in top
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    ]
    dead: dict = {}
    while True:
        mentions = collections.Counter(
            name for _, node in top if node not in dead for name in _names(node)
        )
        found = {
            node: module
            for module, node in private
            if node not in dead
            and mentions[node.name] == sum(name == node.name for name in _names(node))
        }
        if not found:
            return sorted((module, node.name) for node, module in dead.items())
        dead.update(found)


def test_no_dead_private_definitions():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert dead_private_definitions(sources) == []


def test_dead_private_definition_is_reported():
    sources = {
        "a.py": "def _used():\n    pass\n\n\ndef _dead():\n    return _dead()\n\n\n"
        "class _Imported:\n    pass\n\n\nclass _Unused:\n    pass\n\n\n"
        "def _only_dead_callers():\n    pass\n\n\n"
        "def _dead_caller():\n    return _only_dead_callers()\n\n\n"
        "def public():\n    return _used()\n",
        "b.py": "from .a import _Imported\n",
    }
    assert dead_private_definitions(sources) == [
        ("a.py", "_Unused"),
        ("a.py", "_dead"),
        ("a.py", "_dead_caller"),
        ("a.py", "_only_dead_callers"),
    ]
