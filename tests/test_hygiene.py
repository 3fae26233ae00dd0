"""Source hygiene: every package module imports at its top level only, and
uses every name it imports; every module-level private function or class,
and every public function, class or method, is named somewhere else in the
package; importing the command line loads no costly standard module."""

import ast
import collections
import os
import pathlib
import subprocess
import sys

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "twistparity"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _names(node, dead=()):
    """Every name a node mentions (variables, attributes and imported names)
    outside the subtrees of the ``dead`` nodes."""
    stack = [node]
    while stack:
        n = stack.pop()
        if n in dead:
            continue
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.asname or n.name
        stack.extend(ast.iter_child_nodes(n))


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


def _definitions(tree):
    """(qualified name, node) of each module-level function or class and of
    each method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item


def dead_definitions(sources: dict, select):
    """(module, qualified name) of each definition that ``select`` picks by
    qualified name and that only its own body and other dead definitions
    name.  Iterated, so a chain of dead definitions is reported whole."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    candidates = [
        (module, qual, node)
        for module, tree in trees.items()
        for qual, node in _definitions(tree)
        if select(qual)
    ]
    dead: dict = {}
    while True:
        mentions = collections.Counter(
            name for tree in trees.values() for name in _names(tree, dead)
        )
        found = {
            node: (module, qual)
            for module, qual, node in candidates
            if node not in dead
            and mentions[node.name] == sum(name == node.name for name in _names(node, dead))
        }
        if not found:
            return sorted(dead.values())
        dead.update(found)


def dead_private_definitions(sources: dict):
    """Dead module-level ``_private`` functions and classes."""
    return dead_definitions(
        sources, lambda qual: "." not in qual and qual.startswith("_") and not qual.startswith("__")
    )


def dead_public_definitions(sources: dict):
    """Dead public functions, classes and methods (of any module-level class)."""
    return dead_definitions(sources, lambda qual: not qual.rpartition(".")[2].startswith("_"))


# public definitions that nothing in the package calls, and why they stay
UNCALLED_PUBLIC = {
    ("cli.py", "_Parser.error"): "argparse calls it on a usage error",
    ("files.py", "load_curve"): "the benchmark's set-up imports it",
}


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


def test_every_public_definition_is_called():
    # a re-export in __init__.py is not a caller, so it is left out
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    assert dead_public_definitions(sources) == sorted(UNCALLED_PUBLIC)


def test_package_init_binds_only_the_version():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    bound = [a.asname or a.name for a in ast.walk(tree) if isinstance(a, ast.alias)]
    assert bound == ["__version__"]


def test_dead_public_definition_is_reported():
    sources = {
        "a.py": "class Poly:\n    def used(self):\n        return 1\n\n"
        "    def unused(self):\n        return self.unused()\n\n"
        "    def shift(self):\n        return self.compose()\n\n"
        "    def compose(self):\n        pass\n\n\n"
        "class _Private:\n    def hook(self):\n        pass\n\n\n"
        "def main():\n    return Poly().used()\n\n\n"
        "def orphan():\n    return _Private()\n",
        "b.py": "from .a import main\n\nmain()\n",
    }
    assert dead_public_definitions(sources) == [
        ("a.py", "Poly.compose"),
        ("a.py", "Poly.shift"),
        ("a.py", "Poly.unused"),
        ("a.py", "_Private.hook"),
        ("a.py", "orphan"),
    ]


def _modules_loaded(code: str) -> set:
    """Modules in sys.modules after a fresh interpreter runs code with PYTHONPATH=src."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    probe = code + "\nimport sys\nprint(*sys.modules)\n"
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    return set(done.stdout.split())


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # every command is a fresh interpreter, so each import is paid per command;
    # against a bare interpreter, so whatever site imports is not counted
    added = _modules_loaded("import twistparity.cli") - _modules_loaded("")
    assert "twistparity.cli" in added
    assert not added & {"dataclasses", "inspect"}
