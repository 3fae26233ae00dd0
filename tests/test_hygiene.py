"""Source hygiene: every package module imports at its top level only, and
uses every name it imports; every module-level private function or class,
and every public function, class or method, is named somewhere else in the
package; every defaulted parameter is passed by some call in the package;
every name a module exports it defines; every function and method runs in
some command line run; only ``cli.main`` builds a ``Report``; only
Baillie-PSW calls the Jacobi symbol; one function forks, and its child
leaves by ``os._exit``; only ``cli`` imports ``verify`` and only
``verify`` imports ``papercases``; importing the command line loads no
costly standard module; the benchmark's hooks resolve."""

import ast
import collections
import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from twistparity.files import load_curve
from twistparity.frobenius import sigma_set

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "twistparity"
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


def stale_exports(source: str):
    """Names in a module's ``__all__`` that the module does not define at its
    top level (a def, a class or an assignment); an imported name is stale."""
    tree = ast.parse(source)
    defined, exported = set(), []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            defined |= names
            if "__all__" in names:
                exported = [c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)]
    return sorted(name for name in exported if name not in defined)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_exports_only_what_it_defines(path):
    assert stale_exports(path.read_text(encoding="utf-8")) == []


def test_stale_export_is_reported():
    src = (
        "from .a import Gone, kept\n\n__all__ = ['Gone', 'f', 'C', 'X', 'Y', 'kept', 'lost']\n\n"
        "X = 1\nY: int = 2\nkept = kept\n\n\ndef f():\n    lost = 3\n\n\nclass C:\n    pass\n"
    )
    assert stale_exports(src) == ["Gone", "lost"]


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


def call_sites(sources: dict, name: str):
    """(module, function) of each call of ``name``, by its name or as an
    attribute, with the innermost function around the call ("" at module
    level)."""
    found = []
    for module, text in sources.items():
        stack = [(ast.parse(text), "")]
        while stack:
            node, fn = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn = node.name
            elif isinstance(node, ast.Call) and name in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)
            ):
                found.append((module, fn))
            stack.extend((child, fn) for child in ast.iter_child_nodes(node))
    return sorted(found)


def test_report_is_built_only_by_cli_main():
    # each command returns its inputs and outputs; main alone assembles them
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    assert call_sites(sources, "Report") == [("cli.py", "main")]


def test_report_construction_is_reported():
    sources = {
        "cli.py": "def main():\n    return Report('a', 0, {}, {})\n",
        "verify.py": "from . import report\n\nR = report.Report('b', 0, {}, {})\n\n\n"
        "def run():\n    def inner():\n        return Report('c', 0, {}, {})\n\n"
        "    return inner, DisparityReport()\n",
    }
    assert call_sites(sources, "Report") == [
        ("cli.py", "main"),
        ("verify.py", ""),
        ("verify.py", "inner"),
    ]


def test_only_baillie_psw_takes_the_jacobi_symbol():
    # a Legendre symbol at a known prime is Euler's criterion; reciprocity
    # is needed only where the modulus may be composite
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    assert call_sites(sources, "kronecker_symbol") == [("modular.py", "_strong_lucas_probable_prime")]


def _is_call(node, module, name) -> bool:
    """node is a call of module.name."""
    func = getattr(node, "func", None) if isinstance(node, ast.Call) else None
    return (
        isinstance(func, ast.Attribute) and func.attr == name
        and isinstance(func.value, ast.Name) and func.value.id == module
    )


def _leaves_by_exit(body) -> bool:
    """The last statement of body calls os._exit, itself or as the last
    statement of a ``finally``."""
    last = body[-1]
    if isinstance(last, ast.Try) and last.finalbody:
        return _leaves_by_exit(last.finalbody)
    return isinstance(last, ast.Expr) and _is_call(last.value, "os", "_exit")


def fork_sites(sources: dict):
    """(module, function, child leaves by os._exit) for each call of
    ``os.fork``, with the innermost function around it ("" at module level).
    The child branch is the one ``if`` of that function that compares the
    name the fork's result is bound to with 0."""
    found = []
    for module, text in sources.items():
        tree = ast.parse(text)
        stack = [(tree, "", tree)]
        while stack:
            node, name, scope = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name, scope = node.name, node
            if _is_call(node, "os", "fork"):
                pids = {
                    t.id for a in ast.walk(scope) if isinstance(a, ast.Assign) and a.value is node
                    for t in a.targets if isinstance(t, ast.Name)
                }
                children = [
                    b for b in ast.walk(scope)
                    if isinstance(b, ast.If) and isinstance(b.test, ast.Compare)
                    and getattr(b.test.left, "id", None) in pids
                    and isinstance(b.test.ops[0], ast.Eq)
                    and getattr(b.test.comparators[0], "value", None) == 0
                ]
                found.append((module, name, len(children) == 1 and _leaves_by_exit(children[0].body)))
            stack.extend((child, name, scope) for child in ast.iter_child_nodes(node))
    return sorted(found)


def test_only_one_function_forks_and_its_child_exits():
    # a child that returned would run the parent's code on: flush its
    # buffers and cache handle a second time, and write a second report
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    assert fork_sites(sources) == [("frobenius.py", "_factor_split", True)]


def test_fork_sites_are_reported():
    sources = {
        "a.py": "import os\n\n\ndef split():\n    pid = os.fork()\n    if pid == 0:\n"
        "        try:\n            work()\n        finally:\n            os._exit(0)\n"
        "    return pid\n\n\ndef leaky():\n    pid = os.fork()\n    if pid == 0:\n"
        "        work()\n    return pid\n",
        "b.py": "import os\n\nos.fork()\n\n\ndef bare():\n    if os.fork() == 0:\n"
        "        os._exit(0)\n",
    }
    assert fork_sites(sources) == [
        ("a.py", "leaky", False),
        ("a.py", "split", True),
        ("b.py", "", False),
        ("b.py", "bare", False),
    ]


def importers(sources: dict, target: str):
    """Sorted names of the modules with an import statement that names the
    package module ``target``, relatively or as ``twistparity.target``."""
    found = set()
    for module, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = ".".join(filter(None, ["twistparity" if node.level else "", node.module]))
                names = [base] + [f"{base}.{a.name}" for a in node.names]
            else:
                continue
            if f"twistparity.{target}" in names:
                found.add(module)
    return sorted(found)


def test_verify_and_papercases_stay_at_the_top_layer():
    # the lemma self-tests and the embedded curves serve verify-paper alone;
    # no computational layer reaches them
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert importers(sources, "verify") == ["cli"]
    assert importers(sources, "papercases") == ["verify"]
    # a scan opens its own cache: no caller of frobenius handles one
    assert importers(sources, "primecache") == ["frobenius"]


def test_importer_is_reported():
    sources = {
        "a": "from .verify import run\n",
        "b": "from . import parity, verify\n",
        "c": "import twistparity.verify\n",
        "d": "from twistparity.verify import run\n",
        "e": "from twistparity import verify\n",
        "f": "from .parity import verify\nfrom .verifying import x\nimport verify\n",
    }
    assert importers(sources, "verify") == ["a", "b", "c", "d", "e"]


# execs setup, then run under a profiler that collects each code object a
# frame enters, dropping what run prints; prints what run binds to result
# and the entered (real file path, first line) pairs as JSON
_PROBE = """\
import io, json, os, sys
from contextlib import redirect_stdout

setup, run = json.loads(sys.argv[1])
exec(setup)
codes = set()
with redirect_stdout(io.StringIO()):
    sys.setprofile(lambda frame, event, arg: codes.add(frame.f_code))
    exec(run)
    sys.setprofile(None)
entered = {(os.path.realpath(code.co_filename), code.co_firstlineno) for code in codes}
print(json.dumps({"result": result, "entered": sorted(entered)}))
"""


def profiled_run(setup: str, run: str, *path):
    """(result, entered) of the probe in a fresh interpreter, so that no memo
    an earlier test filled in this process can hide a definition; the
    package and the directories ``path`` are importable."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, (PACKAGE.parent, *path))))
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps([setup, run])],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    doc = json.loads(done.stdout)
    return doc["result"], {tuple(pair) for pair in doc["entered"]}


def unreached_definitions(paths, entered):
    """(file name, qualified name) of each module-level function and each
    method of a module-level class in the files at ``paths`` whose (real
    path, first line) is not in ``entered``.  The first line of a
    definition is a decorator's when there is one, as for its code."""
    found = []
    for path in paths:
        for qual, node in _definitions(ast.parse(path.read_text(encoding="utf-8"))):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            if not isinstance(node, ast.ClassDef) and (os.path.realpath(path), first) not in entered:
                found.append((path.name, qual))
    return sorted(found)


# definitions that no command line run enters, and why they stay
UNREACHED = {
    ("files.py", "load_curve"): "the benchmark's set-up imports it",
    ("ratpoly.py", "RatPoly.__repr__"): "pytest shows it when an assertion on polynomials fails",
}

# x3_minus_2 has Sigma = {inf, 2, 3}: this file knows every h there
_FULL_PROFILES = (
    "place = 2\nh[1] = 0\nh[5] = 0\nh[-1] = 1\nh[-5] = 1\nh[2] = 0\nh[10] = 0\nh[-2] = 1\nh[-10] = 1\n"
    "place = 3\nh[1] = 0\nh[2] = 1\nh[3] = 0\nh[6] = 1\n"
)


def test_every_definition_is_reached(tmp_path):
    """Each function and method in the package runs in some command: a fixed
    set of runs in one fresh interpreter, every file and cache under
    tmp_path, leaves unentered only the allow-listed definitions."""
    for path in (ROOT / "papercases").glob("*.curve"):
        (tmp_path / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    (tmp_path / "septic.curve").write_text("p = 2\nf = [-1, -1, 0, 0, 0, 0, 0, 1]\n")
    (tmp_path / "malformed.curve").write_text("p = 2\nf = [1, 0, 1]\n")
    # cubic_1440d1's records, the second out of order, so that loading them merges
    (tmp_path / "corrupt.cache").write_text("2c2a7e05d55586f7 5 2,1\n2c2a7e05d55586f7 3 1,2\nnot a record\n")
    (tmp_path / "full.profiles").write_text(_FULL_PROFILES)

    def curve(name):
        return ["--curve", str(tmp_path / f"{name}.curve")]

    profiles = ["--profiles", str(tmp_path / "full.profiles")]
    runs = [
        (0, ["analyze", *curve("x3_minus_2")]),
        (0, ["--format", "json", "analyze", *curve("h_quintic")]),
        (0, ["--format", "json", "classify-primes", *curve("septic"), "--limit", "300"]),
        (0, ["--cache", str(tmp_path / "corrupt.cache"), "classify-primes",
             *curve("cubic_1440d1"), "--limit", "100", "--class", "0"]),
        (0, ["--format", "json", "find-twist", *curve("s5_quintic"), "--direction", "up", "--limit", "2000"]),
        (0, ["find-twist", *curve("x3_minus_2"), "--direction", "down", "--limit", "2000"]),
        (0, ["--format", "json", "parity", *curve("x3_minus_2"), "--d", "-15", *profiles]),
        (0, ["parity", *curve("g_quintic"), "--d", "7"]),
        (0, ["--format", "json", "scan", *curve("x3_minus_2"), "--max-norm", "30", *profiles]),
        (0, ["scan", *curve("x3_minus_2"), "--sample", "20", "--bound", "1000", *profiles]),
        (0, ["scan", *curve("h_quintic"), "--max-norm", "20"]),
        (0, ["--format", "json", "character", "--d", str(10**25 + 13)]),
        (0, ["character", "--d", str(10000000019 * 10000000033), *curve("cubic_1440d1")]),
        (1, ["character", "--d", "0"]),
        (1, ["analyze", *curve("malformed")]),
        (0, ["--format", "json", "verify-paper"]),
    ]
    argvs = [argv for _, argv in runs]
    codes, entered = profiled_run(
        "from twistparity.cli import main", f"result = [main(argv) for argv in {argvs!r}]"
    )
    assert codes == [code for code, _ in runs]
    assert unreached_definitions(MODULES, entered) == sorted(UNREACHED)


def test_unreached_definition_is_reported(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(
        "def used():\n    return C().method()\n\n\n"
        "def unused():\n    pass\n\n\n"
        "class C:\n    @property\n    def prop(self):\n        return 1\n\n"
        "    def method(self):\n        return self.prop\n\n"
        "    def never(self):\n        pass\n"
    )
    result, entered = profiled_run("import probe", "result = probe.used()", tmp_path)
    assert result == 1
    assert unreached_definitions([path], entered) == [("probe.py", "C.never"), ("probe.py", "unused")]


def unpassed_defaults(sources: dict):
    """(module, qualified name.parameter) of each defaulted parameter of a
    module-level function, a method or a constructor that no call in the
    sources passes, by position or by keyword.  Calls are matched by name,
    a constructor's by its class's name; a call with ``*args`` or
    ``**kwargs`` passes every parameter."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    calls = collections.defaultdict(list)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                calls[getattr(func, "id", getattr(func, "attr", None))].append(node)
    found = []
    for module, tree in trees.items():
        for qual, node in _definitions(tree):
            if isinstance(node, ast.ClassDef):
                continue
            owner, _, name = qual.rpartition(".")
            static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
            args = node.args
            # a method's first parameter is filled by the object, not an argument
            positional = [a.arg for a in args.posonlyargs + args.args][bool(owner) and not static:]
            defaulted = list(enumerate(positional))[len(positional) - len(args.defaults):]
            defaulted += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
            callers = calls[owner if name == "__init__" else name]
            for index, param in defaulted:
                if not any(
                    any(isinstance(a, ast.Starred) for a in call.args)
                    or any(kw.arg in (None, param) for kw in call.keywords)
                    or index is not None and len(call.args) > index
                    for call in callers
                ):
                    found.append((module, f"{qual}.{param}"))
    return sorted(found)


# defaulted parameters that no call in the package passes, and why they stay
UNPASSED_DEFAULTS = {
    ("cli.py", "main.argv"): "the console script calls main() bare",
}


def test_every_default_is_passed_somewhere():
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    assert unpassed_defaults(sources) == sorted(UNPASSED_DEFAULTS)


def test_unpassed_default_is_reported():
    sources = {
        "a.py": "def f(x, y=1, *, z=2, w=3):\n    pass\n\n\n"
        "def k(p=1, q=2):\n    pass\n\n\n"
        "def kw(p=1):\n    pass\n\n\n"
        "class C:\n    def __init__(self, a=0, b=1):\n        pass\n\n"
        "    def m(self, n=5):\n        pass\n\n"
        "    @staticmethod\n    def s(n=5):\n        pass\n\n\n"
        "def g(*args, v=1, **kwargs):\n    k(*args)\n    kw(**kwargs)\n",
        "b.py": "from .a import C, f\n\nf(0, z=1)\nC(1)\nC().m(2)\nC.s()\n",
    }
    assert unpassed_defaults(sources) == [
        ("a.py", "C.__init__.b"),
        ("a.py", "C.s.n"),
        ("a.py", "f.w"),
        ("a.py", "f.y"),
        ("a.py", "g.v"),
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
    # against a bare interpreter, so whatever site imports is not counted.
    # json.decoder comes with the json package, which the report writer avoids;
    # hashlib loads _hashlib, which maps OpenSSL's libcrypto
    added = _modules_loaded("import twistparity.cli") - _modules_loaded("")
    assert "twistparity.cli" in added
    assert not added & {"dataclasses", "inspect", "json.decoder", "hashlib", "_hashlib"}


# shim targets whose functions are gone, each reading 0 in the benchmark
# until the benchmark drops or renames it
STALE_TARGETS = {
    "report.Report.to_json",
    "characters.QuadTwist.__post_init__",
    "characters.enumerate_characters",
}


def _shim_targets():
    """``TARGETS`` of bench/shim.py, read without importing it."""
    tree = ast.parse((ROOT / "bench" / "shim.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/shim.py defines no TARGETS")


def test_benchmark_targets_resolve():
    missing = set()
    for module, path in _shim_targets():
        owner = importlib.import_module(f"twistparity.{module}")
        for attr in path.split("."):
            owner = getattr(owner, attr, None)
        if not callable(owner):
            missing.add(f"{module}.{path}")
    assert missing <= STALE_TARGETS


@pytest.mark.parametrize("path", sorted((ROOT / "papercases").glob("*.curve")), ids=lambda p: p.stem)
def test_benchmark_setup_step_runs(path):
    # bench/run.py times this step in a fresh interpreter as setup_s
    sigma = sigma_set(load_curve(path))
    assert sigma[:2] == (0, 2) and list(sigma) == sorted(set(sigma))
