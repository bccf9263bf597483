"""Every name a package module or a test module imports is used in it,
every name a package module defines at its top level, and every method,
property and dataclass field of its classes, is used somewhere, every
name the package exports is read outside its own definition in a package
module or in the benchmark harness, its ``__all__`` lists exactly the
names its ``__init__.py`` imports, no package module imports
``scipy.sparse`` or ``scipy.optimize`` when it is loaded, importing the
package in a fresh interpreter loads neither of them, nor the top-level
``scipy`` package, nor ``numpy.random``, no package module calls
``np.unique``, none reads global random state, and no cached property of
a package class returns an empty mutable container, a cache its callers
would fill from outside, and observation symbols hash and compare by
identity.

No linter ships with the project, so this parses each module with ``ast``.
The package's ``__init__.py`` is skipped by the unused-import check: its
imports are the package's re-exports.  An export that only the tests read
belongs in the tests, and ``__all__`` is written out, not taken from
``dir()``, so that ``from opaque_planner import *`` binds no submodule.
The package calls scipy's HiGHS and SuperLU extensions directly
(``planner._load_extension``); importing ``scipy.sparse`` or
``scipy.optimize`` would cost every process ~0.5 s, and the loader finds
scipy's directory without running ``scipy/__init__.py`` (10–20 ms).  The
AST checks see only import statements and names, so a fresh interpreter
checks what
loading the package really loads: a module-level call such as
``np.random.Generator(...)`` would import ``numpy.random`` (~18 ms) into
every process.
A plain ``np.unique`` imports ``numpy.ma`` (~18 ms) on its first call,
and its indexed forms sort stably, several times slower than the one
unstable sort of ``model._unique``.  A rollout's statistics are a
function of (seed, runs) alone because every draw comes from the one
seeded ``Generator(Philox(key=seed))``: the package may name only those
two of ``numpy.random``, and may not import the stdlib ``random``.
Observation symbols are hash-consed, so ``ObsSymbol`` keeps ``object``'s
``__hash__`` and ``__eq__``: every dict keyed by letters or words of
letters then looks them up in C, never calling back into Python.
"""

import ast
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import opaque_planner
from opaque_planner.model import ObsSymbol

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "opaque_planner").glob("*.py"))
INIT = ROOT / "src" / "opaque_planner" / "__init__.py"
MODULES = sorted(
    [p for p in PACKAGE if p.name != "__init__.py"] + list((ROOT / "tests").glob("*.py"))
)
#: the scipy packages whose import costs every process most of its set-up
HEAVY = ("scipy.sparse", "scipy.optimize")
#: the packages that loading the package must not load
NOT_ON_LOAD = (*HEAVY, "scipy", "numpy.random")
#: the files in which a use of a package module's top-level name counts
CORPUS = sorted(p for part in ("src", "perfbench", "tests") for p in (ROOT / part).rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names bound by the module's imports and never read in it."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize(
    "path", MODULES, ids=lambda p: f"tests/{p.name}" if p.parent.name == "tests" else p.name
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def top_level_names(source: str) -> list[tuple[str, int]]:
    """The names the module's top-level defs, classes and assignments
    bind, with their lines; dunder names such as ``__all__`` left out."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        found.append((name.id, node.lineno))
    return [(name, line) for name, line in found if not name.startswith("__")]


def class_members(source: str) -> list[tuple[str, int]]:
    """The methods, properties and dataclass fields (annotated names) of
    the module's classes, nested ones too, with their lines; dunder names
    such as ``__post_init__`` left out."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        for member in node.body:
            if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.append((member.name, member.lineno))
            elif isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
                found.append((member.target.id, member.lineno))
    found.sort(key=lambda member: member[1])
    return [(name, line) for name, line in found if not name.startswith("__")]


def unreferenced(source: str, texts: list[str], names=top_level_names) -> list[str]:
    """The names ``names(source)`` finds that occur as a word only once in
    ``texts`` (which include ``source``): where they are defined."""
    words = Counter(word for text in texts for word in re.findall(r"\w+", text))
    return [f"{name} (line {line})" for name, line in names(source) if words[name] < 2]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_unreferenced_top_level_name(path):
    assert unreferenced(path.read_text(), [p.read_text() for p in CORPUS]) == []


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_unreferenced_class_member(path):
    texts = [p.read_text() for p in CORPUS]
    assert unreferenced(path.read_text(), texts, class_members) == []


def test_finds_an_unreferenced_name():
    source = (
        "A, (B, C) = 1, (2, 3)\n"
        "D: int = B\n"
        "__all__ = []\n"
        "def f():\n"
        "    return D\n"
        "class E:\n"
        "    F = 1\n"
    )
    assert unreferenced(source, [source, "E()\n"]) == [
        "A (line 1)", "C (line 1)", "f (line 4)",
    ]


def test_finds_an_unreferenced_class_member():
    source = (
        "@dataclass\n"
        "class A:\n"
        "    x: int\n"
        "    y: int = 0\n"
        "    Z = 1\n"
        "    def __post_init__(self):\n"
        "        pass\n"
        "    @property\n"
        "    def size(self):\n"
        "        return self.y\n"
        "    def unused(self):\n"
        "        class B:\n"
        "            w: int\n"
        "        return B\n"
    )
    assert unreferenced(source, [source, "A(1).size\n"], class_members) == [
        "x (line 3)", "unused (line 11)", "w (line 13)",
    ]


def imported_names(source: str) -> list[str]:
    """The names the module's top-level imports bind, in order."""
    return [
        alias.asname or alias.name.split(".")[0]
        for node in ast.parse(source).body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]


def test_all_lists_exactly_the_imports():
    assert opaque_planner.__all__ == imported_names(INIT.read_text())


def exports_without_reader(exports: list[str], sources: list[str]) -> list[str]:
    """The names of ``exports`` that no module of ``sources`` reads, as a
    name or an attribute, outside the function or class that defines it."""
    read = set()

    def visit(node, defining):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defining = defining | {node.name}
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            name = node.id if isinstance(node, ast.Name) else node.attr
            if name not in defining:
                read.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, defining)

    for source in sources:
        visit(ast.parse(source), frozenset())
    return [name for name in exports if name not in read]


def test_every_export_has_a_reader():
    # the names __init__ imports, which test_all_lists_exactly_the_imports
    # holds equal to __all__
    exports = imported_names(INIT.read_text())
    readers = [p for p in PACKAGE if p != INIT] + sorted((ROOT / "perfbench").glob("*.py"))
    assert exports_without_reader(exports, [p.read_text() for p in readers]) == []


def test_finds_an_export_without_a_reader():
    sources = [
        "def a(n):\n"
        "    return a(n - 1) if n else b\n"
        "class C:\n"
        "    def step(self):\n"
        "        return C()\n"
        "d = 1\n",
        "import m\n"
        "# e\n"
        "x = m.a(2), 'e'\n"
        "f = 2\n",
    ]
    assert exports_without_reader(["a", "b", "C", "d", "e", "f"], sources) == [
        "C", "d", "e", "f",
    ]


def load_time_imports(source: str) -> list[str]:
    """The ``HEAVY`` packages the module imports when it is loaded: by an
    import statement anywhere outside a function body."""
    found = []

    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            names = []
        for name in names:
            if any(name == heavy or name.startswith(heavy + ".") for heavy in HEAVY):
                found.append(f"{name} (line {node.lineno})")
                break
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(source))
    return found


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_heavy_scipy_import_on_load(path):
    assert load_time_imports(path.read_text()) == []


def test_finds_a_heavy_scipy_import():
    source = (
        "import scipy\n"
        "import scipy.sparse.linalg as spla\n"
        "from scipy import optimize\n"
        "from scipy.sparse import csgraph\n"
        "if True:\n"
        "    from scipy.optimize import linprog\n"
        "class A:\n"
        "    import scipy.sparse\n"
        "def f():\n"
        "    import scipy.sparse as sp\n"
        "    return sp\n"
    )
    assert load_time_imports(source) == [
        "scipy.sparse.linalg (line 2)",
        "scipy.optimize (line 3)",
        "scipy.sparse (line 4)",
        "scipy.optimize (line 6)",
        "scipy.sparse (line 8)",
    ]


def loaded_on_import(statement: str) -> list[str]:
    """The ``NOT_ON_LOAD`` packages in ``sys.modules`` after a fresh
    interpreter runs ``statement`` with the package on its path."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    probe = f"import sys\n{statement}\nprint([m for m in {NOT_ON_LOAD!r} if m in sys.modules])"
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    return ast.literal_eval(done.stdout.strip().splitlines()[-1])


def test_package_load_imports_no_heavy_module():
    assert loaded_on_import("import opaque_planner") == []


def test_finds_a_module_loaded_on_import():
    assert loaded_on_import("import numpy as np\nnp.random.Generator(np.random.Philox(key=1))") == [
        "numpy.random"
    ]


def unique_calls(source: str) -> list[str]:
    """The module's calls of ``np.unique`` or ``numpy.unique``."""
    calls = [
        node
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "unique"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id in ("np", "numpy")
    ]
    calls.sort(key=lambda node: node.lineno)
    return [f"{ast.unparse(node.func)} (line {node.lineno})" for node in calls]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_np_unique_call(path):
    assert unique_calls(path.read_text()) == []


def test_finds_an_np_unique_call():
    source = (
        "import numpy\n"
        "import numpy as np\n"
        "def f(x):\n"
        "    return np.unique(x, return_index=True)\n"
        "y = [numpy.unique(v) for v in ([1], [2])]\n"
        "z = np.unique\n"
        "w = set.unique\n"
    )
    assert unique_calls(source) == ["np.unique (line 4)", "numpy.unique (line 5)"]


#: all that the package may use of ``numpy.random``: one seeded generator
SEEDED = ("Generator", "Philox")


def global_random_state(source: str) -> list[str]:
    """The module's imports of the stdlib ``random``, and its imports and
    uses of ``numpy.random`` other than ``Generator`` and ``Philox``."""

    def unseeded(name):  # a dotted name
        parts = name.split(".")
        if parts[0] == "random":
            return True
        return parts[0] in ("np", "numpy") and parts[1:2] == ["random"] and (
            ".".join(parts[2:3]) not in SEEDED
        )

    tree = ast.parse(source)
    parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute) and ast.unparse(node) in ("np.random", "numpy.random"):
            up = parent.get(node)
            names = [ast.unparse(up if isinstance(up, ast.Attribute) else node)]
        else:
            continue
        found += [(node.lineno, name) for name in names if unseeded(name)]
    return [f"{name} (line {line})" for line, name in sorted(found)]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_global_random_state(path):
    assert global_random_state(path.read_text()) == []


def test_finds_a_global_random_state():
    source = (
        "import random\n"
        "import numpy as np\n"
        "from numpy.random import Generator, default_rng\n"
        "from numpy import random as npr\n"
        "from .random import shuffle\n"
        "rng = np.random.Generator(np.random.Philox(key=1))\n"
        "x = rng.random(3)\n"
        "np.random.seed(0)\n"
        "def f():\n"
        "    from random import choice\n"
        "    return numpy.random.rand(2), np.random\n"
        "import numpy.random\n"
    )
    assert global_random_state(source) == [
        "random (line 1)",
        "numpy.random.default_rng (line 3)",
        "numpy.random (line 4)",
        "np.random.seed (line 8)",
        "random.choice (line 10)",
        "np.random (line 11)",
        "numpy.random.rand (line 11)",
        "numpy.random (line 12)",
    ]


def empty_caches(source: str) -> list[str]:
    """The ``cached_property`` methods of the module's classes that return
    an empty ``{}``, ``[]``, ``set()``, ``dict()`` or ``list()``: a cache
    that its callers fill from outside."""

    def returns(node):  # the function's own returns, not its nested functions'
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Return):
                yield child
            elif not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
                yield from returns(child)

    def empty(node):
        if isinstance(node, ast.Dict):
            return not node.keys
        if isinstance(node, ast.List):
            return not node.elts
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("dict", "list", "set")
            and not node.args
            and not node.keywords
        )

    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        for member in node.body:
            if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                ast.unparse(d) in ("cached_property", "functools.cached_property")
                for d in member.decorator_list
            ):
                found.extend(
                    f"{node.name}.{member.name} (line {r.lineno})"
                    for r in returns(member)
                    if empty(r.value)
                )
    return found


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_cache_filled_from_outside(path):
    assert empty_caches(path.read_text()) == []


def test_finds_a_cache_filled_from_outside():
    source = (
        "import functools\n"
        "class A:\n"
        "    @cached_property\n"
        "    def a(self):\n"
        "        return {}\n"
        "    @functools.cached_property\n"
        "    def b(self):\n"
        "        if self.a:\n"
        "            return []\n"
        "        return set()\n"
        "    @cached_property\n"
        "    def c(self):\n"
        "        return dict(x=1)\n"
        "    @cached_property\n"
        "    def d(self):\n"
        "        def fill():\n"
        "            return {}\n"
        "        return {1: 2}, [3], set([4]), dict()\n"
        "    @property\n"
        "    def e(self):\n"
        "        return {}\n"
        "    @cached_property\n"
        "    def f(self):\n"
        "        return dict()\n"
    )
    assert empty_caches(source) == [
        "A.a (line 5)", "A.b (line 9)", "A.b (line 10)", "A.f (line 24)",
    ]


def test_finds_an_unused_import():
    assert unused_imports("import os\nfrom typing import Mapping\nos.sep\n") == ["Mapping (line 2)"]


def test_symbols_keep_the_identity_slots():
    assert ObsSymbol.__hash__ is object.__hash__
    assert ObsSymbol.__eq__ is object.__eq__
