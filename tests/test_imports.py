"""Every name a package module or a test module imports is used in it.

No linter ships with the project, so this parses each module with ``ast``.
The package's ``__init__.py`` is skipped: its imports are the package's
re-exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(
    [p for p in (ROOT / "src" / "opaque_planner").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py"))
)


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


def test_finds_an_unused_import():
    assert unused_imports("import os\nfrom typing import Mapping\nos.sep\n") == ["Mapping (line 2)"]
