"""Every name a package module imports is used in it.

No linter ships with the project, so this parses each module with ``ast``.
``__init__.py`` is skipped: its imports are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "opaque_planner"


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
    "path",
    sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name,
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_finds_an_unused_import():
    assert unused_imports("import os\nfrom typing import Mapping\nos.sep\n") == ["Mapping (line 2)"]
