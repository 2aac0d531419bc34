"""Every name a module of the package or of the test suite imports is used
in that module.  The package's ``__init__.py`` is left out: it imports names
to re-export them."""
import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "fincat"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
MODULES += sorted(TESTS.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name != "annotations":  # from __future__ import annotations
                    imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_the_scan_sees_an_unused_import():
    assert unused_imports("import os\nfrom re import match, sub\nsub('a', 'b', 'c')\n") == [
        "line 1: os",
        "line 2: match",
    ]


@pytest.mark.parametrize(
    "module", MODULES, ids=lambda p: p.name if p.parent == PACKAGE else f"tests/{p.name}"
)
def test_no_unused_imports(module):
    assert unused_imports(module.read_text()) == []
