"""Every name a ginv module imports is used in that module.

A stdlib stand-in for a linter's unused-import rule; ``__init__.py`` is
skipped because its imports are the public re-exports.
"""

import ast
from pathlib import Path

import pytest

import ginv

PACKAGE = Path(ginv.__file__).resolve().parent
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(imported) - used)


def test_detects_an_unused_import():
    assert unused_imports("import os\nfrom .matrix import rank, hstack\nrank(os)\n") == ["hstack"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
