"""Static checks on the ginv sources, with the stdlib ``ast`` module.

Every name a ginv module imports is used in that module (a stand-in for a
linter's unused-import rule; ``__init__.py`` is skipped because its imports
are the public re-exports), every module-level private name is read
somewhere in the package, every module-level public name is read in the
package or re-exported by ``__init__.py``, and the third-party modules the
package imports are exactly its declared dependencies.  No import
statement is deferred into a function or class body.  A fresh
interpreter also checks what ``import ginv, ginv.cli`` loads: none of
``dataclasses``, ``inspect`` and ``typing``, which would more than double
the import time every CLI process pays.
"""

import ast
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ginv

PACKAGE = Path(ginv.__file__).resolve().parent
SOURCES = sorted(PACKAGE.glob("*.py"))
MODULES = [path for path in SOURCES if path.name != "__init__.py"]


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


def module_statements(body):
    """Top-level statements, including those inside module-level if/try blocks."""
    for node in body:
        yield node
        if isinstance(node, (ast.If, ast.Try)):
            for block in (node.body, node.orelse, getattr(node, "finalbody", [])):
                yield from module_statements(block)
            for handler in getattr(node, "handlers", []):
                yield from module_statements(handler.body)


def nested_imports(source: str) -> list[int]:
    """Lines of the import statements that run inside a function or class body."""
    tree = ast.parse(source)
    top = {id(node) for node in module_statements(tree.body)}
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top
    )


def test_detects_a_nested_import():
    source = (
        "import os\ntry:\n    import json\nexcept ImportError:\n    pass\n"
        "def f():\n    from .pinv import mp_inverse\n"
        "class C:\n    import re\n"
    )
    assert nested_imports(source) == [7, 9]


# an import deferred into a function hides a cycle between the layers
@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_nested_import(path):
    assert nested_imports(path.read_text(encoding="utf-8")) == []


def definitions(tree: ast.Module) -> set[str]:
    names = set()
    for node in module_statements(tree.body):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def private_definitions(tree: ast.Module) -> set[str]:
    return {n for n in definitions(tree) if n.startswith("_") and not n.startswith("__")}


def public_definitions(tree: ast.Module) -> set[str]:
    return {n for n in definitions(tree) if not n.startswith("_")}


def reads(tree: ast.Module) -> set[str]:
    """Names loaded, attributes read and names imported from sibling modules."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.level:
            out.update(alias.name for alias in node.names)
    return out


def dead_names(sources: dict[str, str], defined) -> list[str]:
    """Names ``defined`` picks out of a module that no module of ``sources`` reads."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set().union(*(reads(tree) for tree in trees.values()))
    return sorted(
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in defined(tree) - read
    )


def package_sources() -> dict[str, str]:
    return {path.stem: path.read_text(encoding="utf-8") for path in SOURCES}


def test_detects_a_dead_private_name():
    sources = {
        "a": "_used = 1\n_dead = 2\ntry:\n    _also_dead = 3\nexcept ImportError:\n    pass\n",
        "b": "from .a import _used\n",
    }
    assert dead_names(sources, private_definitions) == ["a._also_dead", "a._dead"]


def test_no_dead_private_name():
    assert dead_names(package_sources(), private_definitions) == []


def test_detects_a_dead_public_name():
    # a name counts as live when a module reads it or __init__ re-exports it
    sources = {
        "a": "def used(): pass\ndef exported(): pass\nDEAD = 1\nclass Dead: pass\nused()\n",
        "__init__": "from .a import exported\n",
    }
    assert dead_names(sources, public_definitions) == ["a.DEAD", "a.Dead"]


# read from outside the package only: perfbench run records name the
# rational type the kernel runs on
READ_OUTSIDE = ["scalar.SUBSTRATE"]


def test_no_dead_public_name():
    assert dead_names(package_sources(), public_definitions) == READ_OUTSIDE


def third_party_imports(sources: list[str]) -> set[str]:
    top = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                top.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                top.add(node.module.split(".")[0])
    return {name for name in top if name not in sys.stdlib_module_names and name != "ginv"}


def test_detects_a_third_party_import():
    source = "import os\ntry:\n    from gmpy2 import mpq\nexcept ImportError:\n    pass\n"
    assert third_party_imports([source]) == {"gmpy2"}


def test_imports_are_the_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    pyproject = PACKAGE.parent.parent / "pyproject.toml"
    if not pyproject.is_file():
        pytest.skip("no pyproject.toml next to an uninstalled source tree")
    project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]
    declared = {
        re.match(r"[A-Za-z0-9_.-]+", spec).group().lower().replace("-", "_")
        for spec in project["dependencies"]
    }
    used = third_party_imports(path.read_text(encoding="utf-8") for path in SOURCES)
    assert used == declared


# modules whose import cost the package must not pay at import time
HEAVY = {"dataclasses", "inspect", "typing"}

# prints the modules that importing argv[1:] adds to sys.modules; startup
# (site and any .pth file) may load typing already, so only the difference
# counts
NEWLY_LOADED = """
import importlib, json, sys
before = set(sys.modules)
for name in sys.argv[1:]:
    importlib.import_module(name)
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def heavy_imports(root: Path, *modules: str) -> list[str]:
    """The HEAVY modules a fresh interpreter newly loads to import ``modules``."""
    result = subprocess.run(
        [sys.executable, "-c", NEWLY_LOADED, *modules],
        capture_output=True,
        text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": str(root)},
    )
    assert result.returncode == 0, result.stderr
    return sorted(HEAVY.intersection(json.loads(result.stdout)))


def test_detects_a_heavy_import(tmp_path):
    (tmp_path / "scratch_records.py").write_text("import dataclasses\n", encoding="utf-8")
    assert "dataclasses" in heavy_imports(tmp_path, "scratch_records")


def test_import_loads_no_heavy_module():
    assert heavy_imports(PACKAGE.parent, "ginv", "ginv.cli") == []
