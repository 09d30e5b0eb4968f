"""No afftl module imports a name it never uses.

The project has no linter, so this parses every module under `afftl`
except `__init__.py`, which imports to re-export, and reports each name an
import binds that the module never reads.  A change that stops using a
name must drop its import too.
"""

import ast
from pathlib import Path

import afftl

SRC = Path(afftl.__file__).parent


def _unused(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    yield f"{path.name}:{node.lineno} imports {name}"


def test_every_import_is_used():
    paths = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    assert {"cells.py", "config.py", "words.py"} <= {p.name for p in paths}
    assert [u for p in paths for u in _unused(p)] == []


def test_guard_sees_each_unused_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import random\n"
        "from .words import Word, absorbers as scan, drop_letter\n"
        "\n"
        "def f(w: Word) -> int:\n"
        "    return scan(random.random(), w)\n",
        encoding="utf-8",
    )
    assert list(_unused(probe)) == ["probe.py:2 imports os", "probe.py:4 imports drop_letter"]


def test_the_rewrite_engine_builds_no_descent_table():
    # `_rewrite_mul_cached` asks about one letter (`words.descends`); the
    # full scan `absorbers` serves the cell code alone
    tree = ast.parse((SRC / "algebra.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert "descends" in imported and "absorbers" not in imported
