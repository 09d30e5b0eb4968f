"""One module owns the diagram: `afftl.diagrams` alone reads and writes
the window arrays.  Parses every other afftl module, so a new `.top` or
`.bottom` read, a `top=`/`bottom=` rewrite, or an import of the entry
translators `node`/`node_ref` outside `diagrams` shows up here.
"""

import ast
from pathlib import Path

import afftl

SRC = Path(afftl.__file__).parent
WINDOWS = {"top", "bottom"}
TRANSLATORS = {"node", "node_ref"}


def _breaches(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        where = f"{path.name}:{getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Attribute) and node.attr in WINDOWS:
            yield f"{where} reads .{node.attr}"
        elif isinstance(node, ast.keyword) and node.arg in WINDOWS:
            yield f"{where} passes {node.arg}="
        elif isinstance(node, ast.ImportFrom):
            for a in node.names:
                if a.name in TRANSLATORS:
                    yield f"{where} imports {a.name}"


def test_only_diagrams_touches_windows():
    paths = [p for p in sorted(SRC.glob("*.py")) if p.name != "diagrams.py"]
    assert {"straightening.py", "cells.py", "explore.py"} <= {p.name for p in paths}
    assert [b for p in paths for b in _breaches(p)] == []


def test_guard_sees_each_breach(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from afftl.diagrams import node\n"
        "x = d.top\n"
        "y = d._replace(bottom=())\n",
        encoding="utf-8",
    )
    assert list(_breaches(probe)) == [
        "probe.py:1 imports node",
        "probe.py:2 reads .top",
        "probe.py:3 passes bottom=",
    ]
