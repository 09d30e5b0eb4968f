"""afftl modules import each other at module level only, the engines do
not import each other, the enumeration stays below the layers that use it,
and nothing imports the command line.

Parses every module under `afftl`.  An afftl import inside a function or
class hides a cycle instead of removing it, so each must sit in the
module's top-level body.  The one exemption is the body of a command
function in `cli` (a value of its `_DISPATCH` table): a module that only
one command runs is imported by that command when it is dispatched, so
that `import afftl.cli` does not load it.  That cannot hide a cycle,
because no afftl module imports `cli`, and the package's lazy export
table (`_EXPORTS` in `__init__`) names no `cli` either.  The word engine
(`words`) and the diagram engine (`diagrams`) check each other, so they
share nothing but `config`, which holds `InvariantError` and the strict
JSON readers.  `explore` enumerates for `cells`, `verify` and the CLI, so
it imports none of `cells`, `algebra`, `straightening` or `laurent`.
Cell analysis runs on diagrams and words alone, so `cells` imports
neither `algebra` nor `laurent`.
"""

import ast
from pathlib import Path

import afftl

SRC = Path(afftl.__file__).parent
EXPLORE_MUST_NOT_IMPORT = {"cells", "algebra", "straightening", "laurent"}
CELLS_MUST_NOT_IMPORT = {"algebra", "laurent"}
ENGINES = {"words", "diagrams"}
ENGINES_MAY_IMPORT = {"config"}


def _afftl_modules(node):
    """The afftl modules an import statement names, "afftl" for the package
    itself; empty for any other statement."""
    if isinstance(node, ast.Import):
        dotted = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        module = "afftl" + (f".{node.module}" if node.module else "") if node.level else node.module
        if module == "afftl":
            dotted = [f"afftl.{alias.name}" for alias in node.names]
        else:
            dotted = [module]
    else:
        return set()
    return {d.split(".")[1] if "." in d else d for d in dotted if d.split(".")[0] == "afftl"}


def _command_bodies(tree):
    """Ids of every node inside a function that `_DISPATCH` names."""
    commands = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["_DISPATCH"]:
            commands = {v.id for v in node.value.values if isinstance(v, ast.Name)}
    return {
        id(sub)
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name in commands
        for sub in ast.walk(node)
    }


def _problems(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    top = set(map(id, tree.body))
    if path.name == "cli.py":
        top |= _command_bodies(tree)
    imported = set()
    for node in ast.walk(tree):
        names = _afftl_modules(node)
        imported |= names
        if names and id(node) not in top:
            yield f"{path.name}:{node.lineno} imports afftl below module level"
    if "cli" in imported:
        yield f"{path.name} imports cli"
    if path.stem == "explore":
        for name in sorted(imported & EXPLORE_MUST_NOT_IMPORT):
            yield f"{path.name} imports {name}"
    if path.stem == "cells":
        for name in sorted(imported & CELLS_MUST_NOT_IMPORT):
            yield f"{path.name} imports {name}"
    if path.stem in ENGINES:
        for name in sorted(imported - ENGINES_MAY_IMPORT):
            yield f"{path.name} imports {name}"


def test_afftl_imports_at_module_level_and_explore_below_cells():
    paths = sorted(SRC.glob("*.py"))
    assert {"cells.py", "diagrams.py", "explore.py", "verify.py", "words.py"} <= {p.name for p in paths}
    assert [u for p in paths for u in _problems(p)] == []
    assert "cli" not in afftl._EXPORTS.values()


def test_guard_sees_each_violation(tmp_path):
    probe = tmp_path / "explore.py"
    probe.write_text(
        "import json\n"
        "from . import config\n"
        "from .cells import labels\n"
        "import afftl.algebra\n"
        "\n"
        "def f():\n"
        "    from .straightening import stack\n"
        "    import os\n"
        "    return stack, os, json, config, labels\n"
        "\n"
        "class C:\n"
        "    from afftl import laurent\n",
        encoding="utf-8",
    )
    assert list(_problems(probe)) == [
        "explore.py:7 imports afftl below module level",
        "explore.py:12 imports afftl below module level",
        "explore.py imports algebra",
        "explore.py imports cells",
        "explore.py imports laurent",
        "explore.py imports straightening",
    ]
    probe = tmp_path / "words.py"
    probe.write_text(
        "from .config import GroupConfig\n"
        "from .diagrams import InvariantError\n"
        "from afftl import laurent\n",
        encoding="utf-8",
    )
    assert list(_problems(probe)) == ["words.py imports diagrams", "words.py imports laurent"]
    probe = tmp_path / "cli.py"
    probe.write_text(
        "from .config import GroupConfig\n"
        "\n"
        "def parse_word(text):\n"
        "    from .words import check_word\n"
        "    return check_word\n"
        "\n"
        "def _cmd_eval(args):\n"
        "    from . import straightening\n"
        "    if args:\n"
        "        import afftl.render\n"
        "    return straightening\n"
        "\n"
        "def _cmd_mul(args):\n"
        "    from . import algebra\n"
        "    return algebra\n"
        "\n"
        "_DISPATCH = {\"eval\": _cmd_eval}\n",
        encoding="utf-8",
    )
    assert list(_problems(probe)) == [
        "cli.py:4 imports afftl below module level",
        "cli.py:14 imports afftl below module level",
    ]
    probe = tmp_path / "verify.py"
    probe.write_text(
        "from .cli import main\n"
        "\n"
        "def _cmd_verify(args):\n"
        "    from . import cells\n"
        "    return cells\n"
        "\n"
        "_DISPATCH = {\"verify\": _cmd_verify}\n",
        encoding="utf-8",
    )
    assert list(_problems(probe)) == ["verify.py:4 imports afftl below module level", "verify.py imports cli"]


def test_guard_sees_cells_import_the_algebra(tmp_path):
    probe = tmp_path / "cells.py"
    probe.write_text(
        "from .algebra import mul\n"
        "from .straightening import stack\n"
        "from afftl import laurent\n",
        encoding="utf-8",
    )
    assert list(_problems(probe)) == ["cells.py imports algebra", "cells.py imports laurent"]
