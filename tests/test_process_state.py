"""Only the console entry point touches process-wide state.

`cli.run()` sets the SIGPIPE action and the cycle collector's policy for
the command-line process.  In-process callers of `main()` and of the
library (the tests, perfbench/tracer.py) must keep their own, so this
parses every module under `afftl` and reports each import or name of
`gc` or `signal` outside the body of `cli.run`.
"""

import ast
from pathlib import Path

import afftl

SRC = Path(afftl.__file__).parent
GUARDED = {"gc", "signal"}


def _outside_run(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    allowed = set()
    if path.name == "cli.py":
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name == "run":
                allowed = {id(sub) for sub in ast.walk(node)}
    for node in ast.walk(tree):
        if id(node) in allowed:
            continue
        if isinstance(node, ast.Import):
            names = {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            names = {node.module or ""}
        elif isinstance(node, ast.Name):
            names = {node.id}
        else:
            continue
        for name in sorted(names & GUARDED):
            yield f"{path.name}:{node.lineno} uses {name}"


def test_only_run_touches_gc_or_signal():
    paths = sorted(SRC.glob("*.py"))
    assert {"__init__.py", "cli.py", "words.py"} <= {p.name for p in paths}
    assert [u for p in paths for u in _outside_run(p)] == []


def test_guard_sees_each_use_outside_run(tmp_path):
    probe = tmp_path / "cli.py"
    probe.write_text(
        "import gc, os\n"
        "from signal import SIGPIPE\n"
        "\n"
        "def main():\n"
        "    gc.collect()\n"
        "\n"
        "def run():\n"
        "    import gc\n"
        "    import signal\n"
        "    signal.signal(SIGPIPE, signal.SIG_DFL)\n"
        "    gc.disable()\n"
        "    def inner():\n"
        "        gc.freeze()\n",
        encoding="utf-8",
    )
    assert list(_outside_run(probe)) == [
        "cli.py:1 uses gc", "cli.py:2 uses signal", "cli.py:5 uses gc",
    ]
