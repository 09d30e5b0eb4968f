"""Which afftl modules a process loads: `import afftl` none, `import
afftl.cli` only `afftl.config` besides, a usage error or `--help` nothing
more, and each command exactly the modules it runs.

Each case runs in a fresh interpreter, so nothing another test imported
counts.  A new module-level import in `cli` that pulls any module back
into startup, or a command that imports more than it runs, fails here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from afftl.cli import _DISPATCH

SRC = Path(__file__).resolve().parents[1] / "src"

# Prints the exit code of `main(argv)` (its own stdout swallowed) and the
# sorted afftl modules loaded by then; with no argv, only imports afftl.cli.
PROBE = """
import contextlib, io, json, sys
from afftl.cli import main
code = None
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "afftl")]))
"""

STARTUP = {"afftl", "afftl.cli", "afftl.config"}
ENUMERATE = STARTUP | {"afftl.explore", "afftl.diagrams", "afftl.words"}
STACK = STARTUP | {"afftl.diagrams", "afftl.straightening", "afftl.words"}
RENDER = STACK | {"afftl.render"}
ALGEBRA = STACK | {"afftl.algebra", "afftl.laurent"}
CELLS = ENUMERATE | STACK | {"afftl.cells"}
VERIFY = ALGEBRA | CELLS | {"afftl.verify"}  # every module but render

ELEMENT = '{"n": 3, "terms": [{"coeff": [{"exp": 0, "c": 1}], "word": [1]}]}'
DIAGRAM = (
    '{"n": 3, "top": [{"side": "T", "pos": 2}, {"side": "T", "pos": 1}, {"side": "B", "pos": 3}], '
    '"bottom": [{"side": "B", "pos": 2}, {"side": "B", "pos": 1}, {"side": "T", "pos": 3}], "loops": 0}'
)

# (argv, the afftl modules loaded once it has run)
COMMANDS = [
    (["eval", "--n", "3", "--word", "1 2"], STACK),
    (["mul", "--n", "3", "--a", ELEMENT, "--b", ELEMENT], ALGEBRA),
    (["straighten", "--diagram", DIAGRAM], STACK),
    (["diagram", "--n", "3", "--word", "1 2"], STACK),
    (["diagram", "--n", "3", "--word", "1 2", "--format", "ascii"], RENDER),
    (["diagram", "--n", "3", "--word", "1 2", "--format", "svg"], RENDER),
    (["afn", "--n", "3", "--word", "1 2"], CELLS),
    (["cells", "label", "--n", "3", "--word", "1 2"], CELLS),
    (["cells", "census", "--n", "3", "--max-len", "3"], CELLS),
    (["involution", "--n", "3", "--word", "1"], CELLS),
    (["enumerate", "--n", "3", "--max-len", "3"], CELLS),
    (["enumerate", "--no-labels", "--n", "3", "--max-len", "3"], ENUMERATE),
    (["verify", "--n", "3", "--max-len", "2"], VERIFY),
]
# (argv, exit code) of runs that stop in the parser and load only STARTUP
PARSER_EXITS = [(["enumerate", "--n", "x"], 2), (["--help"], 0)]


def probe(*code_and_argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, *code_and_argv], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    return proc.stdout


def test_import_afftl_loads_no_submodule():
    out = probe("-c", "import sys, afftl; print(sorted(m for m in sys.modules if m.split('.')[0] == 'afftl'))")
    assert out == "['afftl']\n"


def test_import_cli_loads_the_shared_modules():
    assert json.loads(probe("-c", PROBE)) == [None, sorted(STARTUP)]


@pytest.mark.parametrize("argv, code", PARSER_EXITS, ids=[" ".join(argv) for argv, _ in PARSER_EXITS])
def test_a_parser_exit_loads_only_startup(argv, code):
    assert json.loads(probe("-c", PROBE, *argv)) == [code, sorted(STARTUP)]


def test_every_command_is_probed():
    assert {argv[0] for argv, _ in COMMANDS} == set(_DISPATCH)


@pytest.mark.parametrize(
    "argv, loaded", COMMANDS, ids=[" ".join(a for a in argv if a[0] != "{") for argv, _ in COMMANDS]
)
def test_a_command_loads_what_it_runs(argv, loaded):
    assert json.loads(probe("-c", PROBE, *argv)) == [0, sorted(loaded)]
