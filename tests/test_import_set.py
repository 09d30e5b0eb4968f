"""Which afftl modules a process loads: `import afftl` none, `import
afftl.cli` the modules several commands share, and a command that alone
runs `algebra`, `render` or `verify` that module besides.

Each case runs in a fresh interpreter, so nothing another test imported
counts.  A new module-level import that pulls `algebra`, `laurent`,
`render` or `verify` back into startup, or a command that imports more
than it runs, fails here.
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

STARTUP = {
    "afftl", "afftl.cli", "afftl.config", "afftl.cells", "afftl.diagrams", "afftl.explore",
    "afftl.straightening", "afftl.words",
}
ALGEBRA = STARTUP | {"afftl.laurent", "afftl.algebra"}
RENDER = STARTUP | {"afftl.render"}
VERIFY = ALGEBRA | {"afftl.verify"}

ELEMENT = '{"n": 3, "terms": [{"coeff": [{"exp": 0, "c": 1}], "word": [1]}]}'
DIAGRAM = (
    '{"n": 3, "top": [{"side": "T", "pos": 2}, {"side": "T", "pos": 1}, {"side": "B", "pos": 3}], '
    '"bottom": [{"side": "B", "pos": 2}, {"side": "B", "pos": 1}, {"side": "T", "pos": 3}], "loops": 0}'
)

# (argv, the afftl modules loaded once it has run)
COMMANDS = [
    (["eval", "--n", "3", "--word", "1 2"], STARTUP),
    (["mul", "--n", "3", "--a", ELEMENT, "--b", ELEMENT], ALGEBRA),
    (["straighten", "--diagram", DIAGRAM], STARTUP),
    (["diagram", "--n", "3", "--word", "1 2"], STARTUP),
    (["diagram", "--n", "3", "--word", "1 2", "--format", "ascii"], RENDER),
    (["diagram", "--n", "3", "--word", "1 2", "--format", "svg"], RENDER),
    (["afn", "--n", "3", "--word", "1 2"], STARTUP),
    (["cells", "label", "--n", "3", "--word", "1 2"], STARTUP),
    (["cells", "census", "--n", "3", "--max-len", "3"], STARTUP),
    (["involution", "--n", "3", "--word", "1"], STARTUP),
    (["enumerate", "--n", "3", "--max-len", "3"], STARTUP),
    (["enumerate", "--no-labels", "--n", "3", "--max-len", "3"], STARTUP),
    (["verify", "--n", "3", "--max-len", "2"], VERIFY),
]


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


def test_every_command_is_probed():
    assert {argv[0] for argv, _ in COMMANDS} == set(_DISPATCH)


@pytest.mark.parametrize(
    "argv, loaded", COMMANDS, ids=[" ".join(a for a in argv if a[0] != "{") for argv, _ in COMMANDS]
)
def test_a_command_loads_what_it_runs(argv, loaded):
    assert json.loads(probe("-c", PROBE, *argv)) == [0, sorted(loaded)]
