"""The command-line entry point, spawned as the benchmark spawns it.

`python -m afftl.cli` runs `cli.run()`, which restores the default SIGPIPE
action, turns the cycle collector off for the command and freezes the
heap before exit.  These tests spawn it and check its exit codes, that its
stdout matches in-process `main()` byte for byte, and the premise of the
collector policy: a command leaves the same cyclic garbage whatever its
size, so no collection is needed while it runs.
"""

import contextlib
import gc
import io
import json
import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from afftl import explore
from afftl.cli import main
from afftl.config import GroupConfig

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def _env():
    paths = [str(SRC), str(TESTS), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    env.pop("PYTHONUNBUFFERED", None)  # buffer stdout, so a lost flush shows
    return env


def spawn_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "afftl.cli", *argv],
        env=_env(), capture_output=True, timeout=120,
    )


def in_process(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


class TestExitCodes:
    def test_success(self):
        proc = spawn_cli("eval", "--n", "4", "--word", "1 1")
        assert proc.returncode == 0 and proc.stderr == b""
        assert json.loads(proc.stdout)["exponent"] == 1

    def test_domain_error(self):
        proc = spawn_cli("eval", "--n", "4", "--word", "1 9")
        assert proc.returncode == 1 and proc.stdout == b""
        assert json.loads(proc.stderr)["error"] == "ValueError"

    def test_usage_error(self):
        proc = spawn_cli("enumerate", "--n", "4")
        assert proc.returncode == 2 and proc.stdout == b""
        assert b"usage: afftl enumerate" in proc.stderr

    def test_failed_self_check(self):
        # The peel self-check of tests/test_cli.py's BROKEN_PEEL, through run().
        script = textwrap.dedent(
            """
            from afftl import cli, straightening
            from test_cli import _miscounting

            straightening._generator_action = _miscounting(straightening._generator_action)
            cli.run()
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, "eval", "--n", "4", "--word", "2 1 3 2"],
            env=_env(), capture_output=True, timeout=60,
        )
        assert proc.returncode == 3 and proc.stdout == b""
        obj = json.loads(proc.stderr)
        assert obj["error"] == "InvariantError"
        assert "peel reconstruction failed" in obj["message"]


@pytest.mark.parametrize(
    "argv",
    [
        # 930 KB: the frozen exit must still flush every buffered byte.
        ("enumerate", "--n", "8", "--max-len", "12", "--no-labels"),
        ("verify", "--n", "5", "--max-len", "6"),
    ],
    ids=["enumerate", "verify"],
)
def test_stdout_matches_in_process(argv):
    code, out = in_process(*argv)
    proc = spawn_cli(*argv)
    assert code == proc.returncode == 0 and proc.stderr == b""
    assert proc.stdout == out.encode("utf-8")


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="platform has no SIGPIPE")
def test_closed_stdout_ends_by_sigpipe():
    with subprocess.Popen(
        [sys.executable, "-m", "afftl.cli", "enumerate", "--n", "8", "--max-len", "12",
         "--no-labels"],
        env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:
        assert json.loads(proc.stdout.readline())["word"] == []
        proc.stdout.close()  # far more output is still to come than a pipe buffers
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == -signal.SIGPIPE
    assert err == b""


def _element(n, max_len):
    records = explore.enumerate_elements(GroupConfig(n), max_len)
    terms = [{"coeff": [{"exp": 0, "c": 1}], "word": list(r.word)} for r in records]
    return json.dumps({"n": n, "terms": terms})


def _garbage_after(argv):
    gc.collect()
    code, _ = in_process(*argv)
    assert code == 0
    return gc.collect()


@pytest.mark.parametrize(
    "small, large",
    [
        (("enumerate", "--n", "5", "--max-len", "4"), ("enumerate", "--n", "4", "--max-len", "60")),
        (("cells", "census", "--n", "4", "--max-len", "4"),
         ("cells", "census", "--n", "6", "--max-len", "12")),
        (("verify", "--n", "4", "--max-len", "2"), ("verify", "--n", "7", "--max-len", "8")),
        (("mul", "--n", "4", "--a", _element(4, 1), "--b", _element(4, 1)),
         ("mul", "--n", "5", "--a", _element(5, 6), "--b", _element(5, 6))),
    ],
    ids=["enumerate", "census", "verify", "mul"],
)
def test_garbage_does_not_grow_with_size(small, large):
    """run() turns the collector off because a command makes no cycles per
    element: what a collection finds after it does not depend on its size."""
    gc.disable()
    try:
        assert _garbage_after(small) == _garbage_after(large)
    finally:
        gc.enable()


def test_library_leaves_collector_alone():
    assert in_process("eval", "--n", "4", "--word", "1 3 2")[0] == 0
    assert gc.isenabled()
    assert gc.get_freeze_count() == 0
