"""`verify` catches faults in the generator action that the enumeration
no longer sees, faults in the permutation oracle's walk, and a fault in
the rewrite engine's descent test.

The enumeration computes only actions whose product is a new basis
diagram, so it neither rejects a loop nor deduplicates; these faults must
show in `verify`'s other checks (crossing counts, neighbour symmetry,
engine agreement) or stop it with exit 3.  A fault in the oracle's walk or
in its 321 lemma changes the oracle's counts, so counts-vs-oracle fails;
one in the rewrite engine's descent test fails engine-agreement.  The
heap criterion checks the words verify passes to the cell functions and
the rewrite engine: a threshold too strict rejects some of them, and one
too loose, which only valid words reach, is pinned as missed, with the
tier-1 test that catches it named beside it.
Each case copies the package into a temporary directory, plants one fault
by an exact text replacement that matches once, and runs `verify` on the
copy in a subprocess.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from afftl import verify
from afftl.config import GroupConfig
from afftl.explore import enumerate_elements

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "afftl"

# (file, old text, new text)
DROPS_WINDING_LOOP = ("diagrams.py", "        loops += 1\n", "        loops += 0\n")
RETURNS_D_FOR_NONE = (
    "diagrams.py",
    "close a contractible loop\n        return None\n",
    "close a contractible loop\n        return d\n",
)
IGNORES_LAST_GENERATOR = (
    "diagrams.py",
    "    return _generator_action(d, s, BOT)\n",
    "    return d if s == d.n else _generator_action(d, s, BOT)\n",
)
# Two mutants of the lemma change nothing, so they have no case here.
# Widening the slice by one at either end adds position s + 1 - n or s,
# whose value lies strictly between the bounds because p ascends at s;
# `<` -> `<=` never fires, since the bounds are values of the classes of s
# and s + 1, which no other class takes.
NO_LEVEL_DEDUP = (
    "explore.py",
    "        nxt: set[AffinePermutation] = set()\n"
    "        for p in level:\n"
    "            for s in p.fc_ascents():\n"
    "                nxt.add(",
    "        nxt: list[AffinePermutation] = []\n"
    "        for p in level:\n"
    "            for s in p.fc_ascents():\n"
    "                nxt.append(",
)
OMITS_CLASS_S_MINUS_1 = ("words.py", "mid = ext[s + 1:s + n - 1]", "mid = ext[s + 1:s + n - 2]")
UPPER_BOUND_ONLY = ("words.py", "if lo - n < min(mid) and max(mid) < hi:", "if max(mid) < hi:")
# The one-letter descent test without its neighbour test: any occurrence
# of s counts as a descent, so the rewrite engine squares where it should
# append or collapse.
ANY_OCCURRENCE_DESCENDS = (
    "words.py",
    "    return (s - 1 or n) not in head and s % n + 1 not in head\n",
    "    return True\n",
)
# The heap criterion with its threshold off by one: one neighbour
# occurrence between two occurrences of a letter passes.  verify calls
# `heap_is_fc` only on valid words (record words, checked by the cell
# functions and the rewrite engine's start check; the enumeration prunes
# by its own counters, and the oracle decides full commutativity by
# 321-avoidance), so a looser threshold passes every check; tier-1
# catches it in
# tests/test_enumerate_proof.py::test_counter_rule_is_the_heap_criterion.
HEAP_THRESHOLD_OFF_BY_ONE = (
    "words.py",
    "        if since.get(x, 2) <= 1:\n",
    "        if since.get(x, 2) <= 0:\n",
)
# The threshold too strict: three neighbour occurrences are needed, so
# valid record words are rejected where the cell functions check them.
HEAP_THRESHOLD_TOO_STRICT = (
    "words.py",
    "        if since.get(x, 2) <= 1:\n",
    "        if since.get(x, 3) <= 2:\n",
)
REJECTED = "ValueError: word is not a reduced word of a fully commutative element"
ORACLE_HORIZONS = [(4, 12), (5, 8), (7, 8)]


def run_verify(tmp_path, fault, n, max_len):
    shutil.copytree(PACKAGE, tmp_path / "afftl", ignore=shutil.ignore_patterns("__pycache__"))
    if fault:
        name, old, new = fault
        path = tmp_path / "afftl" / name
        text = path.read_text()
        assert text.count(old) == 1, old
        path.write_text(text.replace(old, new))
    env = dict(os.environ, PYTHONPATH=str(tmp_path), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "afftl.cli", "verify", "--n", str(n), "--max-len", str(max_len)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )


def test_the_copy_passes_unchanged(tmp_path):
    proc = run_verify(tmp_path, None, 5, 8)
    assert (proc.returncode, proc.stderr) == (0, "")


@pytest.mark.parametrize("fault,n,max_len", [
    pytest.param(DROPS_WINDING_LOOP, 4, 12, id="drops-winding-loop"),
    pytest.param(RETURNS_D_FOR_NONE, 5, 8, id="returns-d-for-none"),
    pytest.param(IGNORES_LAST_GENERATOR, 5, 8, id="ignores-s-n-at-5"),
    pytest.param(IGNORES_LAST_GENERATOR, 7, 8, id="ignores-s-n-at-7"),
])
def test_verify_catches_the_fault(tmp_path, fault, n, max_len):
    proc = run_verify(tmp_path, fault, n, max_len)
    assert proc.returncode != 0, proc.stdout
    assert "Traceback" not in proc.stderr  # a failed check, not a broken copy
    fails = [line for line in proc.stdout.splitlines() if line.startswith("FAIL ")]
    assert fails or proc.returncode == 3, proc.stdout


@pytest.mark.parametrize("fault", [
    pytest.param(NO_LEVEL_DEDUP, id="no-level-dedup"),
    pytest.param(OMITS_CLASS_S_MINUS_1, id="omits-class-s-1"),
    pytest.param(UPPER_BOUND_ONLY, id="upper-bound-only"),
])
@pytest.mark.parametrize("n,max_len", ORACLE_HORIZONS, ids=[f"{n}-{m}" for n, m in ORACLE_HORIZONS])
def test_verify_catches_the_oracle_fault(tmp_path, fault, n, max_len):
    proc = run_verify(tmp_path, fault, n, max_len)
    assert (proc.returncode, proc.stderr) == (1, "")
    fails = [line.split(":")[0] for line in proc.stdout.splitlines() if line.startswith("FAIL ")]
    assert fails == ["FAIL counts-vs-oracle"], proc.stdout


@pytest.mark.parametrize("n,max_len", ORACLE_HORIZONS, ids=[f"{n}-{m}" for n, m in ORACLE_HORIZONS])
def test_verify_catches_the_descent_fault(tmp_path, n, max_len):
    proc = run_verify(tmp_path, ANY_OCCURRENCE_DESCENDS, n, max_len)
    assert (proc.returncode, proc.stderr) == (1, "")
    fails = [line for line in proc.stdout.splitlines() if line.startswith("FAIL ")]
    assert fails == ["FAIL engine-agreement: pair (1,) x (2, 1)"], proc.stdout


@pytest.mark.parametrize("n,max_len", ORACLE_HORIZONS, ids=[f"{n}-{m}" for n, m in ORACLE_HORIZONS])
def test_verify_misses_the_heap_threshold_fault(tmp_path, n, max_len):
    # pinned as missed: a change that makes verify catch it updates this test
    proc = run_verify(tmp_path, HEAP_THRESHOLD_OFF_BY_ONE, n, max_len)
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = proc.stdout.splitlines()
    assert len(lines) == 11 and all(line.startswith("PASS ") for line in lines), proc.stdout


@pytest.mark.parametrize("n,max_len", ORACLE_HORIZONS, ids=[f"{n}-{m}" for n, m in ORACLE_HORIZONS])
def test_verify_catches_the_strict_heap_threshold_fault(tmp_path, n, max_len):
    proc = run_verify(tmp_path, HEAP_THRESHOLD_TOO_STRICT, n, max_len)
    assert (proc.returncode, proc.stderr) == (1, "")
    fails = [line for line in proc.stdout.splitlines() if line.startswith("FAIL ")]
    assert fails == [
        f"FAIL core-order-independence: {REJECTED}",
        f"FAIL involutions: {REJECTED}",
    ], proc.stdout


def test_counts_vs_oracle_fails_on_repeated_diagrams():
    cfg = GroupConfig(5)
    recs = list(enumerate_elements(cfg, 4))
    passed = verify.check_counts_vs_oracle(cfg, recs, 4)
    assert passed == ("counts-vs-oracle", True, "lengths 0..4")
    # same words and lengths, so the per-length counts still agree
    twins = [rec._replace(diagram=recs[1].diagram) if rec.length == 1 else rec for rec in recs]
    assert verify.check_counts_vs_oracle(cfg, twins, 4) == (
        "counts-vs-oracle", False, "4 records repeat an earlier diagram",
    )
