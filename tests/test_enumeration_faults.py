"""`verify` catches faults in the generator action that the enumeration
no longer sees, faults in the permutation oracle's walk, and a fault in
the rewrite engine's descent test.

The enumeration computes only actions whose product is a new basis
diagram, so it neither rejects a loop nor deduplicates; these faults must
show in `verify`'s other checks (crossing counts, neighbour symmetry,
engine agreement) or stop it with exit 3.  A fault in the oracle's walk
(each level kept as a list instead of a set, so an element repeats once
per FC parent) or in its 321 lemma changes the oracle's counts, so
counts-vs-oracle fails; one in the rewrite engine's descent test fails
engine-agreement.  Two faults in `multiply`'s middle-cycle count are
pinned at every horizon, caught or missed, with their FAIL lines.  So are
four engine faults, each with its exit code and its FAIL lines or error
message: the permutation wrap generator's sign flipped and the slide
peel's letter one class off stop verify with exit 3; `compose` without
its period shift fails involutions, and no delta on a right descent in
the rewrite engine fails engine-agreement.  The
heap criterion checks the words verify passes to the cell functions and
the rewrite engine: a threshold too strict rejects some of them, and one
too loose, which only valid words reach, is pinned as missed, with the
tier-1 test that catches it named beside it.  So are three faults in the
products path (Laurent `*`, `unpack` and the element loader), which no
check of verify runs, and four from the hand-made table of heap and rewrite
faults: a collapse appending the wrong letter and `_braid_split` ignoring
adjacency fail engine-agreement; `left_decomposition` ignoring a wrap
neighbour is missed; `a_value` one too high on words longer than 8 fails
a-agreement and involutions where the horizon reaches such words and is
missed where it does not.  Each missed row names the tier-1 test that
catches it.
Each case copies the package into a temporary directory, plants one fault
by an exact text replacement that matches once, and runs `verify` on the
copy in a subprocess.
"""

import json
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
# The walk with each level kept as a list instead of a set: an element
# repeats once per FC parent, and so do its extensions.
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
# `multiply`'s middle-cycle pass with one count wrong.  A winding middle
# cycle needs a product with no through strand, which odd n never has, so
# dropping it shows only at n = 4, where engine-agreement's pairs of length
# at most 3 close one; a doubled contractible loop shows on E_1 E_1.
MULTIPLY_DROPS_WINDING_LOOP = (
    "diagrams.py",
    "                winding += 1\n",
    "                winding += 0\n",
)
MULTIPLY_COUNTS_LOOPS_TWICE = (
    "diagrams.py",
    "                contractible += 1\n",
    "                contractible += 2\n",
)
# Faults in the products path: Laurent multiplication with its exponents
# subtracted, `unpack` reading every slot one exponent up,
# and the element loader adding each term's coefficient two exponents up.
# verify runs no Laurent arithmetic and loads no element JSON, so all three
# are missed; the tier-1 test named beside each catches it.
LAURENT_MUL_SUBTRACTS = ("laurent.py", "                e = e1 + e2\n", "                e = e1 - e2\n")
UNPACK_OFF_BY_ONE = ("laurent.py", "    e = lo\n", "    e = lo + 1\n")
LOADER_OFF_BY_TWO = (
    "algebra.py",
    "            acc[e] = acc.get(e, 0) + c\n",
    "            acc[e + 2] = acc.get(e + 2, 0) + c\n",
)
PRODUCTS_FAULTS = {
    "laurent-mul-subtracts": (
        LAURENT_MUL_SUBTRACTS, "tests/test_laurent.py::TestRingOps::test_difference_of_squares"),
    "unpack-off-by-one": (
        UNPACK_OFF_BY_ONE, "tests/test_packed_mul.py::TestPacking::test_roundtrip"),
    "loader-off-by-two": (
        LOADER_OFF_BY_TWO, "tests/test_element_json.py::test_loader_matches_the_sums_oracle"),
}
# Faults in the permutation engine, the peel and the rewrite engine, each
# planted once and pinned with its outcome at every horizon: the wrap
# generator s_n with its sign flipped, which `involution_decompose`'s
# reducedness check reports as an internal error; `compose` without the
# period shift, which the involutions check sees on s_n; the slide peel's
# letter one class off, which the peel's re-stack check stops; and no
# delta on a right descent, which engine-agreement sees on E_1 E_1.
WRAP_SIGN_FLIPPED = (
    "words.py",
    "w[0], w[n - 1] = w[n - 1] - n, w[0] + n",
    "w[0], w[n - 1] = w[n - 1] + n, w[0] - n",
)
COMPOSE_NO_SHIFT = (
    "words.py",
    "win.append(self.window[c - 1] + (q - c))",
    "win.append(self.window[c - 1])",
)
SLIDE_LETTER_OFF_BY_ONE = (
    "straightening.py",
    "letter = class_of(d.n, f.cls + 1)",
    "letter = class_of(d.n, f.cls + 2)",
)
NO_DELTA_ON_DESCENT = ("algebra.py", "        return 1, word\n", "        return 0, word\n")
# (fault, exit code, the InvariantError message on exit 3, else the one
# FAIL line with n filled in)
ENGINE_FAULTS = {
    "wrap-sign-flipped": (WRAP_SIGN_FLIPPED, 3, "decomposition is not reduced"),
    "compose-no-shift": (
        COMPOSE_NO_SHIFT, 1,
        "FAIL involutions: mirror flag disagrees with the permutation at ({n},)"),
    "slide-letter-off-by-one": (
        SLIDE_LETTER_OFF_BY_ONE, 3, "peel reconstruction failed at class 1 kind B2"),
    "no-delta-on-descent": (NO_DELTA_ON_DESCENT, 1, "FAIL engine-agreement: pair (1,) x (1,)"),
}
# Faults from the hand-made table.  A collapse keeps the witness's
# neighbour where the appended letter belongs; `_braid_split` puts every
# letter but another t into w1, so the split finds no neighbour of t; the
# left decomposition's layer of 1 ignores an occurrence of n below it; and
# `a_value` adds one on words longer than 8, which only a horizon past 8
# reaches.  verify's left decompositions are all of core words, whose
# layers a missed wrap neighbour does not change.
COLLAPSE_WRONG_LETTER = (
    "algebra.py",
    "    return _fold(cfg, wit.w1 + (s,), wit.w2)\n",
    "    return _fold(cfg, wit.w1 + (wit.s,), wit.w2)\n",
)
BRAID_SPLIT_NO_ADJACENCY = (
    "words.py",
    "        if above.isdisjoint((x, x - 1 or n, x % n + 1)):\n",
    "        if x not in above:\n",
)
LEFT_DECOMPOSITION_NO_WRAP = ("words.py", "level.get(x - 1 or n, -1)", "level.get(x - 1, -1)")
A_VALUE_OFF_ON_LONG_WORDS = (
    "cells.py",
    "    return short_arc_count(stack(cfg, word).diagram) // 2\n",
    "    return short_arc_count(stack(cfg, word).diagram) // 2 + (len(word) > 8)\n",
)
# name -> (fault, n, max_len, the FAIL lines or None when verify misses
# the fault, the tier-1 test that catches a missed fault)
TABLE_FAULTS = {
    "collapse-wrong-letter-4-12": (
        COLLAPSE_WRONG_LETTER, 4, 12, ["FAIL engine-agreement: pair (1,) x (2, 1)"], None),
    "braid-split-no-adjacency-4-12": (
        BRAID_SPLIT_NO_ADJACENCY, 4, 12,
        ["FAIL engine-agreement: IndexError: list index out of range"], None),
    "left-decomposition-no-wrap-4-12": (
        LEFT_DECOMPOSITION_NO_WRAP, 4, 12, None,
        "tests/test_descent_masks.py::TestEnumeratedElements::test_masks_match_greedy_scans"),
    "a-value-off-on-long-words-4-12": (
        A_VALUE_OFF_ON_LONG_WORDS, 4, 12, [
            "FAIL a-agreement: fails at (1, 2, 3, 4, 1, 2, 3, 4, 1): 2 arcs, heap width 1",
            "FAIL involutions: arc count mismatch at (1, 3, 2, 4, 1, 3, 2, 4, 1, 3)",
        ], None),
    "a-value-off-on-long-words-5-8": (
        A_VALUE_OFF_ON_LONG_WORDS, 5, 8, None,
        "tests/test_heap_width.py::test_equals_arc_count_past_bruteforce"),
}
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


@pytest.mark.parametrize("n,max_len,expected", [
    (4, 12, ["FAIL engine-agreement: pair (1,) x (3, 2, 4)"]),
    (5, 8, []),  # missed: odd n has no winding loops
    (7, 8, []),
], ids=[f"{n}-{m}" for n, m in ORACLE_HORIZONS])
def test_multiply_winding_fault_pinned(tmp_path, n, max_len, expected):
    proc = run_verify(tmp_path, MULTIPLY_DROPS_WINDING_LOOP, n, max_len)
    assert (proc.returncode, proc.stderr) == (1 if expected else 0, "")
    fails = [line for line in proc.stdout.splitlines() if line.startswith("FAIL ")]
    assert fails == expected, proc.stdout


@pytest.mark.parametrize("n,max_len", ORACLE_HORIZONS, ids=[f"{n}-{m}" for n, m in ORACLE_HORIZONS])
def test_verify_catches_the_doubled_loop_count(tmp_path, n, max_len):
    proc = run_verify(tmp_path, MULTIPLY_COUNTS_LOOPS_TWICE, n, max_len)
    assert (proc.returncode, proc.stderr) == (1, "")
    fails = [line for line in proc.stdout.splitlines() if line.startswith("FAIL ")]
    assert fails == [
        "FAIL defining-relations: square relation fails at 1",
        "FAIL engine-agreement: pair (1,) x (1,)",
    ], proc.stdout


@pytest.mark.parametrize("name", list(ENGINE_FAULTS))
@pytest.mark.parametrize("n,max_len", ORACLE_HORIZONS, ids=[f"{n}-{m}" for n, m in ORACLE_HORIZONS])
def test_engine_fault_pinned(tmp_path, name, n, max_len):
    fault, code, expected = ENGINE_FAULTS[name]
    proc = run_verify(tmp_path, fault, n, max_len)
    assert proc.returncode == code, (proc.stdout, proc.stderr)
    fails = [line for line in proc.stdout.splitlines() if line.startswith("FAIL ")]
    if code == 3:
        assert not fails, proc.stdout
        error = {"error": "InvariantError", "message": expected}
        assert proc.stderr == json.dumps(error) + "\n"
    else:
        assert (fails, proc.stderr) == ([expected.format(n=n)], ""), proc.stdout


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


def assert_missed(proc, catcher):
    """verify passed every check; the named tier-1 test, which catches the
    fault instead, must exist.  A change that makes verify catch the fault
    updates the pin."""
    path, _, test = catcher.partition("::")
    assert f"def {test.split('::')[-1]}(" in (PACKAGE.parents[1] / path).read_text()
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = proc.stdout.splitlines()
    assert len(lines) == 11 and all(line.startswith("PASS ") for line in lines), proc.stdout


@pytest.mark.parametrize("name", list(PRODUCTS_FAULTS))
def test_verify_misses_the_products_fault(tmp_path, name):
    # pinned as missed at 4/12
    fault, catcher = PRODUCTS_FAULTS[name]
    assert_missed(run_verify(tmp_path, fault, 4, 12), catcher)


@pytest.mark.parametrize("name", list(TABLE_FAULTS))
def test_table_fault_pinned(tmp_path, name):
    fault, n, max_len, expected, catcher = TABLE_FAULTS[name]
    proc = run_verify(tmp_path, fault, n, max_len)
    if expected is None:
        assert_missed(proc, catcher)
        return
    assert (proc.returncode, proc.stderr) == (1, "")
    fails = [line for line in proc.stdout.splitlines() if line.startswith("FAIL ")]
    assert fails == expected, proc.stdout
