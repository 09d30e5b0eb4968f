"""One module owns the heap: `afftl.words` alone tests adjacency, by
arithmetic on the n-cycle, and no configuration carries an adjacency table.

`absorbers` answers every cancellation question of one side in one scan;
it is played against the per-descent drop and rescan it replaced, and
`descends`, the one-letter test, against it.  The involution
decomposition is played against its drop-and-rescan form, and
`reduced_perm` against the Coxeter length.  The heap commands take memory
and time bounded by the word, not by n.  Neither the permutation oracle
nor the rewrite engine builds the heap order, and the oracle calls nothing
outside the permutation model: it shares no FC test with the enumeration
it checks.
"""

import ast
import hashlib
import inspect
import os
import random
import time
import tracemalloc
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import record_calls
from oracles import (
    absorber_by_rescan,
    involution_decompose_by_rescan,
    left_descents_greedy,
    perm_length,
    right_descents_greedy,
)

import afftl
from afftl.algebra import _rewrite_mul_cached, rewrite_eval
from afftl.cells import involution_decompose, labels
from afftl.config import GroupConfig
from afftl.diagrams import multiply
from afftl.explore import element_cap, enumerate_elements, oracle_counts
from afftl.straightening import stack
from afftl.words import (
    AffinePermutation,
    absorbers,
    check_word,
    descends,
    left_decomposition,
    left_descents,
    perm_of,
    reduced_perm,
    right_descents,
)

PROPERTY = settings(max_examples=300, deadline=None, database=None)


@st.composite
def words(draw):
    """(n, word) with n in 3..12 and a word of length <= 14 over 1..n; the
    word need not be reduced."""
    n = draw(st.integers(3, 12))
    return n, tuple(draw(st.lists(st.integers(1, n), max_size=14)))


@PROPERTY
@given(words())
def test_absorbers_match_rescan(case):
    n, word = case
    cfg = GroupConfig(n)
    for left in (True, False):
        descents = sorted((left_descents_greedy if left else right_descents_greedy)(cfg, word))
        found = absorbers(cfg, word, left)
        assert list(found) == descents
        assert found == {s: absorber_by_rescan(cfg, word, s, left) for s in descents}


@PROPERTY
@given(words())
def test_descends_is_membership_in_absorbers(case):
    # the rewrite engine and the greedy moves ask about one letter; the
    # answer must be the one the full descent scan gives
    n, word = case
    cfg = GroupConfig(n)
    for left in (True, False):
        found = absorbers(cfg, word, left)
        assert [s for s in cfg.generators() if descends(cfg, word, s, left)] == list(found)


@pytest.mark.parametrize("n,max_len", [(3, 10), (4, 10), (5, 9), (6, 8), (7, 8), (8, 8)])
def test_involution_options_match_rescan(n, max_len):
    cfg = GroupConfig(n)
    steps = 0
    for rec in enumerate_elements(cfg, max_len):
        if not rec.is_involution:
            continue
        dec = involution_decompose(cfg, rec.word)
        assert dec == involution_decompose_by_rescan(cfg, rec.word), rec.word
        for seed in range(3):
            got = involution_decompose(cfg, rec.word, rng=random.Random(seed))
            want = involution_decompose_by_rescan(cfg, rec.word, rng=random.Random(seed))
            assert got == want, (rec.word, seed)
        steps += len(dec.x)
    # at n = 3 each FC involution is a single generator or the identity
    assert steps > 0 or n == 3


@pytest.mark.parametrize("n", [3, 4])
def test_reduced_perm_matches_length(n):
    cfg = GroupConfig(n)
    for k in range(7):
        for word in product(cfg.generators(), repeat=k):
            p = perm_of(cfg, word)
            assert reduced_perm(cfg, word) == (p if perm_length(p) == k else None), word


def test_no_adjacency_table():
    assert not hasattr(GroupConfig(5), "masks")
    for path in Path(afftl.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        reads = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and node.attr == "masks"]
        assert reads == [], path.name


def test_cell_labels_memory_bounded_by_word():
    # a table of n-bit adjacency masks alone would take over 100 MB at this n
    tracemalloc.start()
    try:
        labels(GroupConfig(40000), (1, 2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40e6


def test_involution_at_large_n_is_fast():
    # an O(n^2) reducedness self-check, summing inversions, takes about 20 s
    # at this n on a 2-core machine
    start = time.perf_counter()
    dec = involution_decompose(GroupConfig(20000), (1,))
    assert time.perf_counter() - start < 5
    assert dec == ((), frozenset({1}))


def test_heap_scans_at_large_n_are_fast():
    # letter bitmasks cost O(n) bits per letter scanned: at this n the
    # left decomposition took about 3 s that way on a 2-core machine
    n = 400000
    m = n // 2
    cfg = GroupConfig(n)
    word = (m, m - 1, m + 1, m)
    start = time.perf_counter()
    check_word(GroupConfig(n), (1, 2))
    assert time.perf_counter() - start < 0.05, "check_word"
    for scan in (left_decomposition, left_descents, right_descents):
        start = time.perf_counter()
        scan(cfg, word)
        assert time.perf_counter() - start < 0.05, scan.__name__
    assert left_decomposition(cfg, word) == ({m}, {m - 1, m + 1}, {m})
    assert left_descents(cfg, word) == right_descents(cfg, word) == {m}


# sha256 of the repr of the list of rewrite_eval(cfg, b, start=a) over the
# pairs (a, b) of words below, in order: pins the words themselves, which
# the diagram engine fixes only up to commutation
REWRITE_PAIRS_N5_L3 = "5784ee626803f5a6d98dbc340fe0f19ca0de82f608cf85b5c1e79d51855d681f"


def _codes(*functions):
    """The code objects of the functions and of what they nest, such as a
    generator expression."""
    out, todo = set(), [f.__code__ for f in functions]
    while todo:
        code = todo.pop()
        out.add(code)
        todo += [c for c in code.co_consts if inspect.iscode(c)]
    return out


def _methods(cls):
    return [f for f in (getattr(v, "__func__", v) for v in vars(cls).values()) if inspect.isfunction(f)]


def _afftl_calls(run):
    """The afftl code objects that run() calls, recorded by sys.setprofile;
    frames outside the package, such as os.environ's inside element_cap,
    are ignored."""
    package = os.path.dirname(afftl.__file__)
    return record_calls(run, lambda code: os.path.dirname(code.co_filename) == package)


def test_engines_do_not_read_the_heap_order(monkeypatch):
    # the permutation oracle decides FC off the window and the rewrite
    # engine makes its own pass over the word; only heap_width builds the
    # order, and the oracle calls no word code at all
    called = _afftl_calls(lambda: oracle_counts(GroupConfig(6), 10))
    allowed = _codes(oracle_counts, element_cap, *_methods(GroupConfig), *_methods(AffinePermutation))
    assert sorted(code.co_name for code in called - allowed) == []
    assert {oracle_counts.__code__, AffinePermutation.fc_ascents.__code__} <= called

    def forbidden(cfg, word):
        raise AssertionError("_heap_reach called")

    monkeypatch.setattr("afftl.words._heap_reach", forbidden)
    _rewrite_mul_cached.cache_clear()
    cfg = GroupConfig(5)
    assert oracle_counts(cfg, 9) == {0: 1, 1: 5, 2: 15, 3: 30, 4: 45, **dict.fromkeys(range(5, 10), 50)}
    recs = list(enumerate_elements(cfg, 3))
    got = [rewrite_eval(cfg, b.word, start=a.word) for a in recs for b in recs]
    assert hashlib.sha256(repr(got).encode()).hexdigest() == REWRITE_PAIRS_N5_L3
    for (exponent, word), (a, b) in zip(got, product(recs, recs)):
        prod = multiply(a.diagram, b.diagram)
        assert (exponent, stack(cfg, word).diagram) == (prod.contractible, prod.diagram)
