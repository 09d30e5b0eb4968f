"""One module owns the heap: `afftl.words` alone tests adjacency, by
arithmetic on the n-cycle, and no configuration carries an adjacency table.

`absorbers` answers every cancellation question of one side in one scan;
it is played against the per-descent drop and rescan it replaced.  The
involution decomposition is played against its drop-and-rescan form, and
`reduced_perm` against the Coxeter length.  The heap commands take memory
and time bounded by the word, not by n.
"""

import ast
import random
import time
import tracemalloc
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import absorber_by_rescan, involution_decompose_by_rescan

import afftl
from afftl.cells import involution_decompose, labels
from afftl.config import GroupConfig
from afftl.explore import enumerate_elements
from afftl.words import absorbers, descent_mask, mask_letters, reduced_perm, to_affine_permutation

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
        descents = mask_letters(descent_mask(cfg, word, left))
        found = absorbers(cfg, word, left)
        assert list(found) == descents
        assert found == {s: absorber_by_rescan(cfg, word, s, left) for s in descents}


@pytest.mark.parametrize("n,max_len", [(3, 10), (4, 10), (5, 9), (6, 8), (7, 8), (8, 8)])
def test_involution_options_match_rescan(n, max_len):
    cfg = GroupConfig(n)
    steps = 0
    for rec in enumerate_elements(cfg, max_len, with_labels=False):
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
            p = to_affine_permutation(cfg, word)
            assert reduced_perm(cfg, word) == (p if p.length() == k else None), word


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
