"""The width of a word's heap against the two other readings of a(w).

`words.heap_width` finds the largest antichain of the heap by bipartite
matching.  `cells.a_bruteforce` is the definition: the largest commuting
block occurring as a contiguous factor of some word in the commutation
class.  `cells.a_value` counts the diagram's top short arcs.  The
enumerated horizons below cover verify's benchmark horizon (n = 7, L <= 8).
"""

import random

import pytest
from conftest import shuffled
from hypothesis import given, settings
from hypothesis import strategies as st

from afftl.cells import a_bruteforce, a_value
from afftl.config import GroupConfig
from afftl.explore import enumerate_elements
from afftl.words import heap_width

HORIZONS = {3: 10, 4: 10, 5: 9, 6: 8, 7: 8}


@pytest.mark.parametrize("n", sorted(HORIZONS))
def test_equals_bruteforce_on_enumerated_elements(n):
    cfg = GroupConfig(n)
    rng = random.Random(n)
    for rec in enumerate_elements(cfg, HORIZONS[n]):
        a = a_bruteforce(cfg, rec.word, bound=HORIZONS[n])
        assert heap_width(cfg, rec.word) == a, rec.word
        assert heap_width(cfg, shuffled(cfg, rec.word, rng)) == a, rec.word


@st.composite
def any_word(draw):
    """(n, word) with n in 3..10 and a word of length <= 9 over 1..n; the
    word need not be reduced."""
    n = draw(st.integers(3, 10))
    return n, tuple(draw(st.lists(st.integers(1, n), max_size=9)))


@settings(max_examples=300, deadline=None, database=None)
@given(any_word())
def test_equals_bruteforce_on_any_word(case):
    n, word = case
    cfg = GroupConfig(n)
    assert heap_width(cfg, word) == a_bruteforce(cfg, word)


def test_equals_arc_count_past_bruteforce():
    cfg = GroupConfig(8)
    recs = list(enumerate_elements(cfg, 12))
    assert len(recs) == 10_163
    for rec in recs:
        assert heap_width(cfg, rec.word) == a_value(cfg, rec.word), rec.word


def test_augmenting_step_needed():
    # Heap of (1, 3, 2, 5) at n = 5: 0 < 2, 0 < 3 and 1 < 2.  Matching 0 to
    # its first successor 2 leaves 1 unmatched; the maximum matching is
    # 0 -> 3, 1 -> 2, so the width is 2 ({1, 3} or {2, 5}), not 3.
    cfg = GroupConfig(5)
    assert heap_width(cfg, (1, 3, 2, 5)) == a_bruteforce(cfg, (1, 3, 2, 5)) == 2


def test_long_word_does_not_recurse():
    # Two commuting minima under one chain of 2998 letters.  The search from
    # the chain's second-to-last position fails only after walking down
    # every owner to the bottom, a path of about 3000 steps.
    cfg = GroupConfig(4)
    chain = ((2, 1, 4, 3) * 750)[:2998]
    assert heap_width(cfg, (3, 1) + chain) == 2
    assert heap_width(cfg, chain) == 1


@pytest.mark.parametrize("word", [(0,), (1, 5), (2, -1, 3)])
def test_rejects_bad_letters(word):
    with pytest.raises(ValueError):
        heap_width(GroupConfig(4), word)


def test_small_cases():
    cfg = GroupConfig(6)
    assert heap_width(cfg, ()) == 0
    assert heap_width(cfg, (1, 3, 5)) == 3
    assert heap_width(cfg, (1, 1, 1)) == 1
    # contiguous factors, not subsequences: {1, 3} is no antichain here
    assert heap_width(cfg, (1, 2, 3)) == 1
