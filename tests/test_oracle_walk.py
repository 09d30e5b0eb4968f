"""The permutation oracle decides full commutativity by 321-avoidance, all
ascents of one permutation at a time: `AffinePermutation.fc_ascents()` is
played against the ascents s whose product p s passes a brute-force 321
scan, and against the heap criterion `words.heap_is_fc` of the extended
word, on random reduced FC words and on every extension of every FC
element up to a horizon per n, n = 3 included.  The scan of p itself
checks the theorem the oracle rests on (Green 2002: an element is FC
exactly when its permutation avoids 321)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import avoids_321_bruteforce
from test_enumerate_proof import draw_fc_word

from afftl.config import GroupConfig
from afftl.explore import oracle_counts
from afftl.words import AffinePermutation, heap_is_fc, reduced_perm

PROPERTY = settings(max_examples=100, deadline=None, database=None)


def scanned_fc_ascents(p):
    """The ascents s of p, ascending, whose product p s avoids 321 by the scan."""
    return [s for s in range(1, p.n + 1)
            if p.ascends(s) and avoids_321_bruteforce(p.times_generator(s))]


@PROPERTY
@given(st.data())
def test_lemma_is_the_scan_and_the_heap_criterion(data):
    cfg, word = draw_fc_word(data, 32, 200)
    p = reduced_perm(cfg, word)
    assert avoids_321_bruteforce(p), word
    got = p.fc_ascents()
    assert got == scanned_fc_ascents(p), word
    heap = [s for s in cfg.generators() if p.ascends(s) and heap_is_fc(cfg, word + (s,))]
    assert got == heap, word


@pytest.mark.parametrize("n,max_len", [(3, 20), (4, 16), (5, 14), (6, 12), (7, 12), (8, 12)])
def test_lemma_on_every_extension(n, max_len):
    # the levels are built by the scan alone, so fc_ascents decides nothing here
    level, counts = {AffinePermutation.identity(n)}, {0: 1}
    for ln in range(1, max_len + 1):
        nxt = set()
        for p in level:
            fc = scanned_fc_ascents(p)
            assert p.fc_ascents() == fc, p
            nxt.update(p.times_generator(s) for s in fc)
        level, counts[ln] = nxt, len(nxt)
    assert counts == oracle_counts(GroupConfig(n), max_len)
