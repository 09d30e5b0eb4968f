"""The permutation oracle decides full commutativity by 321-avoidance, one
ascent at a time: `AffinePermutation.stays_fc(s)` is played against a
brute-force 321 scan of p s and against the heap criterion
`words.heap_is_fc` of the extended word, on random reduced FC words and on
every extension of every FC element up to a horizon per n.  The scan of p
itself checks the theorem the oracle rests on (Green 2002: an element is
FC exactly when its permutation avoids 321)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import avoids_321_bruteforce
from test_enumerate_proof import draw_fc_word

from afftl.config import GroupConfig
from afftl.explore import oracle_counts
from afftl.words import AffinePermutation, heap_is_fc, reduced_perm

PROPERTY = settings(max_examples=100, deadline=None, database=None)


@PROPERTY
@given(st.data())
def test_lemma_is_the_scan_and_the_heap_criterion(data):
    cfg, word = draw_fc_word(data, 32, 200)
    p = reduced_perm(cfg, word)
    assert avoids_321_bruteforce(p), word
    for s in cfg.generators():
        if p.ascends(s):
            lemma = p.stays_fc(s)
            assert lemma == avoids_321_bruteforce(p.times_generator(s)), (word, s)
            assert lemma == heap_is_fc(cfg, word + (s,)), (word, s)


@pytest.mark.parametrize("n,max_len", [(3, 20), (4, 16), (5, 14), (6, 12), (7, 12), (8, 12)])
def test_lemma_on_every_extension(n, max_len):
    # the levels are built by the scan alone, so the lemma decides nothing here
    level, counts = {AffinePermutation.identity(n)}, {0: 1}
    for ln in range(1, max_len + 1):
        nxt = set()
        for p in level:
            for s in range(1, n + 1):
                if p.ascends(s):
                    q = p.times_generator(s)
                    fc = avoids_321_bruteforce(q)
                    assert p.stays_fc(s) == fc, (p, s)
                    if fc:
                        nxt.add(q)
        level, counts[ln] = nxt, len(nxt)
    assert counts == oracle_counts(GroupConfig(n), max_len)
