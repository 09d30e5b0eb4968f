"""The constant-size generator action against the general product, and the
enumeration's involution flag (mirror symmetry of the diagram) against the
affine-permutation oracle."""

from afftl.config import GroupConfig
from afftl.diagrams import (
    BOT,
    TOP,
    generator,
    generator_times,
    multiply,
    partner,
    times_generator,
)
from afftl.explore import enumerate_elements
from afftl.words import perm_of


def diagrams_of(n, max_len):
    return [r.diagram for r in enumerate_elements(GroupConfig(n), max_len, with_labels=False)]


def assert_matches_multiply(pool, n):
    for d in pool:
        for s in range(1, n + 1):
            g = generator(n, s)
            assert times_generator(d, s) == multiply(d, g), (d, s)
            assert generator_times(s, d) == multiply(g, d), (d, s)


class TestLocalAction:
    def test_small_n_up_to_length_6(self):
        for n in (3, 4, 5, 6):
            assert_matches_multiply(diagrams_of(n, 6), n)

    def test_winding_loops_n4_up_to_length_12(self):
        pool = diagrams_of(4, 12)
        assert len(pool) == 185
        assert sum(1 for d in pool if d.loops) == 74
        # the action closes a loop around the cylinder on some of them
        winding = [
            (d, s, side)
            for d in pool
            for s in range(1, 5)
            for side in (TOP, BOT)
            if partner(d, side, s) == (side, s - 3)
        ]
        assert winding
        assert_matches_multiply(pool, 4)

    def test_contractible_case_returns_input(self):
        g = generator(5, 5)
        assert times_generator(g, 5).diagram is g
        assert times_generator(g, 5).contractible == 1
        assert generator_times(5, g).contractible == 1


class TestCarriedPermutation:
    def test_involution_flag_matches_word_oracle(self):
        for n, max_len in ((3, 12), (4, 12), (5, 10), (6, 9), (7, 8)):
            cfg = GroupConfig(n)
            recs = list(enumerate_elements(cfg, max_len, with_labels=False))
            assert sum(r.is_involution for r in recs) > 1
            for r in recs:
                assert r.is_involution == perm_of(cfg, r.word).is_involution(), r.word
