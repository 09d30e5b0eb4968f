"""Descent sets read off the heap, against the greedy formulations.

A word's left descents are the minimal elements of its heap and its right
descents the maximal ones, so `absorbers` finds each set in one scan, and
cancellation, core reduction and the left decomposition read the heap the
same way.  Each is compared with the old formulation, one `greedy_front` or
`greedy_back` per generator, kept in `tests/oracles.py`: on every
enumerated element and a commutation-shuffled copy of it, and on
arbitrary words, where the two definitions agree as well.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import shuffled
from oracles import (
    cancel_options_greedy,
    cancellable_greedy,
    left_decomposition_greedy,
    left_descents_greedy,
    reduce_to_core_greedy,
    right_descents_greedy,
)

from afftl.cells import _cancel_steps, cancellable, reduce_to_core
from afftl.config import GroupConfig
from afftl.explore import enumerate_elements
from afftl.words import (
    drop_letter,
    greedy_back,
    greedy_front,
    left_decomposition,
    left_descents,
    right_descents,
)

PROPERTY = settings(max_examples=300, deadline=None, database=None)
HORIZONS = [(3, 12), (4, 12), (5, 10), (6, 9), (7, 8), (8, 8)]


def assert_same_descent_answers(cfg, w):
    left, right = left_descents(cfg, w), right_descents(cfg, w)
    assert left == left_descents_greedy(cfg, w), w
    assert right == right_descents_greedy(cfg, w), w
    for side, found in (("left", left), ("right", right)):
        for s in found:
            assert cancellable(cfg, w, s, side) == cancellable_greedy(cfg, w, s, side), (w, s)
    assert _cancel_steps(cfg, w) == cancel_options_greedy(cfg, w), w
    assert left_decomposition(cfg, w) == left_decomposition_greedy(cfg, w), w


class TestEnumeratedElements:
    @pytest.mark.parametrize("n,max_len", HORIZONS)
    def test_masks_match_greedy_scans(self, n, max_len):
        cfg = GroupConfig(n)
        rng = random.Random(n)
        cancelled = 0
        for rec in enumerate_elements(cfg, max_len):
            for w in (rec.word, shuffled(cfg, rec.word, rng)):
                assert_same_descent_answers(cfg, w)
                cancelled += bool(_cancel_steps(cfg, w))
        assert cancelled > 0


@st.composite
def words(draw):
    """(n, word) with n in 3..10 and a word of length <= 12 over 1..n; the
    word need not be reduced."""
    n = draw(st.integers(3, 10))
    return n, tuple(draw(st.lists(st.integers(1, n), max_size=12)))


class TestArbitraryWords:
    @PROPERTY
    @given(words())
    def test_masks_match_greedy_scans(self, case):
        n, word = case
        assert_same_descent_answers(GroupConfig(n), word)

    @PROPERTY
    @given(words())
    def test_dropping_a_descent_matches_the_greedy_move(self, case):
        n, word = case
        cfg = GroupConfig(n)
        for s in left_descents(cfg, word):
            assert drop_letter(word, s, True) == greedy_front(cfg, word, s)[1:]
        for s in right_descents(cfg, word):
            assert drop_letter(word, s, False) == greedy_back(cfg, word, s)[:-1]


class TestReduceToCoreTraces:
    @pytest.mark.parametrize("n,max_len", [(3, 10), (4, 10), (5, 9), (6, 8), (7, 7)])
    def test_traces_match_greedy_reduction(self, n, max_len):
        cfg = GroupConfig(n)
        steps = 0
        for seed, rec in enumerate(enumerate_elements(cfg, max_len)):
            det = reduce_to_core(cfg, rec.word)
            assert det == reduce_to_core_greedy(cfg, rec.word), rec.word
            rnd = reduce_to_core(cfg, rec.word, rng=random.Random(seed))
            assert rnd == reduce_to_core_greedy(cfg, rec.word, rng=random.Random(seed)), rec.word
            steps += len(rec.word) - len(det)
        assert steps > 0


class TestBadInput:
    @pytest.mark.parametrize("n", [3, 5])
    @pytest.mark.parametrize("bad", [0, -1, 9])
    @pytest.mark.parametrize("at", [0, 1, 3])
    def test_bad_letter_anywhere_raises(self, n, bad, at):
        # the old greedy scans stopped at the first letter blocking every
        # generator, so at n = 3 they never reached a bad letter behind one
        word = [1, 2, 1]
        word.insert(at, bad)
        cfg = GroupConfig(n)
        calls = [left_descents, right_descents]
        calls += [lambda cfg, w: greedy_front(cfg, w, 1), lambda cfg, w: greedy_back(cfg, w, 1)]
        for call in calls:
            with pytest.raises(ValueError, match="out of range"):
                call(cfg, word)


class TestGreedyBack:
    def test_public_behaviour(self):
        cfg = GroupConfig(5)
        assert greedy_back(cfg, (1, 3, 2, 4), 2) == (1, 3, 4, 2)
        assert greedy_back(cfg, [1, 3, 2, 4], 4) == (1, 3, 2, 4)
        # 3 is blocked by the later non-commuting 2
        assert greedy_back(cfg, (1, 3, 2, 4), 3) is None
        assert greedy_back(cfg, (), 1) is None
        # the last occurrence moves
        assert greedy_back(cfg, (2, 4, 2, 5), 2) == (2, 4, 5, 2)
        with pytest.raises(ValueError, match="out of range"):
            greedy_back(cfg, (1, 2), 6)
        with pytest.raises(ValueError, match="out of range"):
            greedy_back(cfg, (1, 7), 1)
