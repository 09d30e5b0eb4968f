"""Internal loops that trust their input, against the validating oracles.

The word layer tests adjacency by arithmetic and keeps the heap order as
bitmasks only for the width, `straight_diagram` checks the generator set
instead of the built diagram, and `multiply` and `is_straight` read the
window arrays directly.
Each is compared with the old formulation kept in `tests/oracles.py`, and
`multiply` also with stacking the concatenated words; the public entry
points must still reject bad generator indices, stacking must not recurse
once per letter, and each of `multiply`'s self-checks fires on a
hand-built broken pair.
"""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    a_bruteforce_adjacent,
    commutation_class_adjacent,
    commuting_sets,
    greedy_back_adjacent,
    greedy_front_adjacent,
    heap_reach_matrix,
    is_straight_by_construction,
    multiply_by_partner,
    straight_diagram_checked,
    window,
)

from afftl.algebra import rewrite_eval, rewrite_mul
from afftl.cells import a_bruteforce
from afftl.config import GroupConfig, InvariantError
from afftl.diagrams import (
    BOT,
    TOP,
    ProductResult,
    descent_arcs,
    identity,
    length,
    multiply,
    node_ref,
    straight_diagram,
    times_generator,
)
from afftl.explore import enumerate_elements
from afftl.straightening import is_straight, stack
from afftl.words import (
    _heap_reach,
    commutation_class,
    greedy_back,
    greedy_front,
    heap_is_fc,
    left_descents,
    right_descents,
)

PROPERTY = settings(max_examples=300, deadline=None, database=None)
CLASS_CAP = 5000


@st.composite
def words_and_letter(draw):
    """(n, word, s) with n in 3..10, a word of length <= 10 over 1..n and a
    generator s; the word need not be reduced."""
    n = draw(st.integers(3, 10))
    word = tuple(draw(st.lists(st.integers(1, n), max_size=10)))
    return n, word, draw(st.integers(1, n))


def class_or_overflow(fn, cfg, word):
    try:
        return fn(cfg, word, cap=CLASS_CAP)
    except RuntimeError:
        return "over cap"


class TestAdjacencyMasks:
    def test_masks_equal_adjacent(self):
        # j is a left descent of (i, j), and i a right one, unless i and j
        # are adjacent
        for n in range(3, 13):
            cfg = GroupConfig(n)
            for i in cfg.generators():
                for j in cfg.generators():
                    apart = set() if cfg.adjacent(i, j) else {i, j}
                    assert left_descents(cfg, (i, j)) == {i} | apart, (n, i, j)
                    assert right_descents(cfg, (i, j)) == {j} | apart, (n, i, j)

    def test_a_bruteforce_equals_adjacent_scan(self):
        for n in range(3, 8):
            cfg = GroupConfig(n)
            for rec in enumerate_elements(cfg, 8):
                assert a_bruteforce(cfg, rec.word) == a_bruteforce_adjacent(cfg, rec.word), rec.word


class TestWordLayerProperties:
    @PROPERTY
    @given(words_and_letter())
    def test_greedy_front(self, case):
        n, word, s = case
        cfg = GroupConfig(n)
        assert greedy_front(cfg, word, s) == greedy_front_adjacent(cfg, word, s)

    @PROPERTY
    @given(words_and_letter())
    def test_greedy_back(self, case):
        n, word, s = case
        cfg = GroupConfig(n)
        assert greedy_back(cfg, word, s) == greedy_back_adjacent(cfg, word, s)

    @PROPERTY
    @given(words_and_letter())
    def test_commutation_class(self, case):
        n, word, _ = case
        cfg = GroupConfig(n)
        assert class_or_overflow(commutation_class, cfg, word) == class_or_overflow(
            commutation_class_adjacent, cfg, word
        )

    @PROPERTY
    @given(words_and_letter())
    def test_heap_reach(self, case):
        n, word, _ = case
        cfg = GroupConfig(n)
        bits = [[bool(r >> j & 1) for j in range(len(word))] for r in _heap_reach(cfg, word)]
        assert bits == heap_reach_matrix(cfg, word)


class TestStraightDiagram:
    def test_set_check_against_involution_check_exhaustively(self):
        # Every subset of 1..n: a pairwise non-adjacent set gives the diagram
        # the old construction built and accepted.  Every other set is
        # rejected; the old involution check let some through (those holding
        # 1, 2 and n), whose built diagram is that of a different set.
        let_through = []
        for n in range(3, 9):
            cfg = GroupConfig(n)
            for k in range(n + 1):
                for gens in combinations(range(1, n + 1), k):
                    built = straight_diagram_checked(n, gens)
                    if not any(cfg.adjacent(a, b) for a, b in combinations(gens, 2)):
                        assert built is not None
                        assert straight_diagram(n, gens) == built, (n, gens)
                        continue
                    with pytest.raises(ValueError, match="pairwise non-adjacent"):
                        straight_diagram(n, gens)
                    if built is not None:
                        assert descent_arcs(built, TOP) != set(gens)
                        let_through.append(gens)
        assert len(let_through) == 12
        assert all({1, 2, max(g)} <= set(g) for g in let_through)

    def test_range_checked_before_adjacency(self):
        with pytest.raises(ValueError, match="out of range"):
            straight_diagram(4, (1, 2, 5))


class TestIsStraight:
    def test_matches_construction_on_elements_and_straight_diagrams(self):
        for n in range(3, 7):
            cfg = GroupConfig(n)
            pool = [r.diagram for r in enumerate_elements(cfg, 6)]
            pool += [straight_diagram(n, t) for t in commuting_sets(cfg)]
            for d in pool:
                assert is_straight(d) == is_straight_by_construction(d), d

    def test_matches_construction_on_arbitrary_windows(self):
        # near-straight windows with one or two entries replaced at random,
        # most of them not involutions
        rng = random.Random(5)
        entries = [(side, p) for side in (TOP, BOT) for p in range(-1, 9)]
        for _ in range(4000):
            n = rng.randint(3, 7)
            cfg = GroupConfig(n)
            d = straight_diagram(n, rng.choice(commuting_sets(cfg)))
            rows = [list(map(node_ref, d.top)), list(map(node_ref, d.bottom))]
            for _ in range(rng.randint(1, 2)):
                rows[rng.randint(0, 1)][rng.randrange(n)] = rng.choice(entries)
            d = window(n, rows[0], rows[1], rng.choice((0, 0, 1)))
            assert is_straight(d) == is_straight_by_construction(d), d


class TestMultiplyReadsWindows:
    def test_equals_partner_trace(self):
        for n in (3, 4, 5, 6):
            pool = [r.diagram for r in enumerate_elements(GroupConfig(n), 4)]
            for a in pool:
                for b in pool:
                    assert multiply(a, b) == multiply_by_partner(a, b), (a, b)

    def test_winding_products_equal_partner_trace(self):
        for n, max_len in ((4, 10), (6, 10), (8, 8)):
            pool = [r.diagram for r in enumerate_elements(GroupConfig(n), max_len)]
            looped = [d for d in pool if d.loops]
            assert looped, n
            for a in looped[:20]:
                for b in pool[::4]:
                    assert multiply(a, b) == multiply_by_partner(a, b), (a, b)
                    assert multiply(b, a) == multiply_by_partner(b, a), (b, a)

    @pytest.mark.parametrize("n,max_len", [(4, 12), (6, 10), (8, 10)])
    def test_equals_stacked_concatenation(self, n, max_len):
        # seeded record pairs at the full horizon, winding loops included:
        # the product of two records' diagrams is the diagram of their
        # concatenated words, with the same contractible loops
        cfg = GroupConfig(n)
        recs = list(enumerate_elements(cfg, max_len))
        rng = random.Random(n)
        for _ in range(1000):
            ra, rb = rng.choice(recs), rng.choice(recs)
            assert multiply(ra.diagram, rb.diagram) == stack(cfg, ra.word + rb.word), (
                ra.word,
                rb.word,
            )


# One hand-built pair of trusted but broken diagrams per self-check of
# `multiply`; windows list each partner as (side, pos).
T, B = TOP, BOT
ARCS_T = [(T, 2), (T, 1), (T, 4), (T, 3)]  # arcs (1, 2) and (3, 4) on a top row
ARCS_B = [(B, 2), (B, 1), (B, 4), (B, 3)]  # the same arcs on a bottom row
VERTICALS = [(B, 1), (B, 2), (B, 3)]  # a top row of verticals at n = 3
BROKEN_PAIRS = {
    # a's top node 1 enters the middle at 1; b joins middle 1 to 2 and a
    # joins 2 back to 1, so the strand never leaves
    "runaway connectivity trace": (
        window(3, VERTICALS, [(T, 1), (B, 1), (T, 3)]),
        window(3, [(T, 2), (B, 2), (B, 3)], [(T, 1), (T, 2), (T, 3)]),
    ),
    # no walk enters the middle, yet a's bottom node 1 leads to its top row
    "middle cycle escaped through the top diagram": (
        window(4, ARCS_T, [(T, 1), (T, 2), (T, 3), (T, 4)]),
        window(4, [(B, 1), (B, 2), (B, 3), (B, 4)], ARCS_B),
    ),
    # the middle cycle from 1 reaches 2 through a, and b's top node 2 leads
    # to its bottom row
    "middle cycle escaped through the bottom diagram": (
        window(4, ARCS_T, ARCS_B),
        window(4, [(B, 1), (B, 2), (B, 3), (B, 4)], ARCS_B),
    ),
    # middle 1 -> 2 -> 3 -> 2 -> 3 ...: the cycle never comes back to 1
    "runaway middle cycle": (
        window(4, ARCS_T, [(B, 2), (B, 3), (B, 2), (B, 4)]),
        window(4, [(T, 1), (T, 3), (T, 2), (T, 4)], ARCS_B),
    ),
    # a joins middle 1 to 7 = 1 + 2n, which b joins to itself
    "middle cycle winds more than once": (
        window(3, [(T, 1), (T, 2), (T, 3)], [(B, 7), (B, 2), (B, 3)]),
        window(3, [(T, 1), (T, 2), (T, 3)], VERTICALS),
    ),
    # top 1 runs straight through to bottom 1, while a joins middle 2 to
    # 5 = 2 + n, which b joins to itself
    "winding middle cycle alongside a through strand": (
        window(3, [(B, 1), (T, 2), (T, 3)], [(T, 1), (B, 5), (B, 3)]),
        window(3, [(B, 1), (T, 2), (T, 3)], [(T, 1), (B, 2), (B, 3)]),
    ),
}


class TestMultiplySelfChecks:
    @pytest.mark.parametrize("message", list(BROKEN_PAIRS))
    def test_broken_pair_raises(self, message):
        a, b = BROKEN_PAIRS[message]
        with pytest.raises(InvariantError) as caught:
            multiply(a, b)
        assert str(caught.value) == message


class TestPublicEntryPointsValidate:
    @pytest.mark.parametrize(
        "call",
        [
            lambda cfg: cfg.adjacent(0, 1),
            lambda cfg: greedy_front(cfg, (1, 2), 5),
            lambda cfg: greedy_front(cfg, (1, 9), 3),
            lambda cfg: greedy_back(cfg, (2, 0), 1),
            lambda cfg: left_descents(cfg, (1, 7)),
            lambda cfg: right_descents(cfg, (-1,)),
            lambda cfg: commutation_class(cfg, (1, 3, 5)),
            lambda cfg: heap_is_fc(cfg, (2, 0, 2)),
            lambda cfg: stack(cfg, (1, 5)),
            lambda cfg: rewrite_mul(cfg, (1,), 6),
            lambda cfg: rewrite_eval(cfg, (1, 2, 9)),
            lambda cfg: rewrite_eval(cfg, (1,), start=(0,)),
        ],
    )
    def test_bad_generator_index_raises(self, call):
        with pytest.raises(ValueError, match="out of range"):
            call(GroupConfig(4))


class TestLongWords:
    def test_stack_of_a_long_reduced_word(self):
        cfg = GroupConfig(4)
        word = (1, 2, 3, 4) * 750
        d = identity(4)
        for s in word:
            d = times_generator(d, s)
            assert d is not None  # no contractible loop
        assert stack(cfg, word) == ProductResult(d, 0)
        assert length(d) == len(word)
        assert stack(cfg, word + (4,)).contractible == 1
