import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_fc_word, shuffled
from oracles import (
    braid_witness_by_class,
    braid_witness_left,
    class_has_braid,
    commutes,
    commuting_sets,
    is_fc_reduced,
    is_reduced_word,
    perm_by_fold,
    perm_inverse,
    perm_length,
)

from afftl.config import GroupConfig
from afftl.explore import enumerate_elements
from afftl.words import (
    AffinePermutation,
    _braid_split,
    braid_witness,
    commutation_class,
    greedy_back,
    greedy_front,
    heap_is_fc,
    left_decomposition,
    left_descents,
    perm_of,
    reduced_perm,
    right_descents,
)


def perm_length_bruteforce(p: AffinePermutation) -> int:
    """Independent inversion count: pairs (i, j), 1 <= i <= n, j > i over
    all integers, with sigma(i) > sigma(j)."""
    n = p.n
    total = 0
    for i in range(1, n + 1):
        si = p.image(i)
        for r in range(1, n + 1):
            sr = p.image(r)
            # j = r + k*n with j > i and sigma(j) = sr + k*n < si
            k_min = (i - r) // n + 1
            k_max = -((sr - si) // n) - 1
            if k_max >= k_min:
                total += k_max - k_min + 1
    return total


class TestAdjacency:
    def test_examples(self):
        cfg = GroupConfig(5)
        assert cfg.adjacent(1, 2)
        assert not cfg.adjacent(1, 3)
        assert cfg.adjacent(1, 5)

    def test_commute_window_n5(self):
        # generators commute exactly when 1 < |i - j| < 4
        cfg = GroupConfig(5)
        for i, j in itertools.combinations(range(1, 6), 2):
            assert cfg.adjacent(i, j) == (not 1 < abs(i - j) < 4)

    def test_n3_all_adjacent(self):
        cfg = GroupConfig(3)
        for i, j in itertools.combinations(range(1, 4), 2):
            assert cfg.adjacent(i, j)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            GroupConfig(4).adjacent(0, 1)

    def test_n_too_small(self):
        with pytest.raises(ValueError):
            GroupConfig(2)


class TestGreedyFront:
    def test_examples(self):
        cfg = GroupConfig(5)
        assert greedy_front(cfg, (1, 3, 2, 4), 3) == (3, 1, 2, 4)
        # 2 is blocked by the non-commuting 3 before it
        assert greedy_front(cfg, (1, 3, 2, 4), 2) is None
        assert greedy_front(GroupConfig(4), (2,), 2) == (2,)

    def test_front_word_same_element(self, cfg, rng):
        for _ in range(25):
            w = random_fc_word(cfg, rng, 9)
            for s in cfg.generators():
                moved = greedy_front(cfg, w, s)
                if moved is not None:
                    assert moved[0] == s
                    assert perm_of(cfg, moved) == perm_of(cfg, w)

    def test_matches_descent_oracle(self, cfg, rng):
        # s is extractable by commutations iff the permutation length drops
        for _ in range(40):
            w = random_fc_word(cfg, rng, 9)
            p = perm_of(cfg, w)
            for s in cfg.generators():
                sp = AffinePermutation.identity(cfg.n).times_generator(s).compose(p)
                drops = perm_length(sp) < perm_length(p)
                assert (greedy_front(cfg, w, s) is not None) == drops


# Horizons of the exhaustive witness and FC sweeps: (n, max length).
WITNESS_HORIZONS = [(3, 10), (4, 10), (5, 9), (6, 8), (7, 8)]


class TestFcChecks:
    def test_braid_class_examples(self):
        cfg = GroupConfig(4)
        assert class_has_braid(cfg, (1, 2, 1))
        assert class_has_braid(cfg, (2, 3, 1, 2, 1))
        assert not class_has_braid(cfg, (1, 3, 2, 4))

    def test_heap_agrees_with_class_search(self, cfg, rng):
        for _ in range(120):
            w = tuple(rng.choice(range(1, cfg.n + 1)) for _ in range(rng.randrange(0, 9)))
            if perm_length(perm_of(cfg, w)) != len(w):
                continue  # heap criterion assumes a reduced word
            assert heap_is_fc(cfg, w) == (not class_has_braid(cfg, w))

    @settings(max_examples=300, deadline=None, database=None)
    @given(st.data())
    def test_heap_agrees_with_class_search_property(self, data):
        n = data.draw(st.integers(3, 10))
        cfg = GroupConfig(n)
        word = ()
        for x in data.draw(st.lists(st.integers(1, n), max_size=12)):
            if reduced_perm(cfg, word + (x,)) is not None:
                word += (x,)
        assert heap_is_fc(cfg, word) == (not class_has_braid(cfg, word)), word

    @pytest.mark.parametrize("n,max_len", WITNESS_HORIZONS)
    def test_heap_agrees_with_class_search_on_extensions(self, n, max_len):
        # every reduced one-letter extension of every enumerated element
        cfg = GroupConfig(n)
        broken = 0
        for rec in enumerate_elements(cfg, max_len):
            for t in cfg.generators():
                w = rec.word + (t,)
                if reduced_perm(cfg, w) is None:
                    continue
                fc = heap_is_fc(cfg, w)
                assert fc == (not class_has_braid(cfg, w)), w
                broken += not fc
        assert broken > 0

    def test_is_fc_reduced(self):
        cfg = GroupConfig(4)
        for decide in (heap_is_fc, is_fc_reduced, is_reduced_word):
            assert decide(cfg, (2, 1, 3, 2))
            assert not decide(cfg, (1, 1))       # not reduced
            assert not decide(cfg, (1, 2, 1))    # braid word
            assert decide(cfg, ())


def assert_same_witness(cfg, w, t, got, want):
    """The heap's witness against the class search's: both absent, or the
    same adjacent letter s, and w1 t s w2 and w1 t w2 give the same
    elements (the word's and the product's) for both."""
    assert (got is None) == (want is None), (w, t)
    if got is None:
        return
    assert got.s == want.s, (w, t)
    assert cfg.adjacent(t, got.s)
    assert all(commutes(cfg, t, x) for x in got.w2)
    assert perm_of(cfg, got.w1 + (t, got.s) + got.w2) == perm_of(cfg, w)
    assert perm_of(cfg, got.w1 + (t,) + got.w2) == perm_of(cfg, want.w1 + (t,) + want.w2)


class TestBraidWitness:
    def test_minimal_example(self):
        cfg = GroupConfig(4)
        wit = braid_witness(cfg, (1, 2), 1)
        assert (wit.w1, wit.s, wit.w2) == ((), 2, ())

    def test_searches_commutation_class(self):
        # the factorization only appears after commuting 3 to the front; the
        # heap puts everything not above the last 1 into w1, so the 4 goes
        # there too (only s is unique, w1 and w2 are one valid choice)
        cfg = GroupConfig(5)
        wit = braid_witness(cfg, (1, 3, 2, 4), 1)
        assert (wit.w1, wit.s, wit.w2) == ((3, 4), 2, ())
        self._witness_conditions(cfg, (1, 3, 2, 4), 1, wit)

    def test_precondition_violations(self):
        cfg = GroupConfig(5)
        with pytest.raises(ValueError, match="keeps the element fully commutative"):
            braid_witness(cfg, (2,), 1)
        with pytest.raises(ValueError, match="right descent: appending it shortens"):
            braid_witness(cfg, (2,), 2)
        with pytest.raises(ValueError, match="keeps the element fully commutative"):
            # appending s3 to s1 s3 s2 s4 stays fully commutative
            braid_witness(cfg, (1, 3, 2, 4), 3)
        with pytest.raises(ValueError, match="reduced word of a fully commutative"):
            braid_witness(cfg, (1, 2, 1), 3)

    def _witness_conditions(self, cfg, w, t, wit):
        assert wit.w1 + (t, wit.s) + wit.w2 in commutation_class(cfg, w)
        assert cfg.adjacent(t, wit.s)
        assert all(commutes(cfg, t, u) for u in wit.w2)

    def test_postconditions_and_uniqueness(self, cfg, rng):
        checked = 0
        for _ in range(60):
            w = random_fc_word(cfg, rng, 8)
            for t in cfg.generators():
                if greedy_back(cfg, w, t) is not None or is_fc_reduced(cfg, w + (t,)):
                    continue
                wit = braid_witness(cfg, w, t)
                self._witness_conditions(cfg, w, t, wit)
                # the adjacent letter is the same in every valid factorization
                seen = set()
                for u in commutation_class(cfg, w):
                    for p in range(len(u) - 1):
                        if u[p] == t and cfg.adjacent(t, u[p + 1]) and all(
                            commutes(cfg, t, x) for x in u[p + 2:]
                        ):
                            seen.add(u[p + 1])
                assert seen == {wit.s}
                checked += 1
        assert checked > 10

    def test_exhaustive_sweep(self):
        # every enumerated element, every letter whose append leaves FC
        from afftl.explore import enumerate_elements

        for n in (3, 4, 5):
            cfg = GroupConfig(n)
            checked = 0
            for rec in enumerate_elements(cfg, 10):
                w = rec.word
                for t in cfg.generators():
                    if greedy_back(cfg, w, t) is not None or is_fc_reduced(cfg, w + (t,)):
                        continue
                    wit = braid_witness(cfg, w, t)
                    self._witness_conditions(cfg, w, t, wit)
                    checked += 1
            assert checked > 20

    @pytest.mark.parametrize("n,max_len", WITNESS_HORIZONS)
    def test_heap_witness_matches_class_search(self, n, max_len):
        # every enumerated element and every letter that is not a right
        # descent, on the enumerated word and on a commutation-shuffled copy
        cfg = GroupConfig(n)
        rng = random.Random(n)
        for rec in enumerate_elements(cfg, max_len):
            for t in cfg.generators():
                if t in right_descents(cfg, rec.word):
                    continue
                want = braid_witness_by_class(cfg, rec.word, t)
                for w in (rec.word, shuffled(cfg, rec.word, rng)):
                    assert_same_witness(cfg, w, t, _braid_split(cfg, w, t), want)

    @settings(max_examples=300, deadline=None, database=None)
    @given(st.data())
    def test_heap_witness_property(self, data):
        n = data.draw(st.integers(3, 10))
        cfg = GroupConfig(n)
        word = ()
        for x in data.draw(st.lists(st.integers(1, n), max_size=12)):
            if is_reduced_word(cfg, word + (x,)):
                word += (x,)
        t = data.draw(st.integers(1, n))
        if t in right_descents(cfg, word):
            with pytest.raises(ValueError):
                braid_witness(cfg, word, t)
            return
        want = braid_witness_by_class(cfg, word, t)
        assert_same_witness(cfg, word, t, _braid_split(cfg, word, t), want)
        if want is None:
            with pytest.raises(ValueError):
                braid_witness(cfg, word, t)
        else:
            assert braid_witness(cfg, word, t) == _braid_split(cfg, word, t)

    def test_left_mirror(self):
        cfg = GroupConfig(4)
        wit = braid_witness_left(cfg, (2, 1), 1)
        # (2, 1) = w1 + (s, t) + w2 with t = 1 commuting with w1
        assert wit.w1 + (wit.s, 1) + wit.w2 in commutation_class(cfg, (2, 1))
        assert cfg.adjacent(1, wit.s)
        assert all(commutes(cfg, 1, u) for u in wit.w1)


class TestAffinePermutation:
    def test_long_word_does_not_recurse(self):
        # 3,000 letters, past the recursion limit; cached prefixes nest at
        # most PREFIX_REUSE deep
        cfg = GroupConfig(3)
        w = (1, 2, 3) * 1000
        assert perm_of(cfg, w) == perm_by_fold(cfg, w)
        assert perm_length(perm_of(cfg, w)) == 3000

    def test_examples(self):
        cfg = GroupConfig(4)
        assert perm_of(cfg, ()).window == (1, 2, 3, 4)
        assert perm_of(cfg, (1,)).window == (2, 1, 3, 4)
        p = perm_of(cfg, (4,))
        assert p.window == (0, 2, 3, 5)
        assert sum(p.window) == 10
        assert p.image(5) == p.image(1) + 4

    def test_length_formula_vs_bruteforce(self, cfg, rng):
        for _ in range(60):
            w = tuple(rng.choice(range(1, cfg.n + 1)) for _ in range(rng.randrange(0, 12)))
            p = perm_of(cfg, w)
            assert perm_length(p) == perm_length_bruteforce(p)
            assert perm_length(p) <= len(w)

    def test_respects_relations(self, cfg, rng):
        for _ in range(80):
            w = list(rng.choice(range(1, cfg.n + 1)) for _ in range(rng.randrange(2, 12)))
            i = rng.randrange(len(w) - 1)
            a, b = w[i], w[i + 1]
            p = perm_of(cfg, tuple(w))
            if not cfg.adjacent(a, b):
                w2 = w[:i] + [b, a] + w[i + 2:]
                assert perm_of(cfg, tuple(w2)) == p
            if i + 2 < len(w) and w[i + 2] == a and cfg.adjacent(a, b):
                w2 = w[:i] + [b, a, b] + w[i + 3:]
                assert perm_of(cfg, tuple(w2)) == p

    def test_inverse_and_compose(self, cfg, rng):
        for _ in range(20):
            w = random_fc_word(cfg, rng, 8)
            p = perm_of(cfg, w)
            assert p.compose(perm_inverse(p)).is_identity()
            assert perm_inverse(p) == perm_of(cfg, tuple(reversed(w)))

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_internally_built_windows_are_valid(self, n):
        # the constructor checks nothing, so the operations must keep windows valid
        cfg = GroupConfig(n)
        prev = AffinePermutation.identity(n)
        for rec in enumerate_elements(cfg, 6):
            p = perm_of(cfg, rec.word)
            built = [p, perm_inverse(p), p.compose(p), p.compose(prev), prev.compose(perm_inverse(p))]
            built += [p.times_generator(s) for s in cfg.generators()]
            for q in built:
                w = q.window
                assert q.n == n and len(w) == n
                assert sum(w) == n * (n + 1) // 2
                assert len({v % n for v in w}) == n
            prev = p


class TestLeftDecomposition:
    def test_examples(self):
        cfg = GroupConfig(4)
        ld = left_decomposition(cfg, (2, 1, 3, 2))
        assert [set(g) for g in ld] == [{2}, {1, 3}, {2}]
        assert left_decomposition(cfg, (1, 3)) == (frozenset({1, 3}),)
        assert left_decomposition(cfg, ()) == ()

    def test_blocks_commute_and_word_rebuilds(self, cfg, rng):
        for _ in range(30):
            w = random_fc_word(cfg, rng, 10)
            groups = left_decomposition(cfg, w)
            for g in groups:
                for a in g:
                    for b in g:
                        assert a == b or not cfg.adjacent(a, b)
            rebuilt = tuple(s for g in groups for s in sorted(g))
            assert perm_of(cfg, rebuilt) == perm_of(cfg, w)
            assert len(rebuilt) == len(w)
            if groups:
                assert groups[0] == left_descents(cfg, w)

    def test_repeated_generator_needs_two_noncommuting(self, cfg, rng):
        # s in consecutive-but-one blocks forces both of its neighbours in
        # the block between them
        for _ in range(30):
            w = random_fc_word(cfg, rng, 10)
            groups = left_decomposition(cfg, w)
            for g1, g2, g3 in zip(groups, groups[1:], groups[2:]):
                for s in g1 & g3:
                    blockers = {u for u in g2 if cfg.adjacent(s, u)}
                    assert len(blockers) == 2

    def test_recurrence_biconditional(self, cfg):
        # s . (commuting block) . s is reduced FC exactly when the block
        # holds both generators not commuting with s
        for g in commuting_sets(cfg):
            for s in cfg.generators():
                if s in g:
                    continue
                word = (s,) + tuple(sorted(g)) + (s,)
                both = all(t in g for t in cfg.neighbours_of(s))
                assert is_fc_reduced(cfg, word) == both


class TestDescents:
    def test_left_right(self):
        cfg = GroupConfig(5)
        assert left_descents(cfg, (1, 3, 2, 4)) == {1, 3}
        assert right_descents(cfg, (1, 3, 2, 4)) == {2, 4}
        assert left_descents(cfg, ()) == frozenset()
