import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_fc_word, shuffled
from oracles import (
    alternating_word,
    cancellable_by_stacking,
    commuting_sets,
    core_neighbours_exhaustive,
    is_fc_reduced,
    perm_length,
    right_cell_involution_by_reduction,
)

from afftl.cells import (
    M_NONSQUARE,
    TwoSidedLabel,
    a_bruteforce,
    a_value,
    cancellable,
    census,
    classify_core,
    core_neighbours,
    involution_decompose,
    labelled_elements,
    labels,
    reduce_to_core,
    right_cell_involution,
)
from afftl.config import GroupConfig
from afftl.diagrams import edge_list, multiply, generator
from afftl.explore import enumerate_elements
from afftl.straightening import is_straight, stack
from afftl.words import left_descents, perm_of, right_descents

INVOLUTION_HORIZONS = [(3, 10), (4, 10), (5, 9), (6, 9), (7, 8), (8, 8)]


@st.composite
def fc_words(draw):
    """(n, word): a reduced FC word at n in 3..12 of length <= 40, each
    letter drawn among the generators that keep it reduced FC."""
    n = draw(st.integers(3, 12))
    cfg = GroupConfig(n)
    size = draw(st.integers(0, 40))
    word = ()
    for pick in draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size)):
        options = [w for s in cfg.generators() if is_fc_reduced(cfg, w := word + (s,))]
        if not options:
            break
        word = options[pick % len(options)]
    return n, word


class TestAValue:
    def test_commuting_blocks(self):
        for n in range(3, 9):
            cfg = GroupConfig(n)
            for t in commuting_sets(cfg):
                assert a_value(cfg, tuple(sorted(t))) == len(t)
                if len(t) <= 8:
                    assert a_bruteforce(cfg, tuple(sorted(t))) == len(t)

    def test_identity(self):
        assert a_value(GroupConfig(4), ()) == 0
        assert a_bruteforce(GroupConfig(4), ()) == 0

    def test_example(self):
        cfg = GroupConfig(5)
        assert a_value(cfg, (1, 3, 2, 4)) == 2
        assert a_bruteforce(cfg, (1, 3, 2, 4)) == 2
        # contiguous factors, not subsequences: {1, 3} is no factor here
        assert a_bruteforce(cfg, (1, 2, 3)) == 1

    def test_agreement(self, cfg, rng):
        for _ in range(40):
            w = random_fc_word(cfg, rng, 8)
            assert a_value(cfg, w) == a_bruteforce(cfg, w)

    def test_bound_enforced(self):
        cfg = GroupConfig(3)
        with pytest.raises(ValueError):
            a_bruteforce(cfg, (1, 2) * 4, bound=6)

    def test_top_equals_bottom_count(self, cfg, rng):
        from afftl.diagrams import edge_list

        for _ in range(25):
            d = stack(cfg, random_fc_word(cfg, rng, 9)).diagram
            top_arcs, bottom_arcs, _ = edge_list(d)
            assert len(top_arcs) == len(bottom_arcs)


class TestCancellable:
    def test_paper_pair(self):
        cfg = GroupConfig(5)
        w = (1, 3, 2, 4)
        assert cancellable(cfg, w, 3, "left") == 4
        # check the absorbed product directly: E_t E_w = E_(s w)
        r = multiply(generator(5, 4), stack(cfg, w).diagram)
        assert r.contractible == 0 and r.diagram == stack(cfg, (1, 2, 4)).diagram
        assert cancellable(cfg, w, 2, "right") == 1

    def test_not_cancellable(self):
        assert cancellable(GroupConfig(5), (1,), 1, "left") is None

    def test_non_descent_rejected(self):
        with pytest.raises(ValueError):
            cancellable(GroupConfig(5), (1, 2), 2, "left")

    @pytest.mark.parametrize(
        "word,s,side", [((1, 2, 9), 1, "left"), ((9, 2, 1), 1, "right"), ((1,), 1, "up")]
    )
    def test_bad_input_rejected(self, word, s, side):
        # the 9 lies past the descent: the whole word is checked up front
        with pytest.raises(ValueError):
            cancellable(GroupConfig(5), word, s, side)

    @pytest.mark.parametrize("n,max_len", [(3, 12), (4, 12), (5, 10), (6, 9), (7, 8)])
    def test_word_criterion_matches_stacking(self, n, max_len):
        # every descent of every element, on the enumerated word and on a
        # commutation-shuffled copy of it
        from afftl.explore import enumerate_elements

        cfg = GroupConfig(n)
        rng = random.Random(n)
        descents = {"left": left_descents, "right": right_descents}
        checked = absorbed = 0
        for rec in enumerate_elements(cfg, max_len):
            for w in (rec.word, shuffled(cfg, rec.word, rng)):
                for side, find in descents.items():
                    for s in find(cfg, w):
                        t = cancellable(cfg, w, s, side)
                        assert t == cancellable_by_stacking(cfg, w, s, side), (w, s, side)
                        checked += 1
                        absorbed += t is not None
        assert 0 < absorbed < checked


class TestReduceToCore:
    def test_examples(self):
        cfg = GroupConfig(4)
        assert reduce_to_core(cfg, (1, 2)) == (2,)
        for t in commuting_sets(cfg):
            assert reduce_to_core(cfg, tuple(sorted(t))) == tuple(sorted(t))

    def test_max_block_conjugate(self):
        cfg = GroupConfig(4)
        core = reduce_to_core(cfg, (2, 1, 3, 2))
        assert a_value(cfg, core) == 2
        assert classify_core(cfg, core) == TwoSidedLabel.alternating("odd", 1)

    def test_label_independent_of_order(self, cfg, rng):
        for _ in range(30):
            w = random_fc_word(cfg, rng, 9)
            det = classify_core(cfg, reduce_to_core(cfg, w))
            rnd = classify_core(cfg, reduce_to_core(cfg, w, rng=rng))
            assert det == rnd


class TestCoreMembership:
    def test_examples(self):
        cfg5 = GroupConfig(5)
        assert reduce_to_core(cfg5, (1, 3)) == (1, 3)
        assert classify_core(cfg5, (1, 3)) == TwoSidedLabel.small(2)
        cfg4 = GroupConfig(4)
        assert reduce_to_core(cfg4, (1, 3)) == (1, 3)
        assert classify_core(cfg4, (1, 3)) == TwoSidedLabel.alternating("odd", 1)
        assert reduce_to_core(cfg4, (1, 3, 2, 4)) == (1, 3, 2, 4)
        assert classify_core(cfg4, (1, 3, 2, 4)) == TwoSidedLabel.alternating("odd", 2)
        assert reduce_to_core(cfg4, (1, 2)) != (1, 2)

    def test_scan_matches_known_inventory(self):
        # core elements at a horizon are exactly the commuting blocks plus,
        # for even n, the alternating products
        from afftl.explore import enumerate_elements

        for n in (3, 4, 5):
            cfg = GroupConfig(n)
            expected = {perm_of(cfg, tuple(sorted(t))).window for t in commuting_sets(cfg)}
            if n % 2 == 0:
                for start in ("odd", "even"):
                    for f in range(2, (2 * 8) // n + 1):
                        expected.add(perm_of(cfg, alternating_word(cfg, start, f)).window)
            seen = {
                perm_of(cfg, rec.word).window
                for rec in enumerate_elements(cfg, 8)
                if reduce_to_core(cfg, rec.word) == rec.word
            }
            assert seen == expected

    def test_classify_rejects_non_core(self):
        with pytest.raises(ValueError):
            classify_core(GroupConfig(4), (1, 2))


class TestNeighbours:
    def test_examples(self):
        cfg5 = GroupConfig(5)
        out = core_neighbours(cfg5, (1, 3))
        assert (3, (1, 4)) in out
        assert all(set(q) != {1, 3} or False for _, q in out)  # never itself
        cfg4 = GroupConfig(4)
        assert core_neighbours(cfg4, (1, 3)) == frozenset()
        assert core_neighbours(cfg4, (1, 3, 2, 4)) == frozenset()
        assert core_neighbours(cfg4, ()) == frozenset()
        with pytest.raises(ValueError, match="not a core element"):
            core_neighbours(cfg4, (1, 2))

    def test_word_checked_once(self, monkeypatch):
        from afftl import cells, words

        calls = []
        real = words.heap_is_fc

        def counted(cfg, word):
            calls.append(word)
            return real(cfg, word)

        for module in (words, cells):
            monkeypatch.setattr(module, "heap_is_fc", counted)
        for n, q in [(4, ()), (4, (1, 3)), (5, (1, 3)), (6, (1, 3, 5, 2, 4, 6))]:
            calls.clear()
            core_neighbours(GroupConfig(n), q)
            assert calls == [q]

    # a straight core stacks at most five commuting sets per generator, the
    # ones agreeing with it off the generator's window; an alternating one
    # stacks none
    @pytest.mark.parametrize(
        "n,q", [(3, (2,)), (4, (1, 3)), (5, (1, 3)), (7, (1, 3, 5)), (8, (2, 5)), (4, (1, 3, 2, 4))]
    )
    def test_each_generator_stacks_at_most_five_straight_candidates(self, n, q, monkeypatch):
        from afftl import cells

        real_stack, real_act = cells.stack, cells.generator_times
        stacked, acted = [], []

        def counted_stack(cfg, word):
            stacked.append(tuple(word))
            return real_stack(cfg, word)

        def counted_act(s, d):
            acted.append((s, stacked[-1], d))
            return real_act(s, d)

        monkeypatch.setattr(cells, "stack", counted_stack)
        monkeypatch.setattr(cells, "generator_times", counted_act)
        core_neighbours(GroupConfig(n), q)
        # the core's own stack, then one per candidate, each acted on once
        assert stacked[0] == q and len(stacked) == 1 + len(acted)
        assert [cw for _, cw, _ in acted] == stacked[1:]
        per_generator = Counter(s for s, _, _ in acted)
        assert all(count <= 5 for count in per_generator.values())
        assert all(is_straight(d) is not None for _, _, d in acted)
        if len(q) > n // 2:
            assert acted == []
        else:
            assert set(per_generator) == set(GroupConfig(n).generators())

    def test_matches_exhaustive_search(self):
        # every straight core at n = 3..10, and the alternating cores of
        # two to four factors at even n, against the search over all cores
        for n in range(3, 11):
            cfg = GroupConfig(n)
            cores = [tuple(sorted(t)) for t in commuting_sets(cfg)]
            if n % 2 == 0:
                cores += [alternating_word(cfg, st, f) for st in ("odd", "even") for f in (2, 3, 4)]
            for q in cores:
                assert core_neighbours(cfg, q) == core_neighbours_exhaustive(cfg, q), (n, q)

    def test_symmetry_and_classes(self):
        # neighbour moves are symmetric and connect exactly the same-size
        # commuting blocks below the maximum
        for n in (4, 5):
            cfg = GroupConfig(n)
            cores = [tuple(sorted(t)) for t in commuting_sets(cfg)]
            neigh = {q: core_neighbours(cfg, q) for q in cores}
            for q, out in neigh.items():
                for s, q2 in out:
                    assert any(w == q for _, w in neigh[q2])
            # transitive closure
            parent = {q: q for q in cores}

            def find(x):
                while parent[x] != x:
                    x = parent[x]
                return x

            for q, out in neigh.items():
                for _, q2 in out:
                    parent[find(q)] = find(q2)
            classes = {}
            for q in cores:
                classes.setdefault(find(q), set()).add(q)
            for members in classes.values():
                sizes = {len(q) for q in members}
                assert len(sizes) == 1
                k = sizes.pop()
                if 2 * k < n:
                    expected = {tuple(sorted(t)) for t in commuting_sets(cfg) if len(t) == k}
                    assert members == expected
                else:
                    assert len(members) == 1


class TestLabels:
    def test_block_example(self):
        cfg = GroupConfig(5)
        lab = labels(cfg, (1, 3))
        assert lab.two_sided == TwoSidedLabel.small(2)
        assert lab.left_pattern == {(1, 2), (3, 4)} == lab.right_pattern
        assert lab.loops == 0

    def test_short_word_example(self):
        lab = labels(GroupConfig(4), (1, 2))
        assert lab.two_sided == TwoSidedLabel.small(1)
        assert lab.right_pattern == {(1, 2)}
        assert lab.left_pattern == {(2, 3)}

    def test_winding_example(self):
        lab = labels(GroupConfig(4), (1, 3, 2, 4))
        assert lab.loops == 1
        assert lab.two_sided == TwoSidedLabel.alternating("odd", 2)

    def test_a_from_pattern(self, cfg, rng):
        for _ in range(20):
            w = random_fc_word(cfg, rng, 8)
            lab = labels(cfg, w)
            assert lab.a == a_value(cfg, w) == len(lab.left_pattern)


class TestInvolutions:
    def test_examples(self):
        cfg = GroupConfig(4)
        dec = involution_decompose(cfg, (2, 1, 3, 2))
        assert dec.x == (2,) and dec.core == {1, 3}
        for t in commuting_sets(cfg):
            dec = involution_decompose(cfg, tuple(sorted(t)))
            assert dec.x == () and dec.core == t

    def test_rejects_non_involution(self):
        with pytest.raises(ValueError):
            involution_decompose(GroupConfig(4), (1, 2))

    def test_long_words_do_not_recurse(self):
        # 3,002 letters, x q x^-1 with x of 1,500: stack and perm_of fold
        # onto cached prefixes of at most PREFIX_REUSE letters
        cfg = GroupConfig(4)
        w = alternating_word(cfg, "odd", 1501)
        dec = involution_decompose(cfg, w)
        assert len(dec.x) == 1500 and dec.core == {1, 3}
        assert perm_length(perm_of(cfg, w)) == len(w) == 3002

    def test_a_equals_core_size_and_choice_free(self, cfg, rng):
        from afftl.explore import enumerate_elements

        seen = 0
        for rec in enumerate_elements(cfg, 8):
            if not perm_of(cfg, rec.word).is_involution():
                continue
            dec = involution_decompose(cfg, rec.word)
            assert a_value(cfg, rec.word) == len(dec.core)
            # the pair (x, block) is unique as group elements, whatever
            # peel order is used
            rnd = involution_decompose(cfg, rec.word, rng=rng)
            assert perm_of(cfg, rnd.x) == perm_of(cfg, dec.x)
            assert rnd.core == dec.core
            # no right descent of x . block is cancellable
            xw = dec.x + tuple(sorted(dec.core))
            from afftl.words import right_descents

            for s in right_descents(cfg, xw):
                assert cancellable(cfg, xw, s, "right") is None
            seen += 1
        assert seen > 3

    def test_odd_n_involutions_have_partial_support(self):
        from afftl.explore import enumerate_elements

        for n in (3, 5):
            cfg = GroupConfig(n)
            full = frozenset(cfg.generators())
            for rec in enumerate_elements(cfg, 9):
                if perm_of(cfg, rec.word).is_involution():
                    assert frozenset(rec.word) != full


class TestRightCellInvolution:
    def test_involution_maps_to_itself(self):
        cfg = GroupConfig(4)
        w = (2, 1, 3, 2)
        out = right_cell_involution(cfg, w)
        assert perm_of(cfg, out) == perm_of(cfg, w)

    def test_short_word(self):
        cfg = GroupConfig(4)
        out = right_cell_involution(cfg, (1, 2))
        assert out == (1,)
        assert labels(cfg, out).right_pattern == {(1, 2)}
        assert labels(cfg, out).two_sided == TwoSidedLabel.small(1)

    def test_nonsquare_marker(self):
        assert right_cell_involution(GroupConfig(4), (1, 3, 2, 4)) == M_NONSQUARE

    def test_same_right_cell(self, cfg, rng):
        for _ in range(25):
            w = random_fc_word(cfg, rng, 8)
            out = right_cell_involution(cfg, w)
            if out == M_NONSQUARE:
                continue
            assert perm_of(cfg, out).is_involution()
            lw, lo = labels(cfg, w), labels(cfg, out)
            assert lw.two_sided == lo.two_sided
            assert lw.right_pattern == lo.right_pattern

    @pytest.mark.parametrize("n,max_len", INVOLUTION_HORIZONS)
    def test_matches_the_reduction_oracle(self, n, max_len):
        cfg = GroupConfig(n)
        for rec in enumerate_elements(cfg, max_len):
            got = right_cell_involution(cfg, rec.word)
            assert got == right_cell_involution_by_reduction(cfg, rec.word), rec.word

    @settings(max_examples=150, deadline=None, database=None)
    @given(fc_words())
    def test_matches_the_reduction_oracle_on_long_words(self, case):
        n, word = case
        cfg = GroupConfig(n)
        assert right_cell_involution(cfg, word) == right_cell_involution_by_reduction(cfg, word)

    @pytest.mark.parametrize("n,max_len", INVOLUTION_HORIZONS)
    def test_nonsquare_exactly_without_verticals_and_with_odd_loops(self, n, max_len):
        cfg = GroupConfig(n)
        marked = 0
        for rec in enumerate_elements(cfg, max_len):
            nonsquare = not edge_list(rec.diagram)[2] and rec.diagram.loops % 2 == 1
            assert (right_cell_involution(cfg, rec.word) == M_NONSQUARE) == nonsquare, rec.word
            marked += nonsquare
        assert (marked > 0) == (n % 2 == 0)


class TestCellConnectivityWitnesses:
    def test_equal_left_labels_connected_by_small_multiplications(self, rng):
        # bounded witness search: elements sharing a left label really are
        # joined in both directions by multiplying basis monomials of
        # length <= 4 on the left
        from afftl.explore import enumerate_elements

        cfg = GroupConfig(4)
        recs = list(labelled_elements(cfg, 6))
        monomials = [r.diagram for r in enumerate_elements(cfg, 4)]
        by_left = {}
        for rec in recs:
            key = (rec.labels.two_sided, rec.labels.left_pattern)
            by_left.setdefault(key, []).append(rec)

        def reaches(src, dst):
            return any(
                multiply(m, src).diagram == dst for m in monomials
            )

        groups = [g for g in by_left.values() if len(g) >= 2]
        rng.shuffle(groups)
        checked = 0
        for group in groups[:8]:
            a, b = group[0].diagram, group[1].diagram
            assert reaches(a, b) and reaches(b, a)
            checked += 1
        assert checked


class TestCensus:
    def test_small_cells_n4(self):
        rows = {str(r.two_sided): r for r in census(GroupConfig(4), 8)}
        assert rows["Small(1)"].left_cells == 4
        assert rows["Small(1)"].right_cells == 4
        assert rows["Alt(odd,1)"].left_cells == 3
        assert rows["Alt(even,2)"].left_cells == 3

    def test_small_cells_n5(self):
        rows = {str(r.two_sided): r for r in census(GroupConfig(5), 8)}
        assert rows["Small(1)"].left_cells == 5
        assert rows["Small(2)"].left_cells == 10

    def test_row_json(self):
        row = census(GroupConfig(4), 4)[0]
        obj = row.to_json()
        assert set(obj) == {"two_sided", "left_cells", "right_cells", "elements_seen"}


class TestTwoSidedLabel:
    # every label census prints: n = 4 reaches Alt(·,6) by L = 12, and odd
    # n has only the small labels below half the rank
    CENSUS_LABELS = {
        (4, 12): ["Small(0)", "Small(1)"]
        + [f"Alt({start},{f})" for f in range(1, 7) for start in ("even", "odd")],
        (5, 10): ["Small(0)", "Small(1)", "Small(2)"],
    }

    @pytest.mark.parametrize("n,max_len", sorted(CENSUS_LABELS))
    def test_census_labels_in_readme_format(self, n, max_len):
        names = []
        for row in census(GroupConfig(n), max_len):
            lab = row.two_sided
            names.append(str(lab))
            # README: {"kind": "small", "k": int} or
            # {"kind": "alternating", "start": "odd"|"even", "factors": int}
            if names[-1].startswith("Small("):
                expected = f'{{"kind": "small", "k": {names[-1][6:-1]}}}'
            else:
                start, factors = names[-1][4:-1].split(",")
                expected = f'{{"kind": "alternating", "start": "{start}", "factors": {factors}}}'
            assert json.dumps(lab.to_json()) == expected
        assert names == self.CENSUS_LABELS[n, max_len]
