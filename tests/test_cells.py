import random

import pytest

from conftest import random_fc_word, shuffled
from oracles import cancellable_by_stacking

from afftl.cells import (
    M_NONSQUARE,
    TwoSidedLabel,
    a_bruteforce,
    a_value,
    alternating_word,
    cancellable,
    census,
    classify_core,
    core_neighbours,
    involution_decompose,
    is_core,
    labels,
    reduce_to_core,
    right_cell_involution,
)
from afftl.config import GroupConfig
from afftl.diagrams import multiply, generator
from afftl.straightening import stack
from afftl.words import left_descents, perm_of, right_descents, support


class TestAValue:
    def test_commuting_blocks(self):
        for n in range(3, 9):
            cfg = GroupConfig(n)
            for t in cfg.commuting_sets():
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
        for rec in enumerate_elements(cfg, max_len, with_labels=False):
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
        assert reduce_to_core(cfg, (1, 2)).word == (2,)
        for t in cfg.commuting_sets():
            res = reduce_to_core(cfg, tuple(sorted(t)))
            assert res.word == tuple(sorted(t)) and res.trace == ()

    def test_max_block_conjugate(self):
        cfg = GroupConfig(4)
        res = reduce_to_core(cfg, (2, 1, 3, 2))
        assert a_value(cfg, res.word) == 2
        assert classify_core(cfg, res.word) == TwoSidedLabel.alternating("odd", 1)

    def test_label_independent_of_order(self, cfg, rng):
        for _ in range(30):
            w = random_fc_word(cfg, rng, 9)
            det = classify_core(cfg, reduce_to_core(cfg, w).word)
            rnd = classify_core(cfg, reduce_to_core(cfg, w, rng=rng).word)
            assert det == rnd


class TestCoreMembership:
    def test_examples(self):
        cfg5 = GroupConfig(5)
        assert is_core(cfg5, (1, 3))
        assert classify_core(cfg5, (1, 3)) == TwoSidedLabel.small(2)
        cfg4 = GroupConfig(4)
        assert is_core(cfg4, (1, 3))
        assert classify_core(cfg4, (1, 3)) == TwoSidedLabel.alternating("odd", 1)
        assert is_core(cfg4, (1, 3, 2, 4))
        assert classify_core(cfg4, (1, 3, 2, 4)) == TwoSidedLabel.alternating("odd", 2)
        assert not is_core(cfg4, (1, 2))

    def test_scan_matches_known_inventory(self):
        # core elements at a horizon are exactly the commuting blocks plus,
        # for even n, the alternating products
        from afftl.explore import enumerate_elements

        for n in (3, 4, 5):
            cfg = GroupConfig(n)
            expected = {perm_of(cfg, tuple(sorted(t))).window for t in cfg.commuting_sets()}
            if n % 2 == 0:
                for start in ("odd", "even"):
                    for f in range(2, (2 * 8) // n + 1):
                        expected.add(perm_of(cfg, alternating_word(cfg, start, f)).window)
            seen = {
                perm_of(cfg, rec.word).window
                for rec in enumerate_elements(cfg, 8, with_labels=False)
                if is_core(cfg, rec.word)
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

    def test_symmetry_and_classes(self):
        # neighbour moves are symmetric and connect exactly the same-size
        # commuting blocks below the maximum
        for n in (4, 5):
            cfg = GroupConfig(n)
            cores = [tuple(sorted(t)) for t in cfg.commuting_sets()]
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
                    expected = {tuple(sorted(t)) for t in cfg.commuting_sets() if len(t) == k}
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
        for t in cfg.commuting_sets():
            dec = involution_decompose(cfg, tuple(sorted(t)))
            assert dec.x == () and dec.core == t

    def test_rejects_non_involution(self):
        with pytest.raises(ValueError):
            involution_decompose(GroupConfig(4), (1, 2))

    def test_a_equals_core_size_and_choice_free(self, cfg, rng):
        from afftl.explore import enumerate_elements

        seen = 0
        for rec in enumerate_elements(cfg, 8, with_labels=False):
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
            for rec in enumerate_elements(cfg, 9, with_labels=False):
                if perm_of(cfg, rec.word).is_involution():
                    assert support(rec.word) != full


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


class TestCellConnectivityWitnesses:
    def test_equal_left_labels_connected_by_small_multiplications(self, rng):
        # bounded witness search: elements sharing a left label really are
        # joined in both directions by multiplying basis monomials of
        # length <= 4 on the left
        from afftl.explore import enumerate_elements

        cfg = GroupConfig(4)
        recs = list(enumerate_elements(cfg, 6, with_labels=True))
        monomials = [r.diagram for r in enumerate_elements(cfg, 4, with_labels=False)]
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
    def test_json_roundtrip(self):
        for lab in (TwoSidedLabel.small(2), TwoSidedLabel.alternating("even", 3)):
            assert TwoSidedLabel.from_json(lab.to_json()) == lab

    @pytest.mark.parametrize(
        "obj,field",
        [
            ({"kind": "bogus", "start": "odd", "factors": 1}, "kind"),
            ({"kind": "small", "k": 2.7}, "k"),
            ({"kind": "small", "k": "3"}, "k"),
            ({"kind": "small", "k": True}, "k"),
            ({"kind": "small", "k": -4}, "k"),
            ({"kind": "alternating", "start": "odd", "factors": 2.0}, "factors"),
            ({"kind": "alternating", "start": "odd", "factors": "2"}, "factors"),
        ],
    )
    def test_from_json_strict(self, obj, field):
        with pytest.raises(ValueError, match=field):
            TwoSidedLabel.from_json(obj)

    def test_small_rejects_negative_size(self):
        with pytest.raises(ValueError, match="k"):
            TwoSidedLabel.small(-4)

    def test_validation(self):
        with pytest.raises(ValueError):
            TwoSidedLabel.alternating("up", 1)
        with pytest.raises(ValueError):
            TwoSidedLabel.alternating("odd", 0)
