import itertools

import pytest

from conftest import random_fc_word
from oracles import mirror, window

from afftl.config import GroupConfig
from afftl.diagrams import (
    BOT,
    TOP,
    AffineDiagram,
    canonical_key,
    crossing_number,
    descent_arcs,
    edge_list,
    from_json_dict,
    generator,
    identity,
    is_admissible,
    is_mirror_symmetric,
    length,
    multiply,
    node,
    node_ref,
    partner,
    to_json_dict,
    top_involution,
    validate,
)
from afftl.explore import enumerate_elements
from afftl.straightening import stack


def rotation_diagram(n):
    """Top i joined to bottom i+1 for every class (no horizontal edges)."""
    top = [(BOT, i + 1) for i in range(1, n + 1)]
    bottom = [(TOP, i - 1) for i in range(1, n + 1)]
    return window(n, top, bottom)


class TestConstructors:
    def test_identity(self):
        d = identity(4)
        assert tuple(map(node_ref, d.top)) == tuple((BOT, i) for i in range(1, 5))
        assert d.loops == 0
        assert validate(d) == []
        assert length(d) == 0

    def test_generator_shape(self):
        g = generator(4, 1)
        assert node_ref(g.top[0]) == (TOP, 2) and node_ref(g.top[1]) == (TOP, 1)
        assert node_ref(g.top[2]) == (BOT, 3) and node_ref(g.top[3]) == (BOT, 4)
        assert length(g) == 1

    def test_generator_wraparound(self):
        g = generator(4, 4)
        assert partner(g, TOP, 4) == (TOP, 5)
        assert partner(g, TOP, 1) == (TOP, 0)
        assert length(g) == 1
        assert validate(g) == []

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            identity(2)
        with pytest.raises(ValueError):
            generator(4, 0)
        with pytest.raises(ValueError):
            generator(4, 5)

    def test_unit_laws(self, cfg, rng):
        one = identity(cfg.n)
        for _ in range(20):
            d = stack(cfg, random_fc_word(cfg, rng, 8)).diagram
            left = multiply(one, d)
            right = multiply(d, one)
            assert left.diagram == d == right.diagram
            assert left.contractible == right.contractible == 0


class TestValidate:
    def test_fixed_point(self):
        d = identity(4)
        bad = AffineDiagram(4, (node(TOP, 1),) + d.top[1:], d.bottom, 0)
        assert any("fixed point" in p or "involution" in p for p in validate(bad))

    def test_crossing_verticals(self):
        # top1-bottom2 and top2-bottom1 interleave
        top = ((BOT, 2), (BOT, 1), (BOT, 3), (BOT, 4))
        bottom = ((TOP, 2), (TOP, 1), (TOP, 3), (TOP, 4))
        bad = window(4, top, bottom)
        assert any("crossing" in p for p in validate(bad))

    def test_loops_require_no_verticals(self):
        d = identity(4)
        bad = AffineDiagram(4, d.top, d.bottom, 1)
        assert any("loops" in p for p in validate(bad))

    def test_self_translate_crossing(self):
        # an arc spanning more than one period crosses its own translates
        top = ((TOP, 7), (TOP, -4), (BOT, 3), (BOT, 4), (BOT, 5))
        bottom = ((BOT, 2), (BOT, 1), (TOP, 3), (TOP, 4), (TOP, 5))
        bad = window(5, top, bottom)
        problems = validate(bad)
        assert problems and all("crossing" in p for p in problems)


class TestCrossingNumbers:
    def test_generator_examples(self):
        g = generator(4, 2)
        assert crossing_number(g, 2) == 2
        assert crossing_number(g, 3) == 0
        assert [crossing_number(g, k) for k in range(1, 5)] == [0, 2, 0, 0]

    def test_loop_diagram(self):
        cfg = GroupConfig(4)
        d = stack(cfg, (1, 3, 2, 4)).diagram
        assert d.loops == 1
        # every line crosses exactly one arc plus the winding loop
        assert [crossing_number(d, k) for k in range(1, 5)] == [2, 2, 2, 2]
        assert all(crossing_number(d, k) >= 1 for k in range(1, 5))

    def test_letter_counts(self, cfg, rng):
        for _ in range(30):
            w = random_fc_word(cfg, rng, 10)
            d = stack(cfg, w).diagram
            for k in cfg.generators():
                assert crossing_number(d, k) == 2 * w.count(k)

    def test_incremental_during_stacking(self, cfg, rng):
        # stacking one generator raises exactly its own crossing line by 2
        for _ in range(15):
            w = random_fc_word(cfg, rng, 8)
            for cut in range(1, len(w) + 1):
                before = stack(cfg, w[: cut - 1]).diagram
                after = stack(cfg, w[:cut]).diagram
                s = w[cut - 1]
                for k in cfg.generators():
                    expect = crossing_number(before, k) + (2 if k == s else 0)
                    assert crossing_number(after, k) == expect


class TestLengthAdmissibility:
    def test_examples(self):
        assert length(identity(4)) == 0
        assert length(generator(4, 1)) == 1
        cfg = GroupConfig(4)
        assert length(stack(cfg, (2, 1, 3, 2)).diagram) == 4

    def test_admissible_examples(self):
        assert is_admissible(identity(4))
        assert is_admissible(generator(4, 2))
        assert not is_admissible(rotation_diagram(4))

    def test_length_rejects_inadmissible(self):
        with pytest.raises(ValueError):
            length(rotation_diagram(5))

    def test_stacked_parity(self, cfg, rng):
        for _ in range(20):
            d = stack(cfg, random_fc_word(cfg, rng, 9)).diagram
            assert is_admissible(d)
            assert all(crossing_number(d, k) % 2 == 0 for k in cfg.generators())


class TestMultiply:
    def test_square_relation(self):
        g = generator(4, 1)
        r = multiply(g, g)
        assert r.diagram == g and r.contractible == 1

    def test_braid_relation(self):
        g1, g2 = generator(4, 1), generator(4, 2)
        r12 = multiply(g1, g2)
        r121 = multiply(r12.diagram, g1)
        assert r12.contractible == r121.contractible == 0
        assert r121.diagram == g1

    def test_defining_relations_all_n(self):
        for n in range(3, 9):
            cfg = GroupConfig(n)
            for i, j in itertools.product(cfg.generators(), repeat=2):
                gi, gj = generator(n, i), generator(n, j)
                if i == j:
                    r = multiply(gi, gi)
                    assert r.contractible == 1 and r.diagram == gi
                elif cfg.adjacent(i, j):
                    r = multiply(multiply(gi, gj).diagram, gi)
                    assert r.contractible == 0 and r.diagram == gi
                else:
                    rij, rji = multiply(gi, gj), multiply(gj, gi)
                    assert rij == rji and rij.contractible == 0

    def test_winding_loop_product(self):
        # the two maximal commuting blocks close a cycle around the cylinder
        cfg = GroupConfig(4)
        a = stack(cfg, (1, 3)).diagram
        b = stack(cfg, (2, 4)).diagram
        r = multiply(a, b)
        assert r.contractible == 0
        expected = window(
            4,
            ((TOP, 2), (TOP, 1), (TOP, 4), (TOP, 3)),
            ((BOT, 0), (BOT, 3), (BOT, 2), (BOT, 5)),
            loops=1,
        )
        assert r.diagram == expected

    def test_mismatched_sizes(self):
        with pytest.raises(ValueError):
            multiply(identity(4), identity(5))

    def test_associativity(self, cfg, rng):
        pool = [stack(cfg, random_fc_word(cfg, rng, 6)).diagram for _ in range(12)]
        for _ in range(60):
            a, b, c = (rng.choice(pool) for _ in range(3))
            ab = multiply(a, b)
            ab_c = multiply(ab.diagram, c)
            bc = multiply(b, c)
            a_bc = multiply(a, bc.diagram)
            assert ab_c.diagram == a_bc.diagram
            assert ab.contractible + ab_c.contractible == bc.contractible + a_bc.contractible

    def test_products_stay_valid_and_admissible(self, cfg, rng):
        for _ in range(20):
            a = stack(cfg, random_fc_word(cfg, rng, 6)).diagram
            b = stack(cfg, random_fc_word(cfg, rng, 6)).diagram
            c = multiply(a, b).diagram
            assert validate(c) == []
            assert is_admissible(c)


class TestDescentArcs:
    def test_examples(self):
        cfg5 = GroupConfig(5)
        d = stack(cfg5, (1, 3, 2, 4)).diagram
        assert descent_arcs(d, TOP) == {1, 3}
        assert descent_arcs(identity(4), TOP) == frozenset()
        cfg4 = GroupConfig(4)
        assert descent_arcs(stack(cfg4, (2, 1, 3, 2)).diagram, BOT) == {2}

    def test_greedy_front_matches_minimal_arcs(self, cfg, rng):
        from afftl.words import greedy_front

        for _ in range(30):
            w = random_fc_word(cfg, rng, 9)
            d = stack(cfg, w).diagram
            tops = descent_arcs(d, TOP)
            for s in cfg.generators():
                assert (greedy_front(cfg, w, s) is not None) == (s in tops)


class TestKeysAndJson:
    def test_key_examples(self):
        assert canonical_key(identity(4)) == canonical_key(identity(4))
        assert canonical_key(generator(4, 1)) != canonical_key(generator(4, 2))

    def test_key_injective_small(self, cfg, rng):
        seen = {}
        for _ in range(60):
            d = stack(cfg, random_fc_word(cfg, rng, 8)).diagram
            key = canonical_key(d)
            assert seen.setdefault(key, d) == d

    def test_json_roundtrip(self, cfg, rng):
        for _ in range(15):
            d = stack(cfg, random_fc_word(cfg, rng, 8)).diagram
            assert from_json_dict(to_json_dict(d)) == d

    def test_json_rejects_invalid(self):
        obj = to_json_dict(rotation_diagram(4))
        obj["top"][0] = {"side": "T", "pos": 1}
        with pytest.raises(ValueError):
            from_json_dict(obj)

    def test_json_schema_fields(self):
        obj = to_json_dict(generator(4, 4))
        assert set(obj) == {"n", "top", "bottom", "loops"}
        assert obj["top"][3] == {"side": "T", "pos": 5}


class TestMirror:
    def test_mirror_reverses_words(self, cfg, rng):
        for _ in range(15):
            w = random_fc_word(cfg, rng, 8)
            assert mirror(stack(cfg, w).diagram) == stack(cfg, tuple(reversed(w))).diagram


class TestTopInvolution:
    @pytest.mark.parametrize("n,max_len", [(3, 10), (4, 10), (5, 8), (6, 8)])
    def test_mirrors_the_top_row_with_straight_verticals(self, n, max_len):
        involutions = 0
        for rec in enumerate_elements(GroupConfig(n), max_len):
            d = rec.diagram
            inv = top_involution(d)
            assert validate(inv) == [] and is_mirror_symmetric(inv), rec.word
            top_arcs, _, verticals = edge_list(d)
            inv_top, _, inv_verticals = edge_list(inv)
            assert inv_top == top_arcs and inv.loops == d.loops, rec.word
            assert inv_verticals == [(p, p) for p, _ in verticals], rec.word
            if rec.is_involution:
                # the only mirror-symmetric diagram of its right cell
                assert inv == d, rec.word
                involutions += 1
        assert involutions > 0


class TestEdgeList:
    def test_orbit_representatives(self):
        cfg = GroupConfig(4)
        top_arcs, bottom_arcs, verticals = edge_list(stack(cfg, (1, 3, 2, 4)).diagram)
        assert sorted(top_arcs) == [(1, 2), (3, 4)]
        assert sorted(bottom_arcs) == [(2, 3), (4, 5)]
        assert verticals == []
