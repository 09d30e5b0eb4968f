import sys

import pytest

from conftest import random_fc_word
from oracles import congruence_candidates, mirror

from afftl.config import GroupConfig
from afftl.diagrams import (
    TOP,
    generator,
    identity,
    length,
    multiply,
    node_ref,
    short_arc_count,
    validate,
)
from afftl.explore import enumerate_elements
from afftl.straightening import (
    find_distinguished,
    is_straight,
    peel,
    stack,
    straighten,
)

# (n, max_len) for the whole-horizon straightening sweeps, n = 3..8
HORIZONS = ((3, 10), (4, 10), (5, 9), (6, 9), (7, 8), (8, 8))


class TestStack:
    def test_examples(self):
        cfg = GroupConfig(4)
        r = stack(cfg, (2, 1, 3, 2))
        assert r.contractible == 0
        assert node_ref(r.diagram.top[1]) == ("T", 3)  # minimal top arc at 2
        assert node_ref(r.diagram.bottom[1]) == ("B", 3)  # minimal bottom arc at 2
        r = stack(cfg, (1, 1))
        assert r.contractible == 1 and r.diagram == generator(4, 1)
        r = stack(cfg, ())
        assert r.contractible == 0 and r.diagram == identity(4)

    def test_rejects_bad_letters(self):
        with pytest.raises(ValueError):
            stack(GroupConfig(4), (1, 5))


class TestIsStraight:
    def test_examples(self):
        cfg = GroupConfig(4)
        assert is_straight(stack(cfg, (1, 3)).diagram) == {1, 3}
        assert is_straight(stack(cfg, (2, 1, 3, 2)).diagram) is None
        assert is_straight(identity(5)) == frozenset()

    def test_loop_diagram_not_straight(self):
        cfg = GroupConfig(4)
        assert is_straight(stack(cfg, (1, 3, 2, 4)).diagram) is None


class TestFindDistinguished:
    def test_covered_arc_case(self):
        # congruence class 2, covered type, on both rows
        cfg = GroupConfig(4)
        d = stack(cfg, (2, 1, 3, 2)).diagram
        cands = congruence_candidates(d)
        assert set(cands["T1"]) == {2}
        assert set(cands["B1"]) == {2}
        f = find_distinguished(d)
        assert (f.cls, f.kind) == (2, "T1")
        assert f.cover == (1, 4)

    def test_slide_case(self):
        cfg = GroupConfig(4)
        d = stack(cfg, (2, 1)).diagram
        cands = congruence_candidates(d)
        assert not cands["T1"] and not cands["B1"]
        assert set(cands["T2"]) == {1}
        f = find_distinguished(d)
        assert (f.cls, f.kind) == (1, "T2")

    def test_slide_case_mirror(self):
        cfg = GroupConfig(4)
        f = find_distinguished(stack(cfg, (1, 2)).diagram)
        assert (f.cls, f.kind) == (1, "B2")

    def test_loop_case(self):
        cfg = GroupConfig(4)
        d = stack(cfg, (1, 3, 2, 4)).diagram
        f = find_distinguished(d)
        assert f.kind == "T1" and f.cover is None

    @pytest.mark.parametrize("n,max_len", [(3, 8), (4, 8), (5, 7), (6, 6)])
    def test_candidates_of_mirror_swap_rows(self, n, max_len):
        # swapping the rows of a diagram swaps the T and B candidates,
        # positions and covering arcs included
        swap = {"T1": "B1", "B1": "T1", "T2": "B2", "B2": "T2"}
        checked = 0
        for rec in enumerate_elements(GroupConfig(n), max_len):
            cands = congruence_candidates(rec.diagram)
            assert congruence_candidates(mirror(rec.diagram)) == {
                swap[kind]: found for kind, found in cands.items()
            }
            checked += 1
        assert checked > 40

    def test_straight_input_errors(self):
        cfg = GroupConfig(4)
        with pytest.raises(ValueError):
            find_distinguished(stack(cfg, (1, 3)).diagram)


class TestFirstMatchFinding:
    def test_agrees_with_all_kinds_oracle_on_every_peel(self):
        # find_distinguished stops at the first kind that qualifies; the oracle
        # builds all four, and the smallest class of its first nonempty kind
        # must be the finding, covering arc and loop sub-case included
        peels = 0
        for n, max_len in HORIZONS:
            for rec in enumerate_elements(GroupConfig(n), max_len):
                d = rec.diagram
                while is_straight(d) is None:
                    cands = congruence_candidates(d)
                    kind = next(k for k in ("T1", "B1", "T2", "B2") if cands[k])
                    cls = min(cands[kind])
                    cover = cands[kind][cls] if kind.endswith("1") else None
                    f = find_distinguished(d)
                    assert (f.kind, f.cls, f.cover) == (kind, cls, cover), rec.word
                    d = peel(d, f).rest
                    peels += 1
        assert peels == 28050


class TestPeel:
    def test_covered_peel(self):
        cfg = GroupConfig(4)
        d = stack(cfg, (2, 1, 3, 2)).diagram
        f = find_distinguished(d)
        step = peel(d, f)
        assert step.letter == 2 and f.kind[0] == TOP
        assert step.rest == stack(cfg, (1, 3, 2)).diagram

    def test_slide_peel(self):
        cfg = GroupConfig(4)
        d = stack(cfg, (2, 1)).diagram
        f = find_distinguished(d)
        step = peel(d, f)
        assert step.letter == 2 and f.kind[0] == TOP
        assert step.rest == stack(cfg, (1,)).diagram

    def test_peel_invariants(self, cfg, rng):
        for _ in range(40):
            w = random_fc_word(cfg, rng, 10)
            d = stack(cfg, w).diagram
            if is_straight(d) is not None:
                continue
            f = find_distinguished(d)
            step = peel(d, f)
            assert length(step.rest) == length(d) - 1
            assert short_arc_count(step.rest) == short_arc_count(d)
            assert validate(step.rest) == []
            g = generator(cfg.n, step.letter)
            back = multiply(g, step.rest) if f.kind[0] == TOP else multiply(step.rest, g)
            assert back.contractible == 0 and back.diagram == d


class TestStraighten:
    def test_examples(self):
        cfg = GroupConfig(4)
        assert straighten(identity(4)).letters == ()
        d = stack(cfg, (2, 1, 3, 2)).diagram
        sw = straighten(d)
        assert stack(cfg, sw.letters).diagram == d
        assert len(sw.letters) == 4

    def test_loop_diagram(self):
        cfg = GroupConfig(4)
        d = stack(cfg, (1, 3, 2, 4)).diagram
        sw = straighten(d)
        assert len(sw.letters) == 4
        r = stack(cfg, sw.letters)
        assert r.contractible == 0 and r.diagram == d

    def test_roundtrip(self, cfg, rng):
        for _ in range(50):
            w = random_fc_word(cfg, rng, 10)
            d = stack(cfg, w).diagram
            sw = straighten(d)
            r = stack(cfg, sw.letters)
            assert r.contractible == 0 and r.diagram == d
            assert len(sw.letters) == length(d) == len(w)
            assert is_straight(stack(cfg, tuple(sorted(sw.core))).diagram) == sw.core

    def test_deterministic_across_equal_diagrams(self):
        from afftl.diagrams import from_json_dict, to_json_dict

        cfg = GroupConfig(5)
        d = stack(cfg, (1, 3, 2, 4)).diagram
        copy = from_json_dict(to_json_dict(d))
        assert straighten(copy).letters == straighten(d).letters

    def test_inadmissible_rejected(self):
        from test_diagrams import rotation_diagram

        with pytest.raises(ValueError):
            straighten(rotation_diagram(4))


class TestStraightenCache:
    def test_words_do_not_depend_on_cache_order(self):
        # a rest's cached word finishes every diagram peeled down to it, so
        # warming the cache from the long end must give the same words
        for n, max_len in HORIZONS[:-1]:
            recs = list(enumerate_elements(GroupConfig(n), max_len))
            straighten.cache_clear()
            up = [straighten(rec.diagram).letters for rec in recs]
            straighten.cache_clear()
            down = [straighten(rec.diagram).letters for rec in reversed(recs)]
            assert up == down[::-1]

    def test_long_diagram_from_cold_cache(self):
        # 3,000 letters: peels down to the reuse bound, then nests at most
        # that many calls, well inside the default recursion limit
        word = (1, 2, 3, 4) * 750
        d = stack(GroupConfig(4), word).diagram
        straighten.cache_clear()
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            assert straighten(d).letters == word
        finally:
            sys.setrecursionlimit(limit)
