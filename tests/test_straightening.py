import pytest

from conftest import random_fc_word

from afftl.config import GroupConfig
from afftl.diagrams import (
    generator,
    identity,
    length,
    mirror,
    multiply,
    short_arc_count,
    validate,
)
from afftl.explore import enumerate_elements
from afftl.straightening import (
    congruence_candidates,
    find_distinguished,
    is_straight,
    peel,
    stack,
    straighten,
)


class TestStack:
    def test_examples(self):
        cfg = GroupConfig(4)
        r = stack(cfg, (2, 1, 3, 2))
        assert r.contractible == 0
        assert r.diagram.top[1] == ("T", 3)  # minimal top arc at 2
        assert r.diagram.bottom[1] == ("B", 3)  # minimal bottom arc at 2
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
        assert f.kind == "T1" and f.uses_loop and f.cover is None

    @pytest.mark.parametrize("n,max_len", [(3, 8), (4, 8), (5, 7), (6, 6)])
    def test_candidates_of_mirror_swap_rows(self, n, max_len):
        # swapping the rows of a diagram swaps the T and B candidates,
        # positions and covering arcs included
        swap = {"T1": "B1", "B1": "T1", "T2": "B2", "B2": "T2"}
        checked = 0
        for rec in enumerate_elements(GroupConfig(n), max_len, with_labels=False):
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


class TestPeel:
    def test_covered_peel(self):
        cfg = GroupConfig(4)
        d = stack(cfg, (2, 1, 3, 2)).diagram
        step = peel(d, find_distinguished(d))
        assert step.letter == 2 and step.end == "left"
        assert step.rest == stack(cfg, (1, 3, 2)).diagram

    def test_slide_peel(self):
        cfg = GroupConfig(4)
        d = stack(cfg, (2, 1)).diagram
        step = peel(d, find_distinguished(d))
        assert step.letter == 2 and step.end == "left"
        assert step.rest == stack(cfg, (1,)).diagram

    def test_peel_invariants(self, cfg, rng):
        for _ in range(40):
            w = random_fc_word(cfg, rng, 10)
            d = stack(cfg, w).diagram
            if is_straight(d) is not None:
                continue
            step = peel(d, find_distinguished(d))
            assert length(step.rest) == length(d) - 1
            assert short_arc_count(step.rest) == short_arc_count(d)
            assert validate(step.rest) == []
            g = generator(cfg.n, step.letter)
            back = multiply(g, step.rest) if step.end == "left" else multiply(step.rest, g)
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
