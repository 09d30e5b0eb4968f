"""The constant-size generator action against the general product (the
product diagram, or None when E_s closes a contractible loop), its
self-checks on broken input, and the enumeration's involution flag (mirror
symmetry of the diagram) against the affine-permutation oracle."""

import pytest

from afftl.config import GroupConfig
from afftl.diagrams import (
    BOT,
    TOP,
    AffineDiagram,
    InvariantError,
    _generator_action,
    generator,
    generator_times,
    identity,
    multiply,
    node,
    partner,
    times_generator,
)
from afftl.explore import enumerate_elements
from afftl.words import perm_of


def diagrams_of(n, max_len):
    return [r.diagram for r in enumerate_elements(GroupConfig(n), max_len)]


def assert_action_contract(action, product, d, s):
    """The action is None exactly when the general product closes a
    contractible loop, and that product is then delta times d; otherwise
    the action is the product's diagram, which has no loop."""
    if action is None:
        assert product.contractible == 1 and product.diagram == d, (d, s)
    else:
        assert type(action) is AffineDiagram, (d, s)
        assert product.contractible == 0 and action == product.diagram, (d, s)


def assert_matches_multiply(pool, n):
    """Checks the contract on every diagram of the pool and every generator,
    on both sides, and that the pool reaches both cases of it."""
    loops = 0
    for d in pool:
        for s in range(1, n + 1):
            g = generator(n, s)
            right, left = times_generator(d, s), generator_times(s, d)
            assert_action_contract(right, multiply(d, g), d, s)
            assert_action_contract(left, multiply(g, d), d, s)
            loops += (right is None) + (left is None)
    assert 0 < loops < 2 * n * len(pool)


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
        # E_5 E_5 = delta E_5: None stands for the input diagram
        g = generator(5, 5)
        assert times_generator(g, 5) is None
        assert generator_times(5, g) is None


class TestCarriedPermutation:
    def test_involution_flag_matches_word_oracle(self):
        for n, max_len in ((3, 12), (4, 12), (5, 10), (6, 9), (7, 8)):
            cfg = GroupConfig(n)
            recs = list(enumerate_elements(cfg, max_len))
            assert sum(r.is_involution for r in recs) > 1
            for r in recs:
                assert r.is_involution == perm_of(cfg, r.word).is_involution(), r.word


def _edited(d, side, entries):
    """d with some window entries of one row replaced (not a valid diagram)."""
    row = list(d.top if side == TOP else d.bottom)
    for i, entry in entries.items():
        row[i] = node(*entry)
    return d._replace(**{"top" if side == TOP else "bottom": tuple(row)})


class TestSelfChecks:
    @pytest.mark.parametrize("side", [TOP, BOT])
    @pytest.mark.parametrize("entry", [0, 1], ids=["node s", "node s+1"])
    def test_broken_matching(self, side, entry):
        # the partner of node s (or s+1) is a translate of that node itself
        d = _edited(identity(4), side, {entry: (side, entry + 1 + 4)})
        with pytest.raises(InvariantError, match="broken matching"):
            _generator_action(d, 1, side)

    def test_winding_loop_beside_a_through_strand(self):
        # bottom nodes 1 and 2 joined around the cylinder, top rows vertical
        d = _edited(identity(4), BOT, {0: (BOT, -2), 1: (BOT, 5)})
        with pytest.raises(InvariantError, match="through strand"):
            times_generator(d, 1)
