"""The enumeration keeps every unseen loop-free extension without computing
its length.  Played here against the filtered enumeration of
`oracles.enumerate_filtered`, record by record and in order, for both
generator orders; and every record's length and involution flag against
their definitions."""

import pytest
from oracles import enumerate_filtered

from afftl.config import GroupConfig
from afftl.diagrams import length, mirror
from afftl.explore import enumerate_elements

HORIZONS = [(3, 12), (4, 12), (5, 10), (6, 9), (7, 8), (8, 10)]


def records(cfg, max_len, order=None):
    return list(enumerate_elements(cfg, max_len, with_labels=False, generator_order=order))


@pytest.mark.parametrize("reverse", [False, True], ids=["default", "reversed"])
@pytest.mark.parametrize("n,max_len", HORIZONS)
def test_same_records_as_filtered(n, max_len, reverse):
    cfg = GroupConfig(n)
    order = tuple(reversed(cfg.generators())) if reverse else None
    got = [(r.word, r.diagram, r.length, r.is_involution) for r in records(cfg, max_len, order)]
    assert got == list(enumerate_filtered(cfg, max_len, order))


@pytest.mark.parametrize("n,max_len", HORIZONS)
def test_length_and_involution_flag(n, max_len):
    for rec in records(GroupConfig(n), max_len):
        d = rec.diagram
        assert length(d) == rec.length == len(rec.word), rec.word
        assert rec.is_involution == (mirror(d) == d), rec.word


def test_flag_on_winding_loops():
    # n = 4 up to length 12 reaches diagrams with loops around the cylinder,
    # symmetric and not
    wound = [r for r in records(GroupConfig(4), 12) if r.diagram.loops]
    assert {r.is_involution for r in wound} == {True, False}
    for rec in wound:
        assert rec.is_involution == (mirror(rec.diagram) == rec.diagram)
