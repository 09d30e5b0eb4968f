"""The enumeration keeps every unseen loop-free extension without computing
its length, and computes only the extensions that can be least words.
Played here against the filtered enumeration of
`oracles.enumerate_filtered`, record by record and in order; every
record's word against the greedy least word of its commutation class;
every computed generator action against the records already made; and
every record's length and involution flag against their definitions.

The enumeration compares letters as integers, the default generator
order; the cases carry that order in their ids."""

import pytest
from oracles import enumerate_filtered, least_word_greedy

from afftl import explore
from afftl.config import GroupConfig
from afftl.diagrams import length, mirror
from afftl.explore import enumerate_elements

HORIZONS = [(3, 12), (4, 12), (5, 10), (6, 9), (7, 8), (8, 10)]

IN_DEFAULT_ORDER = [pytest.param(n, max_len, id=f"{n}-{max_len}-default") for n, max_len in HORIZONS]


def records(cfg, max_len):
    return list(enumerate_elements(cfg, max_len))


@pytest.mark.parametrize("n,max_len", IN_DEFAULT_ORDER)
def test_same_records_as_filtered(n, max_len):
    cfg = GroupConfig(n)
    got = [(r.word, r.diagram, r.length, r.is_involution) for r in records(cfg, max_len)]
    assert got == list(enumerate_filtered(cfg, max_len))


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


@pytest.mark.parametrize("n,max_len", IN_DEFAULT_ORDER)
def test_records_carry_least_words(n, max_len):
    cfg = GroupConfig(n)
    for rec in records(cfg, max_len):
        assert least_word_greedy(cfg, rec.word, cfg.generators()) == rec.word


def computed_actions(monkeypatch, cfg, max_len):
    """Run the enumeration with `explore.times_generator` wrapped; return
    the number of actions it computed.  Each action is checked against the
    records made so far: it closes no loop and, when its diagram is
    already recorded, that record is shorter than the level being built."""
    lengths = {}
    calls = 0
    action = explore.times_generator

    def checked(d, s):
        nonlocal calls
        calls += 1
        r = action(d, s)
        assert r is not None, (d, s)
        prev = lengths.get(r)
        assert prev is None or prev < lengths[d] + 1, (d, s)
        return r

    monkeypatch.setattr(explore, "times_generator", checked)
    for rec in records(cfg, max_len):
        lengths[rec.diagram] = rec.length
    return calls


@pytest.mark.parametrize("n,max_len", IN_DEFAULT_ORDER)
def test_no_wasted_action(monkeypatch, n, max_len):
    computed_actions(monkeypatch, GroupConfig(n), max_len)


def test_action_count_pinned(monkeypatch):
    # 68,488 when every frontier element is extended by every letter
    assert computed_actions(monkeypatch, GroupConfig(8), 12) == 23_213

