"""The enumeration keeps every unseen loop-free extension without computing
its length, and computes only the extensions that can be least words.
Played here against the filtered enumeration of
`oracles.enumerate_filtered`, record by record and in order, for fixed
and random generator orders; every record's word against the greedy
least word of its commutation class; every computed generator action
against the records already made; and every record's length and
involution flag against their definitions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import enumerate_filtered, least_word_greedy

from afftl import explore
from afftl.config import GroupConfig
from afftl.diagrams import length, mirror
from afftl.explore import enumerate_elements

HORIZONS = [(3, 12), (4, 12), (5, 10), (6, 9), (7, 8), (8, 10)]

ORDERS = {
    "default": lambda n: tuple(range(1, n + 1)),
    "reversed": lambda n: tuple(range(n, 0, -1)),
    "rotated": lambda n: tuple(range(2, n + 1)) + (1,),
}


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


@pytest.mark.parametrize("order_name", ORDERS)
@pytest.mark.parametrize("n,max_len", HORIZONS)
def test_records_carry_least_words(n, max_len, order_name):
    cfg = GroupConfig(n)
    order = ORDERS[order_name](n)
    for rec in records(cfg, max_len, order):
        assert least_word_greedy(cfg, rec.word, order) == rec.word


@settings(max_examples=40, deadline=None, database=None)
@given(st.integers(3, 7).flatmap(lambda n: st.permutations(range(1, n + 1))))
def test_same_records_as_filtered_any_order(order):
    cfg = GroupConfig(len(order))
    order = tuple(order)
    max_len = 10 - len(order) // 2
    got = [(r.word, r.diagram, r.length, r.is_involution) for r in records(cfg, max_len, order)]
    assert got == list(enumerate_filtered(cfg, max_len, order))


def computed_actions(monkeypatch, cfg, max_len, order=None):
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
        assert not r.contractible, (d, s)
        prev = lengths.get(r.diagram)
        assert prev is None or prev < lengths[d] + 1, (d, s)
        return r

    monkeypatch.setattr(explore, "times_generator", checked)
    for rec in records(cfg, max_len, order):
        lengths[rec.diagram] = rec.length
    return calls


@pytest.mark.parametrize("order_name", ORDERS)
@pytest.mark.parametrize("n,max_len", HORIZONS)
def test_no_wasted_action(monkeypatch, n, max_len, order_name):
    computed_actions(monkeypatch, GroupConfig(n), max_len, ORDERS[order_name](n))


def test_action_count_pinned(monkeypatch):
    # 68,488 when every frontier element is extended by every letter
    assert computed_actions(monkeypatch, GroupConfig(8), 12) == 23_213


@pytest.mark.parametrize(
    "order",
    [(1, 2), (1, 1, 2, 3, 4), (0, 1, 2, 3), (1, 2, 3, 4, 5), (), [2, 1, 4]],
    ids=["prefix", "repeat", "zero", "too-long", "empty", "list"],
)
def test_order_must_be_a_permutation(order):
    with pytest.raises(ValueError, match="permutation of 1..4"):
        records(GroupConfig(4), 6, order)


def test_default_order_is_ascending():
    cfg = GroupConfig(4)
    assert records(cfg, 6) == records(cfg, 6, (1, 2, 3, 4))
    assert records(cfg, 6, [4, 3, 2, 1]) == records(cfg, 6, (4, 3, 2, 1))
