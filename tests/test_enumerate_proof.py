"""The enumeration computes one generator action per element: every
action yields a diagram not recorded before, and no length is computed.
Played here against the filtered enumeration of
`oracles.enumerate_filtered`, record by record and in order; every
record's word against the greedy least word of its commutation class;
every computed generator action against the records already made; and
every record's length and involution flag against their definitions; and
the per-letter counter rule of the prune against `words.heap_is_fc` and,
at small sizes, against reducedness and the braid-free definition.

The enumeration compares letters as integers, the default generator
order; the cases carry that order in their ids."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import class_has_braid, enumerate_filtered, least_word_greedy, mirror

from afftl import explore
from afftl.config import GroupConfig, InvariantError
from afftl.diagrams import length
from afftl.explore import enumerate_elements
from afftl.words import AffinePermutation, heap_is_fc, reduced_perm

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
    records made so far: it acts on a recorded diagram, closes no loop and
    yields a diagram not recorded yet."""
    recorded = set()
    calls = 0
    action = explore.times_generator

    def checked(d, s):
        nonlocal calls
        calls += 1
        r = action(d, s)
        assert d in recorded and r is not None and r not in recorded, (d, s)
        return r

    monkeypatch.setattr(explore, "times_generator", checked)
    for rec in enumerate_elements(cfg, max_len):  # lazily, so each action sees the records before it
        recorded.add(rec.diagram)
    return calls


@pytest.mark.parametrize("n,max_len", IN_DEFAULT_ORDER)
def test_no_wasted_action(monkeypatch, n, max_len):
    cfg = GroupConfig(n)
    elements = len(records(cfg, max_len))
    assert computed_actions(monkeypatch, cfg, max_len) == elements - 1


def test_a_loop_on_a_kept_extension_raises(monkeypatch):
    # every kept extension is a reduced FC word, whose product is loop-free
    monkeypatch.setattr(explore, "times_generator", lambda d, s: None)
    with pytest.raises(InvariantError, match=r"\(1,\) closes a loop"):
        records(GroupConfig(5), 2)


def test_action_count_pinned(monkeypatch):
    # one action per non-identity record, of 10,163
    assert computed_actions(monkeypatch, GroupConfig(8), 12) == 10_162



def since_counters(n, word):
    """The frontier's `since` list for a word, built letter by letter as
    the enumeration builds it: per letter r, the occurrences of r - 1 and
    r + 1 after the last r, 2 when r does not occur."""
    since = [2] * (n + 1)
    for s in word:
        since[s] = 0
        since[s - 1 or n] += 1
        since[s % n + 1] += 1
    return since


def draw_fc_word(data, max_n, max_len):
    """A random reduced FC word: each step tries the letters from a drawn
    one onwards and appends the first that keeps the word reduced (the
    permutation ascends) and FC (`heap_is_fc`)."""
    n = data.draw(st.integers(3, max_n), label="n")
    cfg = GroupConfig(n)
    word, p = (), AffinePermutation.identity(n)
    for _ in range(data.draw(st.integers(0, max_len), label="length")):
        first = data.draw(st.integers(0, n - 1))
        for k in range(n):
            s = (first + k) % n + 1
            if p.ascends(s) and heap_is_fc(cfg, word + (s,)):
                word, p = word + (s,), p.times_generator(s)
                break
        else:
            break
    return cfg, word


PROPERTY = settings(max_examples=100, deadline=None, database=None)


@PROPERTY
@given(st.data())
def test_counter_rule_is_the_heap_criterion(data):
    cfg, word = draw_fc_word(data, 32, 200)
    since = since_counters(cfg.n, word)
    for s in cfg.generators():
        assert (since[s] >= 2) == heap_is_fc(cfg, word + (s,)), (word, s)


@PROPERTY
@given(st.data())
def test_counter_rule_is_the_definition(data):
    # reduced through the permutation model, FC by searching the class
    cfg, word = draw_fc_word(data, 6, 8)
    since = since_counters(cfg.n, word)
    for s in cfg.generators():
        w2 = word + (s,)
        defined = reduced_perm(cfg, w2) is not None and not class_has_braid(cfg, w2)
        assert (since[s] >= 2) == defined, (word, s)
