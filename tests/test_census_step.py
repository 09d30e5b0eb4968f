"""Census labels each element from the shorter element one cancellation
step below it: the labelled enumeration against `cells.labels` word by
word, census rows that never need the full reduction nor check a word the
enumeration made, and no label table shared between enumerations."""

import pytest
from test_crossing_pass import HORIZONS

from afftl import algebra, cells
from afftl.cells import census, labelled_elements, labels
from afftl.config import GroupConfig

# (two-sided label, left cells, right cells, elements seen) at max_len 8
PINNED_ROWS = {
    4: [
        ("Small(0)", 1, 1, 1), ("Small(1)", 4, 4, 60),
        ("Alt(even,1)", 3, 3, 9), ("Alt(odd,1)", 3, 3, 9),
        ("Alt(even,2)", 3, 3, 9), ("Alt(odd,2)", 3, 3, 9),
        ("Alt(even,3)", 3, 3, 9), ("Alt(odd,3)", 3, 3, 9),
        ("Alt(even,4)", 1, 1, 1), ("Alt(odd,4)", 1, 1, 1),
    ],
    5: [("Small(0)", 1, 1, 1), ("Small(1)", 5, 5, 75), ("Small(2)", 10, 10, 220)],
    6: [
        ("Small(0)", 1, 1, 1), ("Small(1)", 6, 6, 90), ("Small(2)", 15, 15, 429),
        ("Alt(even,1)", 10, 10, 91), ("Alt(odd,1)", 10, 10, 91),
        ("Alt(even,2)", 7, 7, 22), ("Alt(odd,2)", 7, 7, 22),
    ],
}


def rows(n, max_len=8):
    return [(str(r.two_sided), *r[1:]) for r in census(GroupConfig(n), max_len)]


@pytest.mark.parametrize("n,max_len", sorted(HORIZONS.items()))
def test_enumeration_labels_match_labels(n, max_len):
    cfg = GroupConfig(n)
    for rec in labelled_elements(cfg, max_len):
        assert rec.labels == labels(cfg, rec.word), rec.word


@pytest.mark.parametrize("n", sorted(PINNED_ROWS))
def test_census_never_runs_the_full_reduction(monkeypatch, n):
    def refuse(*args, **kwargs):
        raise AssertionError("census ran the full cancellation chain")

    monkeypatch.setattr(cells, "_reduce", refuse)
    assert rows(n) == PINNED_ROWS[n]


@pytest.mark.parametrize("n", sorted(PINNED_ROWS))
def test_census_trusts_its_own_records(monkeypatch, n):
    def refuse(*args, **kwargs):
        raise AssertionError("census re-checked an enumerated word")

    cfg = GroupConfig(n)
    with monkeypatch.context() as m:
        for module in (algebra, cells):
            m.setattr(module, "is_reduced_word", refuse)
        m.setattr(cells, "_require_reduced_fc", refuse)
        got = rows(n)
        recs = list(labelled_elements(cfg, 8))
    assert got == PINNED_ROWS[n]
    for rec in recs:
        assert rec.labels == labels(cfg, rec.word), rec.word


def test_interleaved_censuses_match_fresh_runs():
    assert [rows(4), rows(6), rows(4)] == [PINNED_ROWS[4], PINNED_ROWS[6], PINNED_ROWS[4]]
