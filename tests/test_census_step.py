"""Cell labels are read off the diagram (`cells.cell_labels`): on every
enumerated record the label equals the core's that the cancellation chain
reaches, neither census nor `cells label` runs the chain, census trusts
the enumeration's words, and verify's core-order-independence check
catches a label read wrongly off the diagram."""

import json

import pytest

from afftl import cells, words
from afftl.cells import census, classify_core, labelled_elements, labels, reduce_to_core
from afftl.cli import main
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


# 12,952 records in all
PROOF_HORIZONS = [(3, 20), (4, 20), (5, 14), (6, 14), (7, 11), (8, 10)]


@pytest.mark.parametrize("n,max_len", PROOF_HORIZONS)
def test_diagram_labels_are_the_core_labels(n, max_len):
    cfg = GroupConfig(n)
    for rec in labelled_elements(cfg, max_len):
        assert rec.labels.two_sided == classify_core(cfg, reduce_to_core(cfg, rec.word)), rec.word


def refuse_the_chain(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("labelling ran the cancellation chain")

    for name in ("reduce_to_core", "_cancel_steps", "classify_core"):
        monkeypatch.setattr(cells, name, refuse)


@pytest.mark.parametrize("n", sorted(PINNED_ROWS))
def test_census_never_runs_the_full_reduction(monkeypatch, n):
    refuse_the_chain(monkeypatch)
    assert rows(n) == PINNED_ROWS[n]


def test_label_of_a_long_word_never_runs_the_chain(monkeypatch, capsys):
    # the chain is quadratic in the word: about 5 s on these 16,000 letters
    refuse_the_chain(monkeypatch)
    assert main(["cells", "label", "--n", "5", "--word", " ".join(["1 2 3 4 5"] * 3200)]) == 0
    got = json.loads(capsys.readouterr().out)
    assert (got["two_sided"], got["left_pattern"], got["right_pattern"]) == (
        {"kind": "small", "k": 1}, [[5, 6]], [[1, 2]],
    )


@pytest.mark.parametrize("n", sorted(PINNED_ROWS))
def test_census_trusts_its_own_records(monkeypatch, n):
    def refuse(*args, **kwargs):
        raise AssertionError("census re-checked an enumerated word")

    cfg = GroupConfig(n)
    with monkeypatch.context() as m:
        for module in (words, cells):
            m.setattr(module, "heap_is_fc", refuse)
        m.setattr(cells, "_require_reduced_fc", refuse)
        got = rows(n)
        recs = list(labelled_elements(cfg, 8))
    assert got == PINNED_ROWS[n]
    for rec in recs:
        assert rec.labels == labels(cfg, rec.word), rec.word


def test_interleaved_censuses_match_fresh_runs():
    assert [rows(4), rows(6), rows(4)] == [PINNED_ROWS[4], PINNED_ROWS[6], PINNED_ROWS[4]]


def flip_seam(lab):
    return lab._replace(start={"odd": "even", "even": "odd"}.get(lab.start, ""))


def one_more_factor(lab):
    return lab._replace(factors=lab.factors + 1) if lab.kind == "alternating" else lab


@pytest.mark.parametrize("plant", [flip_seam, one_more_factor])
@pytest.mark.parametrize("n,max_len", [(4, 8), (6, 10)])
def test_verify_catches_a_label_misread_off_the_diagram(monkeypatch, capsys, plant, n, max_len):
    real = cells.cell_labels

    def misread(d):
        lab = real(d)
        return lab._replace(two_sided=plant(lab.two_sided))

    monkeypatch.setattr(cells, "cell_labels", misread)
    assert main(["verify", "--n", str(n), "--max-len", str(max_len)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 11
    assert lines[8].startswith("FAIL core-order-independence: diagram reads ")
    assert all(line.startswith("PASS ") for line in lines[:8] + lines[9:])
