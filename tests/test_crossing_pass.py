"""Crossing numbers in one linear pass: `diagrams._nu_vector` against the
per-class oracle on every enumerated diagram at small n and on the valid
diagrams of the validation pool, and a word at n = 20000 evaluated in
time linear in n."""

import json
import random
import time

import pytest
from oracles import nu_vector_per_class
from test_validation import diagram_pool

from afftl.cli import main
from afftl.config import GroupConfig
from afftl.diagrams import _nu_vector, edge_list, validate
from afftl.explore import enumerate_elements

HORIZONS = {3: 12, 4: 12, 5: 10, 6: 9, 7: 8, 8: 8}


@pytest.mark.parametrize("n,max_len", sorted(HORIZONS.items()))
def test_enumerated_diagrams(n, max_len):
    for rec in enumerate_elements(GroupConfig(n), max_len):
        assert _nu_vector(rec.diagram) == nu_vector_per_class(rec.diagram), rec.word


def test_validation_pool():
    valid = [d for d in diagram_pool(random.Random(7)) if not validate(d)]
    for d in valid:
        assert _nu_vector(d) == nu_vector_per_class(d), d
    # the pool reaches winding loops and edges spanning more than a period
    assert any(d.loops for d in valid)
    assert any(abs(q - p) > d.n for d in valid for edges in edge_list(d) for p, q in edges)


def test_eval_is_linear_in_n(capsys):
    t0 = time.monotonic()
    code = main(["eval", "--n", "20000", "--word", "1 2"])
    elapsed = time.monotonic() - t0
    out = capsys.readouterr().out
    assert code == 0
    obj = json.loads(out)
    assert obj["word"] == [1, 2]
    assert len(obj["diagram"]["top"]) == len(obj["diagram"]["bottom"]) == 20000
    assert elapsed < 5.0
