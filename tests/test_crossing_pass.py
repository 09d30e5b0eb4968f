"""A diagram's invariant record in one linear pass: every field of
`diagrams._nu_vector` against definitions computed independently (the
per-class crossing oracle, half the crossing sum, the admissibility rule,
the short-arc count from the edge list) on every enumerated diagram at
small n and on the valid diagrams of the validation pool, inadmissible
ones included; and a word at n = 20000 evaluated in time linear in n."""

import json
import random
import time
from collections import Counter

import pytest
from oracles import nu_vector_per_class
from test_validation import diagram_pool, twisted

from afftl.cli import main
from afftl.config import GroupConfig
from afftl.diagrams import (
    _nu_vector,
    crossing_number,
    crossing_numbers,
    edge_list,
    identity,
    is_admissible,
    length,
    short_arc_count,
    validate,
)
from afftl.explore import enumerate_elements
from afftl.straightening import straighten

HORIZONS = {3: 12, 4: 12, 5: 10, 6: 9, 7: 8, 8: 8}


def admissible_by_rule(d, nu):
    """The identity, or at least one horizontal edge (a winding loop, or a
    top node off the verticals) and every crossing number even."""
    if not any(nu):
        return True
    if not d.loops and all(e & 1 for e in d.top):
        return False
    return all(v % 2 == 0 for v in nu)


def assert_record_matches_definitions(d):
    record = _nu_vector(d)
    nu = nu_vector_per_class(d)
    assert record.nu == nu, d
    assert record.length == (sum(nu) // 2 if admissible_by_rule(d, nu) else None), d
    top_arcs, bottom_arcs, _ = edge_list(d)
    assert record.short_arcs == len(top_arcs) + len(bottom_arcs), d
    # the public readers answer from the record
    assert crossing_numbers(d) == nu
    assert [crossing_number(d, k) for k in range(1, d.n + 1)] == list(nu)
    assert is_admissible(d) == (record.length is not None)
    assert short_arc_count(d) == record.short_arcs
    return record


@pytest.mark.parametrize("n,max_len", sorted(HORIZONS.items()))
def test_enumerated_diagrams(n, max_len):
    for rec in enumerate_elements(GroupConfig(n), max_len):
        record = assert_record_matches_definitions(rec.diagram)
        assert record.length == length(rec.diagram) == rec.length, rec.word


def test_validation_pool():
    # with the identity twisted by t: no horizontal edge, |t| crossings a line
    pool = diagram_pool(random.Random(7))
    pool += [twisted(identity(n), t) for n in (3, 4, 5, 6) for t in (-n, -2, -1, 1, 2, n)]
    valid = [d for d in pool if not validate(d)]
    inadmissible = Counter()
    for d in valid:
        if assert_record_matches_definitions(d).length is not None:
            assert length(d) == sum(nu_vector_per_class(d)) // 2
            continue
        # which clause of the rule rejects it: no horizontal edge, odd crossings
        inadmissible[all(e & 1 for e in d.top), nu_vector_per_class(d)[0] % 2] += 1
        with pytest.raises(ValueError, match="length is defined for admissible diagrams only"):
            length(d)
        with pytest.raises(ValueError, match="only admissible diagrams straighten"):
            straighten(d)
    # the pool reaches winding loops, edges spanning more than a period,
    # and each clause of the admissibility rule alone
    assert any(d.loops for d in valid)
    assert any(abs(q - p) > d.n for d in valid for edges in edge_list(d) for p, q in edges)
    assert inadmissible[True, 0] and inadmissible[False, 1]
    assert sum(inadmissible.values()) < len(valid)


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
