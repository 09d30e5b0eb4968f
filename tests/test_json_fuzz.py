"""Fuzzed JSON at the input boundary.

Valid diagram and element JSON is mutated (a value of the wrong type, a
bad side, a missing key, two entries swapped, or an integer moved as far
as 10**12) and fed through `afftl straighten --diagram` and `afftl mul`.
Every run exits 0, or 1 with a JSON ValueError on stderr; none exits 3
(a failed self-check) or raises, and each finishes within a second.
Large integers go to positions, letters, exponents and coefficients, not
to `n` or `loops`: those are sizes, and a valid diagram with 10**12
winding loops has a canonical word of about that length.
"""

import contextlib
import io
import json
import random
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_fc_word

from afftl.cli import main
from afftl.config import GroupConfig
from afftl.diagrams import to_json_dict
from afftl.straightening import stack

FUZZ = settings(max_examples=300, deadline=None, database=None)
BUDGET_S = 1.0
BIG = 10**12
SIZES = {"n", "loops"}

JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(allow_nan=False),
    st.text(max_size=3),
    st.lists(st.integers(-3, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(-3, 3), max_size=2),
)


def _slots(obj):
    """Every (container, key) below the root of a JSON value."""
    out, todo = [], [obj]
    while todo:
        c = todo.pop()
        for k in list(c) if isinstance(c, dict) else range(len(c)):
            out.append((c, k))
            if isinstance(c[k], (dict, list)):
                todo.append(c[k])
    return out


def _mutate(data, obj):
    """obj with one mutation, chosen by hypothesis; obj is changed in place."""
    slots = _slots(obj)
    kind = data.draw(st.sampled_from(("type", "side", "missing", "swap", "big")))
    if kind == "side":
        sides = [s for s in slots if s[1] == "side"]
        if sides:
            c, k = data.draw(st.sampled_from(sides))
            c[k] = data.draw(st.text(max_size=2).filter(lambda s: s not in ("T", "B")) | JUNK)
            return obj
        kind = "type"
    if kind == "missing":
        c, k = data.draw(st.sampled_from([s for s in slots if isinstance(s[0], dict)]))
        del c[k]
    elif kind == "swap":
        lists = [v for c, k in slots if isinstance(v := c[k], list) and len(v) > 1]
        if not lists:
            return obj
        row = data.draw(st.sampled_from(lists))
        i, j = data.draw(st.lists(st.sampled_from(range(len(row))), min_size=2, max_size=2))
        row[i], row[j] = row[j], row[i]
    elif kind == "big":
        ints = [(c, k) for c, k in slots if type(c[k]) is int and k not in SIZES]
        if ints:
            c, k = data.draw(st.sampled_from(ints))
            c[k] = data.draw(st.integers(-BIG, BIG))
    else:
        c, k = data.draw(st.sampled_from(slots))
        c[k] = data.draw(JUNK)
    return obj


def _word(data, n):
    cfg = GroupConfig(n)
    return cfg, random_fc_word(cfg, random.Random(data.draw(st.integers(0, 2**32))), 6)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    elapsed = time.perf_counter() - start
    assert code in (0, 1), err.getvalue()
    if code:
        assert json.loads(err.getvalue())["error"] == "ValueError"
    else:
        json.loads(out.getvalue())
    assert elapsed < BUDGET_S, f"{argv[0]} took {elapsed:.2f} s"


@FUZZ
@given(st.data())
def test_fuzzed_diagram_json(data):
    cfg, word = _word(data, data.draw(st.integers(3, 7)))
    obj = _mutate(data, to_json_dict(stack(cfg, word).diagram))
    _run(["straighten", "--diagram", json.dumps(obj)])


def _element_json(data, n):
    terms = []
    for _ in range(data.draw(st.integers(1, 3))):
        _, word = _word(data, n)
        exps = data.draw(st.lists(st.integers(-4, 4), min_size=1, max_size=3, unique=True))
        terms.append({"coeff": [{"exp": e, "c": data.draw(st.integers(1, 3))} for e in exps],
                      "word": list(word)})
    return {"n": n, "terms": terms}


@FUZZ
@given(st.data())
def test_fuzzed_element_json(data):
    n = data.draw(st.integers(3, 6))
    a, b = _element_json(data, n), _element_json(data, n)
    _mutate(data, data.draw(st.sampled_from((a, b))))
    _run(["mul", "--n", str(n), "--a", json.dumps(a), "--b", json.dumps(b)])
