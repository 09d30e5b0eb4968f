"""Element JSON, read and written in one pass each.

`algebra.element_from_json` sums the terms' coefficients per stacked
(diagram, loop count) and multiplies each sum by its power of delta once;
it is played against `oracles.element_from_json_by_sums`, one Laurent
product and sum per term, on random elements for n = 3..6 with repeated
exponents, zero coefficients, terms that cancel, and non-reduced words
that close contractible and winding loops.  `algebra.element_to_json`
writes the text itself; it must equal `json.dumps` of the dict that
`oracles.element_json_dict` builds, and `json.loads` must read it back.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import element_from_json_by_sums, element_json_dict

from afftl.algebra import AlgebraElement, element_from_json, element_to_json
from afftl.config import GroupConfig
from afftl.laurent import LaurentPoly
from afftl.straightening import stack

PROPERTY = settings(max_examples=200, deadline=None, database=None)

exponents = st.one_of(st.integers(-6, 6), st.integers(-(10**6), 10**6))
values = st.one_of(st.integers(-3, 3), st.integers(-(1 << 90), 1 << 90))
# repeated exponents and zero coefficients are left in
coeffs = st.lists(st.fixed_dictionaries({"exp": exponents, "c": values}), max_size=5)


@st.composite
def element_json(draw):
    n = draw(st.integers(3, 6))
    words = st.lists(st.integers(1, n), max_size=9)
    terms = draw(st.lists(st.fixed_dictionaries({"coeff": coeffs, "word": words}), max_size=8))
    # some terms come back negated, so they cancel against the first copy
    for t in draw(st.lists(st.sampled_from(terms), max_size=3)) if terms else ():
        terms.append({"coeff": [{"exp": x["exp"], "c": -x["c"]} for x in t["coeff"]],
                      "word": t["word"]})
    return {"n": n, "terms": draw(st.permutations(terms))}


def check(obj):
    got = element_from_json(obj)
    want = element_from_json_by_sums(obj)
    assert got == want
    text = element_to_json(got)
    assert text == json.dumps(element_json_dict(want))
    assert element_from_json(json.loads(text)) == got
    return got


@PROPERTY
@given(element_json())
def test_loader_matches_the_sums_oracle(obj):
    check(obj)


def test_loops_of_both_kinds():
    # E1 E1 E3 E2 E4 closes one contractible loop, and its diagram keeps a
    # winding one; E1 E1 = delta E1, so the last two terms cancel
    cfg = GroupConfig(4)
    r = stack(cfg, (1, 1, 3, 2, 4))
    assert r.contractible == 1 and r.diagram.loops == 1
    one = [{"exp": 0, "c": 1}]
    delta = [{"exp": -1, "c": 1}, {"exp": 1, "c": 1}]
    winding = {"coeff": [{"exp": 3, "c": 2}, {"exp": 3, "c": 5}], "word": [1, 1, 3, 2, 4]}
    got = check({"n": 4, "terms": [
        winding,
        {"coeff": one, "word": [1, 1]},
        {"coeff": [{"exp": -1, "c": -1}, {"exp": 1, "c": -1}, {"exp": 9, "c": 0}], "word": [1]},
    ]})
    (d, c), = got.terms.items()
    assert d == r.diagram and c == LaurentPoly.from_dict({2: 7, 4: 7})
    assert check({"n": 4, "terms": [
        {"coeff": one, "word": [1, 1]}, {"coeff": delta, "word": [1]},
    ]}) == AlgebraElement.from_word(cfg, (1,)).scale(LaurentPoly.from_dict({-1: 2, 1: 2}))


def test_terms_cancelling_to_zero():
    # E1 E3 from loop counts 2 and 1, 1 * delta**2 - delta * delta, and a
    # coefficient whose entries cancel among themselves
    obj = {"n": 5, "terms": [
        {"coeff": [{"exp": 0, "c": 1}], "word": [1, 1, 1, 3]},
        {"coeff": [{"exp": -1, "c": -1}, {"exp": 1, "c": -1}], "word": [3, 1, 1]},
        {"coeff": [{"exp": 4, "c": 6}, {"exp": 4, "c": -6}], "word": [2]},
    ]}
    assert check(obj).is_zero()
    assert element_to_json(AlgebraElement.zero(5)) == '{"n": 5, "terms": []}'


def test_writer_on_signs_and_sizes():
    cfg = GroupConfig(6)
    big = LaurentPoly.from_dict({-(10**12): -(1 << 200), -3: 7, 0: -1, 10**15: 3**90})
    x = (AlgebraElement.from_word(cfg, (2, 1, 6)).scale(big)
         + AlgebraElement.from_word(cfg, ()).scale(LaurentPoly.from_dict({-5: -2})))
    text = element_to_json(x)
    assert text == json.dumps(element_json_dict(x))
    assert element_from_json(json.loads(text)) == x
