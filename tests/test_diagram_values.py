"""Value semantics of diagrams and generator products.

`AffineDiagram` and `ProductResult` are NamedTuples: equality and hashing
are the tuple's own, over the fields in order, and fields cannot be
assigned.  The tests below check that every route to a diagram gives an
equal value with an equal hash, that the two types never compare equal,
and that the rows rebuilt by the straightening peels (`_replace` on a
diagram) are valid diagrams.
"""

from functools import reduce

import pytest

from afftl.config import GroupConfig
from afftl.diagrams import (
    AffineDiagram,
    ProductResult,
    from_json_dict,
    generator,
    generator_times,
    identity,
    multiply,
    straight_diagram,
    times_generator,
    to_json_dict,
    validate,
)
from afftl.explore import enumerate_elements
from afftl.straightening import find_distinguished, is_straight, peel, stack, straighten

HORIZONS = ((3, 8), (4, 8), (5, 7), (6, 6))


def _records(n, max_len):
    return list(enumerate_elements(GroupConfig(n), max_len, with_labels=False))


def _routes(cfg, rec):
    """The record's diagram reached by each construction in the library."""
    n, word = cfg.n, rec.word
    right = reduce(lambda r, s: times_generator(r.diagram, s), word, ProductResult(identity(n), 0))
    left = reduce(
        lambda r, s: generator_times(s, r.diagram), reversed(word), ProductResult(identity(n), 0)
    )
    general = reduce(
        lambda r, s: multiply(r.diagram, generator(n, s)), word, ProductResult(identity(n), 0)
    )
    products = {
        "local action, right": right,
        "local action, left": left,
        "multiply": general,
        "stack": stack(cfg, word),
        "stack of the straightened word": stack(cfg, straighten(rec.diagram).letters),
    }
    for name, r in products.items():
        assert r.contractible == 0, (name, word)
    routes = {name: r.diagram for name, r in products.items()}
    routes["enumeration"] = rec.diagram
    routes["JSON round trip"] = from_json_dict(to_json_dict(rec.diagram))
    core = is_straight(rec.diagram)
    if core is not None:
        routes["straight_diagram"] = straight_diagram(n, core)
    return routes


class TestEveryRouteGivesOneValue:
    @pytest.mark.parametrize("n,max_len", HORIZONS)
    def test_equal_and_hash_equal(self, n, max_len):
        cfg = GroupConfig(n)
        recs = _records(n, max_len)
        index = {rec.diagram: i for i, rec in enumerate(recs)}
        assert len(index) == len(recs)
        straight = 0
        for i, rec in enumerate(recs):
            routes = _routes(cfg, rec)
            straight += "straight_diagram" in routes
            for name, d in routes.items():
                assert type(d) is AffineDiagram, name
                assert d == rec.diagram and not d != rec.diagram, (name, rec.word)
                assert hash(d) == hash(rec.diagram), (name, rec.word)
                assert index[d] == i, (name, rec.word)
        assert straight > 1

    def test_hash_is_the_field_tuples(self):
        for rec in _records(5, 6):
            d = rec.diagram
            assert hash(d) == hash((d.n, d.top, d.bottom, d.loops))

    def test_every_field_takes_part(self):
        d = stack(GroupConfig(4), (1, 3)).diagram
        for changed in (
            d._replace(n=5),
            d._replace(top=d.bottom),
            d._replace(bottom=d.top),
            d._replace(loops=1),
        ):
            assert changed != d


class TestImmutable:
    @pytest.mark.parametrize("field", AffineDiagram._fields)
    def test_diagram_fields(self, field):
        d = generator(4, 1)
        with pytest.raises(AttributeError):
            setattr(d, field, getattr(d, field))

    @pytest.mark.parametrize("field", ProductResult._fields)
    def test_product_fields(self, field):
        r = times_generator(generator(4, 1), 3)
        with pytest.raises(AttributeError):
            setattr(r, field, getattr(r, field))


class TestTypesStayApart:
    def test_diagram_never_equals_product(self):
        assert len(AffineDiagram._fields) != len(ProductResult._fields)
        cfg = GroupConfig(4)
        for word in ((), (1,), (1, 3), (2, 1, 3, 2)):
            r = stack(cfg, word)
            for product in (r, ProductResult(r.diagram, 0), ProductResult(r.diagram, 1)):
                assert product != r.diagram and r.diagram != product
                assert not product == r.diagram

    @pytest.mark.parametrize("cls", [AffineDiagram, ProductResult])
    def test_hash_and_eq_are_tuples_own(self, cls):
        # a decorator or method defining these would make them Python-level
        # again and could change the hash, so set and dict orders
        for name in ("__hash__", "__eq__", "__ne__"):
            assert name not in vars(cls), name
            assert getattr(cls, name) is getattr(tuple, name), name


class TestPeelResultsAreValid:
    def test_every_peel_rest(self):
        kinds = set()
        loop_peels = 0
        for n, max_len in HORIZONS:
            recs = _records(n, max_len)
            known = {rec.diagram: rec.length for rec in recs}
            for rec in recs:
                d = rec.diagram
                if is_straight(d) is not None:
                    continue
                f = find_distinguished(d)
                step = peel(d, f)
                kinds.add(f.kind)
                loop_peels += f.uses_loop
                assert type(step.rest) is AffineDiagram
                assert validate(step.rest) == [], (n, rec.word, f)
                assert known[step.rest] == rec.length - 1, (n, rec.word, f)
        # _arc_surgery builds the T1/B1 rests, including the loop sub-case
        assert kinds == {"T1", "B1", "T2", "B2"}
        assert loop_peels > 0
