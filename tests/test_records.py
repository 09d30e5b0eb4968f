"""One record idiom: every value type is a `typing.NamedTuple`.  Its
constructor checks nothing, except `GroupConfig`, which checks `--n` in
the `__new__` of a subclass of its NamedTuple base; every other value is
checked where it enters.  Walks every afftl module so a new dataclass, or
a record moved back to one, shows up here.
"""

import dataclasses
import importlib
import pkgutil

import afftl

VALIDATING = set()

# Field names in order, and the defaults, as the records had them as
# frozen dataclasses.
RECORDS = {
    "config.GroupConfig": (("n",), {}),
    "cells.TwoSidedLabel": (("kind", "size", "start", "factors"), {"size": 0, "start": "", "factors": 0}),
    "cells.CellLabels": (("two_sided", "left_pattern", "right_pattern", "loops"), {}),
    "cells.InvolutionDecomposition": (("x", "core"), {}),
    "cells.CensusRow": (("two_sided", "left_cells", "right_cells", "elements_seen"), {}),
    "diagrams.Invariants": (("nu", "length", "short_arcs"), {}),
    "explore.EnumerationRecord": (("word", "diagram", "labels"), {"labels": None}),
    "laurent.LaurentPoly": (("terms",), {"terms": ()}),
    "straightening.CongruenceFinding": (("cls", "kind", "cover"), {}),
    "straightening.PeelStep": (("letter", "rest"), {}),
    "straightening.StraightWord": (("letters", "core"), {}),
    "words.AffinePermutation": (("n", "window"), {}),
    "words.BraidWitness": (("w1", "s", "w2"), {}),
}


def _classes():
    for info in pkgutil.iter_modules(afftl.__path__):
        module = importlib.import_module(f"afftl.{info.name}")
        for name, obj in vars(module).items():
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                yield f"{info.name}.{name}", obj


def test_only_validating_types_are_dataclasses():
    found = {name for name, cls in _classes() if dataclasses.is_dataclass(cls)}
    assert found == VALIDATING


def test_records_are_named_tuples():
    classes = dict(_classes())
    for name, (fields, defaults) in RECORDS.items():
        cls = classes[name]
        assert issubclass(cls, tuple), name
        assert cls._fields == fields, name
        assert cls._field_defaults == defaults, name


def test_repr_names_the_fields():
    from afftl.cells import TwoSidedLabel
    from afftl.laurent import DELTA
    from afftl.words import AffinePermutation

    assert repr(TwoSidedLabel.small(2)) == "TwoSidedLabel(kind='small', size=2, start='', factors=0)"
    assert repr(DELTA) == "LaurentPoly(terms=((-1, 1), (1, 1)))"
    assert repr(AffinePermutation.identity(3)) == "AffinePermutation(n=3, window=(1, 2, 3))"
