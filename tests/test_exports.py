"""The names `afftl` exports, resolved lazily from its submodules.

`EXPORTED` pins the public names the package bound when it still imported
every submodule eagerly, less the retired alias `to_affine_permutation`
(`perm_of` is the function), and with `heap_is_fc` in place of the two
reduced-FC tests that moved to `tests/oracles.py`, `is_reduced_word` and
`is_fc_reduced`; the lazy table must offer exactly these, each the very
object its submodule defines.
"""

import importlib

import pytest

import afftl

EXPORTED = {
    "config": ["GroupConfig", "InvariantError"],
    "diagrams": [
        "AffineDiagram", "ProductResult", "canonical_key", "crossing_number", "descent_arcs",
        "generator", "generator_times", "identity", "is_admissible", "length", "multiply",
        "times_generator", "validate",
    ],
    "laurent": ["DELTA", "ONE", "V", "LaurentPoly", "delta_power"],
    "straightening": [
        "StraightWord", "find_distinguished", "is_straight", "peel", "stack", "straighten",
    ],
    "algebra": ["AlgebraElement", "mul", "rewrite_eval", "rewrite_mul"],
    "cells": [
        "CellLabels", "CensusRow", "InvolutionDecomposition", "M_NONSQUARE", "TwoSidedLabel",
        "a_bruteforce", "a_value", "cancellable", "census", "classify_core", "core_neighbours",
        "involution_decompose", "labelled_elements", "labels", "reduce_to_core",
        "right_cell_involution",
    ],
    "explore": ["EnumerationRecord", "enumerate_elements", "oracle_counts"],
    "words": [
        "AffinePermutation", "BraidWitness", "braid_witness", "greedy_front", "heap_is_fc",
        "left_decomposition", "left_descents", "right_descents",
    ],
}
NAMES = sorted(name for names in EXPORTED.values() for name in names)


def test_the_table_offers_exactly_the_pinned_names():
    assert len(NAMES) == len(set(NAMES)) == 57
    assert sorted(afftl._EXPORTS) == afftl.__all__ == NAMES


@pytest.mark.parametrize("module, name", [(m, n) for m, names in EXPORTED.items() for n in names])
def test_each_name_is_its_submodules_object(module, name):
    assert getattr(afftl, name) is getattr(importlib.import_module(f"afftl.{module}"), name)


def test_retired_aliases_are_gone():
    from afftl import algebra, straightening, words

    for module in (afftl, algebra, straightening):
        assert not hasattr(module, "is_reduced_word")
    for module in (afftl, words):
        assert not hasattr(module, "is_fc_reduced")
    assert not hasattr(words, "to_affine_permutation")
    assert not hasattr(afftl, "to_affine_permutation")


def test_dir_and_star_import_see_every_name():
    assert set(NAMES) <= set(dir(afftl))
    namespace = {}
    exec("from afftl import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(NAMES)


def test_unknown_name_raises_attribute_error_naming_the_module():
    with pytest.raises(AttributeError, match=r"module 'afftl' has no attribute 'support'"):
        afftl.support
    assert not hasattr(afftl, "_no_such_name")
