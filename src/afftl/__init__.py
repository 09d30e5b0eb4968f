"""Exact computations in affine Temperley-Lieb algebras.

A cylinder-diagram calculus with a straightening algorithm, exact
Laurent-polynomial linear algebra over the diagram basis, a word-rewriting
cross-check engine, and cell-structure analysis (arc-count invariant,
two-sided/left/right cell labels, involutions, censuses).

`import afftl` loads no submodule: a public name is resolved on first
access (PEP 562), by importing the submodule that defines it.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Public name -> the submodule it is read from.
_EXPORTS = {
    name: module
    for module, names in {
        "config": ("GroupConfig", "InvariantError"),
        "diagrams": (
            "AffineDiagram", "ProductResult", "canonical_key", "crossing_number", "descent_arcs",
            "generator", "generator_times", "identity", "is_admissible", "length", "multiply",
            "times_generator", "validate",
        ),
        "laurent": ("DELTA", "ONE", "V", "LaurentPoly", "delta_power"),
        "straightening": (
            "StraightWord", "find_distinguished", "is_straight", "peel", "stack", "straighten",
        ),
        "algebra": ("AlgebraElement", "mul", "rewrite_eval", "rewrite_mul"),
        "cells": (
            "CellLabels", "CensusRow", "InvolutionDecomposition", "M_NONSQUARE", "TwoSidedLabel",
            "a_bruteforce", "a_value", "cancellable", "census", "classify_core", "core_neighbours",
            "involution_decompose", "labelled_elements", "labels", "reduce_to_core",
            "right_cell_involution",
        ),
        "explore": ("EnumerationRecord", "enumerate_elements", "oracle_counts"),
        "words": (
            "AffinePermutation", "BraidWitness", "braid_witness", "greedy_front", "heap_is_fc",
            "left_decomposition", "left_descents", "right_descents",
        ),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
