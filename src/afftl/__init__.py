"""Exact computations in affine Temperley-Lieb algebras.

A cylinder-diagram calculus with a straightening algorithm, exact
Laurent-polynomial linear algebra over the diagram basis, a word-rewriting
cross-check engine, and cell-structure analysis (arc-count invariant,
two-sided/left/right cell labels, involutions, censuses).
"""

from .config import GroupConfig, InvariantError
from .diagrams import (
    AffineDiagram,
    ProductResult,
    canonical_key,
    crossing_number,
    descent_arcs,
    generator,
    generator_times,
    identity,
    is_admissible,
    length,
    multiply,
    times_generator,
    validate,
)
from .laurent import DELTA, ONE, V, LaurentPoly, delta_power
from .straightening import StraightWord, find_distinguished, is_straight, peel, stack, straighten
from .algebra import (
    AlgebraElement,
    is_reduced_word,
    mul,
    rewrite_eval,
    rewrite_mul,
)
from .cells import (
    CellLabels,
    CensusRow,
    InvolutionDecomposition,
    M_NONSQUARE,
    TwoSidedLabel,
    a_bruteforce,
    a_value,
    cancellable,
    census,
    classify_core,
    core_neighbours,
    involution_decompose,
    labelled_elements,
    labels,
    reduce_to_core,
    right_cell_involution,
)
from .explore import EnumerationRecord, enumerate_elements, oracle_counts
from .words import (
    AffinePermutation,
    BraidWitness,
    braid_witness,
    greedy_front,
    is_fc_reduced,
    left_decomposition,
    left_descents,
    right_descents,
    to_affine_permutation,
)

__version__ = "0.1.0"
