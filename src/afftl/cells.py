"""Cell analysis over the diagram basis.

The arc-count invariant a(w) (number of top short edges of the diagram,
equivalently the largest commuting block occurring as a contiguous factor
of some reduced word) governs the two-sided cell structure.  Descents that
can be cancelled by an adjacent generator are repeatedly removed to reach
a *core* element: either a product of pairwise non-adjacent generators, or
(for even n) an alternating product of the two maximal commuting sets.
Core classification yields the two-sided label; the bottom and top arc
patterns of the diagram refine it to left and right cells.  Involutions
decompose canonically as x * (commuting block) * x^-1, and each right cell
outside the non-square alternating family contains exactly one involution.

Descents are read off the heap of a reduced word (Stembridge 1996, *On
the fully commutative elements of Coxeter groups*): the left descents are
its minimal elements and the right descents its maximal ones, one scan per
side (`words.descent_mask`).  Cancellation is decided on words.  Write
w = s u for a left descent s, u being w with the first occurrence of s
removed; an adjacent t absorbs s (E_t E_w = E_u) exactly when t is a left
descent of u.  If u = t v, then E_t E_s E_t = E_t gives
E_t E_w = E_t E_v = E_u.  Conversely, a loop-free E_t E_w has the minimal
arc (t, t+1) on its top row, and the top minimal arcs of a word's diagram
are its left descents.  The right side is the mirror image, with the last
occurrence of s removed.  A commuting block that some reduced word holds as
a contiguous factor is an antichain of the heap, so a(w) is the heap's
width (`words.heap_width`); `a_bruteforce` is the definition by exhaustion.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .algebra import is_reduced_word
from .config import GroupConfig
from .diagrams import TOP, InvariantError, edge_list, generator_times, times_generator
from .laurent import json_int
from .straightening import stack, straighten
from .words import (
    Word,
    check_word,
    commutation_class,
    descent_mask,
    drop_letter,
    left_decomposition,
    mask_letters,
    perm_of,
    right_groups,
)

M_NONSQUARE = "M-nonsquare cell"


@dataclass(frozen=True)
class TwoSidedLabel:
    """Label of a two-sided cell: either Small(k) for the class of all
    size-k commuting blocks (k below half the rank), or an alternating
    label (start parity, factor count) for even n."""
    kind: str  # "small" | "alternating"
    size: int = 0
    start: str = ""  # "odd" | "even"
    factors: int = 0

    @classmethod
    def small(cls, k: int) -> TwoSidedLabel:
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        return cls("small", size=k)

    @classmethod
    def alternating(cls, start: str, factors: int) -> TwoSidedLabel:
        if start not in ("odd", "even") or factors < 1:
            raise ValueError("bad alternating label")
        return cls("alternating", start=start, factors=factors)

    def sort_key(self):
        if self.kind == "small":
            return (0, self.size, 0, "")
        return (1, self.factors, 1, self.start)

    def __str__(self) -> str:
        if self.kind == "small":
            return f"Small({self.size})"
        return f"Alt({self.start},{self.factors})"

    def to_json(self) -> dict:
        if self.kind == "small":
            return {"kind": "small", "k": self.size}
        return {"kind": "alternating", "start": self.start, "factors": self.factors}

    @classmethod
    def from_json(cls, obj: dict) -> TwoSidedLabel:
        if obj["kind"] == "small":
            return cls.small(json_int(obj["k"], "k"))
        if obj["kind"] == "alternating":
            return cls.alternating(obj["start"], json_int(obj["factors"], "factors"))
        raise ValueError(f"kind must be 'small' or 'alternating', not {obj['kind']!r}")


@dataclass(frozen=True)
class CellLabels:
    two_sided: TwoSidedLabel
    left_pattern: frozenset[tuple[int, int]]  # bottom short arcs
    right_pattern: frozenset[tuple[int, int]]  # top short arcs
    loops: int

    @property
    def a(self) -> int:
        return len(self.right_pattern)

    def to_json(self) -> dict:
        return {
            "two_sided": self.two_sided.to_json(),
            "left_pattern": sorted(self.left_pattern),
            "right_pattern": sorted(self.right_pattern),
            "loops": self.loops,
            "a": self.a,
        }


@dataclass(frozen=True)
class CancelStep:
    side: str
    s: int
    t: int


@dataclass(frozen=True)
class ReduceResult:
    word: Word
    trace: tuple[CancelStep, ...]


@dataclass(frozen=True)
class InvolutionDecomposition:
    x: Word
    core: frozenset[int]


@dataclass(frozen=True)
class CensusRow:
    two_sided: TwoSidedLabel
    left_cells: int
    right_cells: int
    elements_seen: int

    def to_json(self) -> dict:
        return {
            "two_sided": self.two_sided.to_json(),
            "left_cells": self.left_cells,
            "right_cells": self.right_cells,
            "elements_seen": self.elements_seen,
        }


def _require_reduced_fc(cfg: GroupConfig, word) -> Word:
    word = check_word(cfg, word)
    if not is_reduced_word(cfg, word):
        raise ValueError("word is not a reduced word of a fully commutative element")
    return word


def a_value(cfg: GroupConfig, word) -> int:
    """Number of top short-arc orbits of the word's diagram."""
    d = stack(cfg, word).diagram
    return sum(1 for side, _ in d.top if side == TOP) // 2


def a_bruteforce(cfg: GroupConfig, word, bound: int = 12) -> int:
    """Largest commuting block appearing as a contiguous factor of some
    word in the commutation class (the definition, by exhaustion)."""
    word = check_word(cfg, word)
    if len(word) > bound:
        raise ValueError(f"word length {len(word)} exceeds bound {bound}")
    # a letter x extends a block (a bitmask of its letters) unless the
    # block already holds x or a neighbour of x
    clash = [m | 1 << x for x, m in enumerate(cfg.masks)]
    best = 0
    for u in commutation_class(cfg, word):
        for a in range(len(u) - best):
            block = size = 0
            for x in u[a:]:
                if block & clash[x]:
                    break
                block |= 1 << x
                size += 1
            if size > best:
                best = size
    return best


def cancellable(cfg: GroupConfig, word, s: int, side: str) -> int | None:
    """The first t in `cfg.neighbours_of(s)` absorbing the descent s of a
    reduced FC word w, if any: E_t E_w = E_u on the left, E_w E_t = E_u on
    the right, where u is w with s removed.

    Decided without diagrams: t absorbs s exactly when t is a descent of u
    on the same side.  If u = t v, then E_t E_s E_t = E_t gives
    E_t E_w = E_t E_v = E_u; conversely a loop-free E_t E_w has the minimal
    top arc (t, t+1), and top minimal arcs are the left descents.
    """
    word = check_word(cfg, word)
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    cfg.check_generator(s)
    left = side == "left"
    if not descent_mask(cfg.masks, word, left) >> s & 1:
        raise ValueError(f"{s} is not a {side} descent")
    return _absorber(cfg.masks, word, s, left)


def _absorber(masks: tuple[int, ...], word: Word, s: int, left: bool) -> int | None:
    # the smallest neighbour of s that is a descent of the word without s
    found = descent_mask(masks, drop_letter(word, s, left), left) & masks[s]
    return (found & -found).bit_length() - 1 if found else None


def _cancel_options(
    cfg: GroupConfig, word: Word, sides: tuple[str, ...] = ("left", "right")
) -> list[CancelStep]:
    # by side in the given order, then by descent: seeded choices rely on it
    masks = cfg.masks
    return [
        CancelStep(side, s, t)
        for side in sides
        for s in mask_letters(descent_mask(masks, word, side == "left"))
        if (t := _absorber(masks, word, s, side == "left")) is not None
    ]


def _reduce(
    cfg: GroupConfig,
    w: Word,
    rng: random.Random | None = None,
    sides: tuple[str, ...] = ("left", "right"),
) -> ReduceResult:
    # reduce_to_core on a word already checked to be reduced FC
    trace: list[CancelStep] = []
    while options := _cancel_options(cfg, w, sides):
        step = options[0] if rng is None else rng.choice(options)
        w = drop_letter(w, step.s, step.side == "left")
        trace.append(step)
    return ReduceResult(w, tuple(trace))


def reduce_to_core(cfg: GroupConfig, word, rng: random.Random | None = None) -> ReduceResult:
    """Cancel descents until none is cancellable.  Deterministic order
    (left side first, smallest descent) unless an RNG is supplied."""
    return _reduce(cfg, _require_reduced_fc(cfg, word), rng)


def is_core(cfg: GroupConfig, word) -> bool:
    """No descent on either side is cancellable."""
    w = _require_reduced_fc(cfg, word)
    return not _cancel_options(cfg, w)


def alternating_word(cfg: GroupConfig, start: str, factors: int) -> Word:
    """Reduced word of the alternating product of the two maximal
    commuting sets, beginning with the given parity."""
    odd, even = cfg.alternating_sets()
    first, second = (odd, even) if start == "odd" else (even, odd)
    out: list[int] = []
    for i in range(factors):
        out.extend(sorted(first if i % 2 == 0 else second))
    return tuple(out)


def classify_core(cfg: GroupConfig, word) -> TwoSidedLabel:
    """Two-sided label of a core element: the block structure of its left
    decomposition is a single commuting set, or an alternation of the two
    maximal ones."""
    groups = left_decomposition(cfg, word).groups
    if not groups:
        return TwoSidedLabel.small(0)
    if len(groups) == 1:
        t = groups[0]
        if 2 * len(t) < cfg.n:
            return TwoSidedLabel.small(len(t))
        odd, even = cfg.alternating_sets()
        if t == odd:
            return TwoSidedLabel.alternating("odd", 1)
        if t == even:
            return TwoSidedLabel.alternating("even", 1)
        raise ValueError("not a core element")
    if cfg.n % 2:
        raise ValueError("not a core element")
    odd, even = cfg.alternating_sets()
    for g1, g2 in zip(groups, groups[1:]):
        if {g1, g2} != {odd, even}:
            raise ValueError("not a core element")
    start = "odd" if groups[0] == odd else "even"
    return TwoSidedLabel.alternating(start, len(groups))


def core_neighbours(cfg: GroupConfig, word) -> frozenset[tuple[int, Word]]:
    """All pairs (s, q') of core elements q' with E_q = E_s E_q' E_s,
    found by exhaustive engine search over candidate cores."""
    w = _require_reduced_fc(cfg, word)
    if not is_core(cfg, w):
        raise ValueError("not a core element")
    n = cfg.n
    target = stack(cfg, w).diagram
    bound = len(w) + 2
    cands: list[Word] = [tuple(sorted(t)) for t in cfg.commuting_sets()]
    if n % 2 == 0:
        max_factors = (2 * bound) // n
        for start in ("odd", "even"):
            for f in range(2, max_factors + 1):
                cands.append(alternating_word(cfg, start, f))
    out = set()
    for s in cfg.generators():
        for cw in cands:
            r1 = generator_times(s, stack(cfg, cw).diagram)
            if r1.contractible:
                continue
            r2 = times_generator(r1.diagram, s)
            if r2.contractible == 0 and r2.diagram == target:
                out.add((s, cw))
    return frozenset(out)


def labels(cfg: GroupConfig, word) -> CellLabels:
    """Cell labels of an element: elements share a left cell iff the
    two-sided label and the bottom arc pattern agree, a right cell iff the
    label and the top pattern agree, a two-sided cell iff the label agrees."""
    w = _require_reduced_fc(cfg, word)
    d = stack(cfg, w).diagram
    core = _reduce(cfg, w).word
    top_arcs, bottom_arcs, _ = edge_list(d)
    return CellLabels(
        two_sided=classify_core(cfg, core),
        left_pattern=frozenset(bottom_arcs),
        right_pattern=frozenset(top_arcs),
        loops=d.loops,
    )


def involution_decompose(
    cfg: GroupConfig, word, rng: random.Random | None = None
) -> InvolutionDecomposition:
    """Canonical decomposition x * (commuting block) * x^-1 of an
    involution, by repeatedly conjugating away a length-reducing left
    descent (smallest by default)."""
    w = _require_reduced_fc(cfg, word)
    p = perm_of(cfg, w)
    if not p.is_involution():
        raise ValueError("element is not an involution")
    masks = cfg.masks
    x: list[int] = []
    while any(masks[a] >> b & 1 for a in w for b in w):
        options = []
        for s in mask_letters(descent_mask(masks, w, True)):
            rest = drop_letter(w, s, True)
            if descent_mask(masks, rest, False) >> s & 1:
                options.append((s, drop_letter(rest, s, False)))
        if not options:
            raise InvariantError("involution with entangled support but no conjugating descent")
        s, w = options[0] if rng is None else rng.choice(options)
        x.append(s)
    core = frozenset(w)
    if len(w) != len(core):
        raise InvariantError("terminal element is not a commuting block")
    full = tuple(x) + tuple(sorted(core)) + tuple(reversed(x))
    if perm_of(cfg, full).length() != len(full):
        raise InvariantError("decomposition is not reduced")
    if perm_of(cfg, full) != p:
        raise InvariantError("decomposition does not multiply back")
    return InvolutionDecomposition(tuple(x), core)


def right_cell_involution(cfg: GroupConfig, word) -> Word | str:
    """The canonical involution sharing the element's right cell, or the
    M_NONSQUARE marker for the alternating cells without involutions."""
    w = _reduce(cfg, _require_reduced_fc(cfg, word), sides=("right",)).word
    groups = right_groups(cfg, w)
    half = cfg.n // 2
    if groups and cfg.n % 2 == 0 and len(groups[-1]) == half:
        j = len(groups)
        while j > 0 and len(groups[j - 1]) == half:
            j -= 1
        if (len(groups) - j) % 2 == 0:
            return M_NONSQUARE
        head, tail = groups[:j], groups[j:]
    else:
        head, tail = groups[:-1], groups[-1:]
    y = tuple(s for g in head for s in sorted(g))
    q = tuple(s for g in tail for s in sorted(g))
    d = y + q + tuple(reversed(y))
    p = perm_of(cfg, d)
    if p.length() != len(d):
        raise InvariantError("involution candidate is not reduced")
    if not p.is_involution():
        raise InvariantError("involution candidate is not an involution")
    return straighten(stack(cfg, d).diagram).letters


def census(cfg: GroupConfig, max_len: int, cap: int | None = None) -> list[CensusRow]:
    """Enumerate all elements up to the length horizon and count, per
    two-sided label, the distinct left and right cell labels observed."""
    from .explore import enumerate_elements  # explore imports this module

    agg: dict[TwoSidedLabel, list] = {}
    for rec in enumerate_elements(cfg, max_len, with_labels=True, cap=cap):
        lab = rec.labels
        entry = agg.setdefault(lab.two_sided, [set(), set(), 0])
        entry[0].add(lab.left_pattern)
        entry[1].add(lab.right_pattern)
        entry[2] += 1
    rows = [
        CensusRow(label, len(v[0]), len(v[1]), v[2])
        for label, v in agg.items()
    ]
    rows.sort(key=lambda r: r.two_sided.sort_key())
    return rows
