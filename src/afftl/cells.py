"""Cell analysis over the diagram basis.

The arc-count invariant a(w) (number of top short edges of the diagram,
equivalently the largest commuting block occurring as a contiguous factor
of some reduced word) governs the two-sided cell structure.  Descents that
can be cancelled by an adjacent generator are repeatedly removed to reach
a *core* element: either a product of pairwise non-adjacent generators, or
(for even n) an alternating product of the two maximal commuting sets.
The diagram carries all three cell labels (`cell_labels`, below): the
two-sided label, which the core's classification gives too, refined by the
bottom arc pattern to a left cell and by the top one to a right cell.
Involutions decompose canonically as x * (commuting block) * x^-1.

Descents are read off the heap of a reduced word (Stembridge 1996, *On
the fully commutative elements of Coxeter groups*): the left descents are
its minimal elements and the right descents its maximal ones.  One scan
per side (`words.absorbers`) finds the descents of that side, ascending,
each with the neighbour that absorbs it.  A function taking a word
checks once that it is reduced FC, by the heap criterion
(`words.heap_is_fc`).  Cancellation is decided on words.  Write w = s u
for a left descent s, u being w with the first occurrence of s
removed; an adjacent t absorbs s (E_t E_w = E_u) exactly
when t is a left descent of u.  If u = t v, then E_t E_s E_t = E_t gives
E_t E_w = E_t E_v = E_u.  Conversely, a loop-free E_t E_w has the minimal
arc (t, t+1) on its top row, and the top minimal arcs of a word's diagram
are its left descents.  The right side is the mirror image, with the last
occurrence of s removed.  t is a descent of u exactly when the first t
has one lower neighbour occurrence, the first s.  An involution w = s u s
sheds a letter s that is a descent on both sides and occurs twice until
every letter is a left descent: its heap is an antichain.  A commuting
block that some reduced word holds as a contiguous factor is an antichain
of the heap, so a(w) is the heap's width (`words.heap_width`);
`a_bruteforce` is the definition by exhaustion.

`cell_labels` reads all three labels off the diagram in one edge pass.
With t through strands, t > 0 gives Small((n - t)/2); t = 0 gives
Alt(start, loops + 1), start "even" exactly when an odd number of top arcs
(p, q) cross the seam, q > n.  This is the label of the core, because:
1. a generator action never adds a through strand and never removes a
   winding loop.  A cancellation step has E_t E_w = E_u and E_w = E_s E_u,
   so w and u have the same t and the same loop count;
2. with t = 0, a left step swaps two top arcs for (t, t+1) and the join of
   their far ends, changing the number of arcs over every gap by 0 or 2, so
   the parity of arcs crossing the seam holds.  A right step leaves the top
   row alone;
3. Small(k) is straight, with n - 2k through strands.  Alt(start, f) has no
   through strands, f - 1 winding loops and its first factor's top arcs:
   none crosses the seam for odd, and (n, n+1) does for even.
`verify` checks it against `classify_core(reduce_to_core(w))`.

`right_cell_involution` reads a right cell's involution off the diagram.
An involution's diagram is mirror-symmetric (`explore`), so one in w's
right cell has w's top arcs, their mirror image below, w's t and, with
t = 0, w's loop count.  Uniqueness: its verticals keep their cyclic
order, so the j-th top end meets the (j + r)-th bottom end for one offset
r; the mirror has offset -r, so r = 0, leaving `diagrams.top_involution`.
Existence: that diagram crosses each line twice per top arc over it and
once per loop, so it is admissible unless t = 0 and the loop count is odd,
that is in the cells Alt(start, f) with f even, which hold no involution
(`M_NONSQUARE`); else its labels, read off the same arcs, through strands
and loops, put it in w's right cell.

`core_neighbours` reads its candidates off the generator's window
W = {s-1, s, s+1}.  For a commuting set T, E_s E_T E_s is delta^2 E_T if
s is in T, delta E_{T+s} if T misses W, E_{T-t+s} if T meets W in one
neighbour t (E_s E_t E_s = E_s), and E_{s T s}, whose heap is no
antichain, if T holds both.  So a straight q's straight neighbours agree
with q off W: q minus W joined with {}, {s-1}, {s}, {s+1} or {s-1, s+1}.
It has no alternating one: an action never removes a winding loop.  An
alternating q, of f >= 2 factors, f - 1 loops and length fn/2, has no
neighbour q'.  l(q) <= l(q') + 2 and q' has at most f - 1 loops, so q'
alternates f' <= f factors (f' = 1 for a maximal commuting set, smaller
ones being too short) with (f - f') n/2 <= 2.  If s is in q''s first
factor, E_s E_q' closes a contractible loop.  Else both neighbours of s
are in that factor, so s q' is reduced FC (`words.heap_is_fc`), and either s
is in q''s last factor, closing a loop on the right, or s q' s is reduced
FC of length l(q') + 2.  That needs n = 4 and f' = f - 1, and then s q' s
has the one right descent s, where q has two.
"""

from __future__ import annotations

import random
from typing import Iterator, NamedTuple

from .config import GroupConfig, InvariantError
from .diagrams import (
    AffineDiagram,
    edge_list,
    generator_times,
    is_admissible,
    is_straight,
    short_arc_count,
    times_generator,
    top_involution,
)
from .explore import EnumerationRecord, enumerate_elements
from .straightening import stack, straighten
from .words import (
    Word,
    absorbers,
    check_word,
    commutation_class,
    drop_letter,
    heap_is_fc,
    left_decomposition,
    perm_of,
    reduced_perm,
)

M_NONSQUARE = "M-nonsquare cell"


class TwoSidedLabel(NamedTuple):
    """Label of a two-sided cell: either Small(k) for the class of all
    size-k commuting blocks (k below half the rank), or an alternating
    label (start parity, factor count) for even n."""
    kind: str  # "small" | "alternating"
    size: int = 0
    start: str = ""  # "odd" | "even"
    factors: int = 0

    @classmethod
    def small(cls, k: int) -> TwoSidedLabel:
        return cls("small", size=k)

    @classmethod
    def alternating(cls, start: str, factors: int) -> TwoSidedLabel:
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


class CellLabels(NamedTuple):
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


class InvolutionDecomposition(NamedTuple):
    x: Word
    core: frozenset[int]


class CensusRow(NamedTuple):
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
    if not heap_is_fc(cfg, word):
        raise ValueError("word is not a reduced word of a fully commutative element")
    return word


def a_value(cfg: GroupConfig, word) -> int:
    """Number of top short-arc orbits of the word's diagram (top and
    bottom arcs balance)."""
    return short_arc_count(stack(cfg, word).diagram) // 2


def a_bruteforce(cfg: GroupConfig, word, bound: int = 12) -> int:
    """Largest commuting block appearing as a contiguous factor of some
    word in the commutation class (the definition, by exhaustion)."""
    word = check_word(cfg, word)
    if len(word) > bound:
        raise ValueError(f"word length {len(word)} exceeds bound {bound}")
    # a letter x extends a block (a bitmask of its letters) unless the
    # block already holds x or a neighbour of x
    clash = {x: 1 << x | sum(1 << y for y in cfg.neighbours_of(x)) for x in set(word)}
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
    the right, where u is w with s removed.  Decided on the word's heap
    (see the module docstring)."""
    word = check_word(cfg, word)
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    cfg.check_generator(s)
    t = absorbers(cfg, word, side == "left").get(s)
    if t is None:
        raise ValueError(f"{s} is not a {side} descent")
    return t or None


def _cancel_steps(cfg: GroupConfig, word: Word) -> list[tuple[int, bool]]:
    """The (s, left) steps of a reduced FC word: its cancellable left
    descents s, ascending, then its right ones; seeded choices rely on
    this order."""
    return [(s, left) for left in (True, False)
            for s, t in absorbers(cfg, word, left).items() if t]


def reduce_to_core(cfg: GroupConfig, word, rng: random.Random | None = None) -> Word:
    """The core word left when descents are cancelled until none is
    cancellable, each step dropping one letter.  Deterministic order (left
    side first, smallest descent) unless an RNG is supplied."""
    w = _require_reduced_fc(cfg, word)
    while steps := _cancel_steps(cfg, w):
        s, left = steps[0] if rng is None else rng.choice(steps)
        w = drop_letter(w, s, left)
    return w


def classify_core(cfg: GroupConfig, word) -> TwoSidedLabel:
    """Two-sided label of a core element: the block structure of its left
    decomposition is a single commuting set, or an alternation of the two
    maximal ones."""
    groups = left_decomposition(cfg, word)
    if not groups:
        return TwoSidedLabel.small(0)
    if len(groups) == 1 and 2 * len(groups[0]) < cfg.n:
        return TwoSidedLabel.small(len(groups[0]))
    if cfg.n % 2:
        raise ValueError("not a core element")
    odd, even = cfg.alternating_sets()
    pairs = zip(groups, groups[1:])
    if groups[0] not in (odd, even) or any({g1, g2} != {odd, even} for g1, g2 in pairs):
        raise ValueError("not a core element")
    return TwoSidedLabel.alternating("odd" if groups[0] == odd else "even", len(groups))


def core_neighbours(cfg: GroupConfig, word) -> frozenset[tuple[int, Word]]:
    """All pairs (s, q') of core elements q' with E_q = E_s E_q' E_s.  An
    alternating q has none; for a straight q the engine decides every
    commuting set that agrees with q off s's window (module docstring),
    even those that cannot qualify, so a fault in the actions' loops shows."""
    w = _require_reduced_fc(cfg, word)
    if _cancel_steps(cfg, w):
        raise ValueError("not a core element")
    n = cfg.n
    target = stack(cfg, w).diagram
    core = is_straight(target)
    if core is None:
        return frozenset()
    out = set()
    for s in cfg.generators():
        a, b = cfg.neighbours_of(s)
        rest = core - {a, s, b}
        for x in ((), (a,), (s,), (b,), (a, b)):
            cand = rest.union(x)
            if any(i % n + 1 in cand for i in cand):
                continue
            cw = tuple(sorted(cand))
            d = generator_times(s, stack(cfg, cw).diagram)
            if d is not None and times_generator(d, s) == target:
                out.add((s, cw))
    return frozenset(out)


def cell_labels(d: AffineDiagram) -> CellLabels:
    """Cell labels read off a diagram (see the module docstring): elements
    share a left cell iff the two-sided label and the bottom arc pattern
    agree, a right cell iff the label and the top pattern agree."""
    top_arcs, bottom_arcs, verticals = edge_list(d)
    if verticals:
        two_sided = TwoSidedLabel.small((d.n - len(verticals)) // 2)
    else:
        seam = sum(q > d.n for _, q in top_arcs) % 2
        two_sided = TwoSidedLabel.alternating("even" if seam else "odd", d.loops + 1)
    return CellLabels(two_sided, frozenset(bottom_arcs), frozenset(top_arcs), d.loops)


def labels(cfg: GroupConfig, word) -> CellLabels:
    """Cell labels of the element a reduced FC word names."""
    return cell_labels(stack(cfg, _require_reduced_fc(cfg, word)).diagram)


def labelled_elements(cfg: GroupConfig, max_len: int) -> Iterator[EnumerationRecord]:
    """`explore.enumerate_elements` with each record's `labels`."""
    for rec in enumerate_elements(cfg, max_len):
        yield rec._replace(labels=cell_labels(rec.diagram))


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
    x: list[int] = []
    while len(left := absorbers(cfg, w, True)) < len(w):
        right = absorbers(cfg, w, False)
        options = [s for s in left if s in right and w.count(s) > 1]
        if not options:
            raise InvariantError("involution with entangled support but no conjugating descent")
        s = options[0] if rng is None else rng.choice(options)
        w = drop_letter(drop_letter(w, s, True), s, False)
        x.append(s)
    core = frozenset(w)  # w is an antichain: distinct, commuting letters
    full = tuple(x) + tuple(sorted(core)) + tuple(reversed(x))
    q = reduced_perm(cfg, full)
    if q is None:
        raise InvariantError("decomposition is not reduced")
    if q != p:
        raise InvariantError("decomposition does not multiply back")
    return InvolutionDecomposition(tuple(x), core)


def right_cell_involution(cfg: GroupConfig, word) -> Word | str:
    """The canonical word of the one involution in the element's right
    cell, or M_NONSQUARE for the cells holding none (module docstring)."""
    d = stack(cfg, _require_reduced_fc(cfg, word)).diagram
    inv = top_involution(d)
    if not is_admissible(inv):
        return M_NONSQUARE
    want, got = cell_labels(d), cell_labels(inv)
    if (got.two_sided, got.right_pattern) != (want.two_sided, want.right_pattern):
        raise InvariantError("mirrored top row left the right cell")
    return straighten(inv).letters


def census(cfg: GroupConfig, max_len: int) -> list[CensusRow]:
    """Enumerate all elements up to the length horizon and count, per
    two-sided label, the distinct left and right cell labels observed."""
    agg: dict[TwoSidedLabel, list] = {}
    for rec in labelled_elements(cfg, max_len):
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
