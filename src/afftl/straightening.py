"""Conversion between words and admissible diagrams.

`stack` evaluates a word as a product of generator diagrams.  The reverse
direction peels one generator at a time off a non-straight admissible
diagram: a minimal arc that is covered by another arc (or coexists with a
winding loop) splits off on its own row, and otherwise a slanted strand
next to a minimal arc is shortened by multiplying with a generator.  The
four peel kinds are tried in the fixed priority T1 > B1 > T2 > B2, with
the smallest qualifying class as tie-break, which makes the produced word
canonical; the search stops at the first kind that qualifies.  Every peel
re-stacks the emitted letter and checks that the original diagram is
recovered with no contractible loop; a failed check raises InvariantError.
Generator products here all use the local action of `afftl.diagrams`.

A peel depends only on the current diagram, so once a peel leaves a rest
of length at most `_PREFIX_REUSE`, `straighten` returns the rest's cached
word with the peeled letters on its ends.  Longer diagrams peel down to
that length first, so at most `_PREFIX_REUSE` calls of `straighten` nest.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .config import GroupConfig
from .diagrams import (
    TOP,
    BOT,
    AffineDiagram,
    InvariantError,
    ProductResult,
    class_of,
    descent_arcs,
    edge_list,
    identity,
    is_admissible,
    length,
    partner,
    short_arc_count,
    times_generator,
    _generator_action,
    _set_entry,
)
from .words import check_word


@dataclass(frozen=True)
class CongruenceFinding:
    cls: int
    kind: str  # "T1" | "B1" | "T2" | "B2"
    cover: tuple[int, int] | None  # innermost covering arc lift (T1/B1 case a)
    uses_loop: bool = False  # T1/B1 case b


@dataclass(frozen=True)
class PeelStep:
    letter: int
    end: str  # "left" | "right"
    rest: AffineDiagram


@dataclass(frozen=True)
class StraightWord:
    letters: tuple[int, ...]
    core: frozenset[int]


def stack(cfg: GroupConfig, word) -> ProductResult:
    """Left-to-right product of generator diagrams (first letter on top)."""
    return _stack_cached(cfg.n, check_word(cfg, word))


# Longest word stacked onto the cached stack of word[:-1], and longest rest
# straightened through its cached word; also the most calls of either nested.
_PREFIX_REUSE = 64


@lru_cache(maxsize=1 << 18)
def _stack_cached(n: int, word: tuple[int, ...]) -> ProductResult:
    # Callers mostly stack words one letter longer than words stacked
    # before, so a short word is one generator step on the cached stack of
    # word[:-1].  A longer word folds its letters one by one onto the cached
    # stack of its first _PREFIX_REUSE letters: the cost stays linear in the
    # word and no input can reach the recursion limit.
    if not word:
        return ProductResult(identity(n), 0)
    cut = len(word) - 1 if len(word) <= _PREFIX_REUSE else _PREFIX_REUSE
    prev = _stack_cached(n, word[:cut])
    d, contractible = prev.diagram, prev.contractible
    for s in word[cut:]:
        r = times_generator(d, s)
        d, contractible = r.diagram, contractible + r.contractible
    return ProductResult(d, contractible)


def is_straight(d: AffineDiagram) -> frozenset[int] | None:
    """The commuting generator set S when d is the diagram of a product of
    pairwise non-adjacent generators (empty set for the identity); None
    otherwise."""
    if d.loops:
        return None
    # Read the windows: every class is an unshifted vertical, or an end of
    # a minimal arc mirrored on the bottom row; the right ends must be
    # exactly the partners of the left ends.
    lefts, rights = set(), set()
    for i, (t, b) in enumerate(zip(d.top, d.bottom), 1):
        side, p = t
        if side == BOT:
            if p != i or b != (TOP, i):
                return None
        elif p - i in (1, -1) and b == (BOT, p):
            (lefts if p > i else rights).add(i)
        else:
            return None
    if {i % d.n + 1 for i in lefts} != rights:
        return None
    return frozenset(lefts)


def _innermost_cover(n: int, arcs, k: int) -> tuple[int, int] | None:
    """Among arc lifts strictly covering positions (k, k+1), the one with
    the largest left endpoint; None if no arc covers."""
    best = None
    for p, q in arcs:
        # the lift with the largest left endpoint below k covers if any does
        m = (k - 1 - p) // n
        lo, hi = p + m * n, q + m * n
        if hi > k + 1 and (best is None or lo > best[0]):
            best = (lo, hi)
    return best


def find_distinguished(d: AffineDiagram) -> CongruenceFinding:
    """Highest-priority peelable class of an admissible non-straight diagram."""
    if not is_admissible(d):
        raise ValueError("diagram is not admissible")
    if is_straight(d) is not None:
        raise ValueError("diagram is straight; nothing to peel")
    return _distinguished(d)


def _distinguished(d: AffineDiagram) -> CongruenceFinding:
    """find_distinguished for a d already known admissible, not straight."""
    top_arcs, bottom_arcs, _ = edge_list(d)
    for side, arcs in ((TOP, top_arcs), (BOT, bottom_arcs)):
        for k in sorted(descent_arcs(d, side)):
            cover = _innermost_cover(d.n, arcs, k)
            if cover is not None or d.loops:
                return CongruenceFinding(k, side + "1", cover, uses_loop=cover is None)
    for side, other in ((TOP, BOT), (BOT, TOP)):
        # A strand entering at the node left of a minimal arc and exiting
        # past the arc's far end marks the arc as slideable (T2 / B2).
        slides = [class_of(d.n, k - 1) for k in descent_arcs(d, side)
                  if (end := partner(d, side, k - 1))[0] == other and end[1] >= k + 1]
        if slides:
            return CongruenceFinding(min(slides), side + "2", None)
    raise InvariantError("no peelable class found on a non-straight admissible diagram")


def _arc_surgery(d: AffineDiagram, side: str, remove_add) -> AffineDiagram:
    entries = list(d.top if side == TOP else d.bottom)
    for p, q in remove_add:
        _set_entry(d.n, entries, p, (side, q))
        _set_entry(d.n, entries, q, (side, p))
    return d._replace(**{"top" if side == TOP else "bottom": tuple(entries)})


def peel(d: AffineDiagram, f: CongruenceFinding) -> PeelStep:
    """Split one generator off d at the distinguished class.

    The removed letter stacks back (on the reported end) to reproduce d
    exactly, the length drops by one, and the number of short horizontal
    edges is preserved; all three facts are checked.
    """
    if f.kind not in ("T1", "B1", "T2", "B2"):
        raise ValueError(f"unknown peel kind {f.kind!r}")
    side = f.kind[0]  # d's row the letter touches: the top row is the word's left end
    if f.kind[1] == "1":
        k = letter = f.cls
        if f.cover is not None:
            rest = _arc_surgery(d, side, [(f.cover[0], k), (k + 1, f.cover[1])])
        elif not d.loops:
            raise InvariantError("loop peel on a diagram without loops")
        else:
            rest = _arc_surgery(d, side, [(k + 1, k + d.n)])._replace(loops=d.loops - 1)
    else:
        r = _generator_action(d, f.cls, side)
        if r.contractible:
            raise InvariantError("slide peel created a contractible loop")
        rest = r.diagram
        letter = class_of(d.n, f.cls + 1)
    back = _generator_action(rest, letter, side)
    if back.contractible or back.diagram != d:
        raise InvariantError(f"peel reconstruction failed at class {f.cls} kind {f.kind}")
    if length(rest) != length(d) - 1:
        raise InvariantError("peel did not drop length by one")
    if short_arc_count(rest) != short_arc_count(d):
        raise InvariantError("peel changed the short-edge count")
    return PeelStep(letter, "left" if side == TOP else "right", rest)


@lru_cache(maxsize=1 << 16)
def straighten(d: AffineDiagram) -> StraightWord:
    """Canonical reduced word evaluating to d: peel until straight, then
    emit the commuting core in increasing class order."""
    if not is_admissible(d):
        raise ValueError("only admissible diagrams straighten")
    left, right, cur = [], [], d
    # cur stays admissible: each peel checks its rest's length, defined only then
    while (core := is_straight(cur)) is None:
        step = peel(cur, _distinguished(cur))
        (left if step.end == "left" else right).append(step.letter)
        cur = step.rest
        if length(cur) <= _PREFIX_REUSE:
            rest = straighten(cur)
            middle, core = rest.letters, rest.core
            break
    else:
        middle = tuple(sorted(core))
    word = tuple(left) + middle + tuple(reversed(right))
    check = _stack_cached(d.n, word)
    if check.contractible or check.diagram != d:
        raise InvariantError("straightened word does not re-stack")
    if len(word) != length(d):
        raise InvariantError("straightened word is not reduced")
    return StraightWord(word, core)
