"""Conversion between words and admissible diagrams.

`stack` evaluates a word as a product of generator diagrams.  The reverse
direction peels one generator at a time off a non-straight admissible
diagram, at the class `find_distinguished` picks: a minimal arc that is
covered by another arc (or coexists with a winding loop) splits off on
its own row, and otherwise a slanted strand next to a minimal arc is
shortened by multiplying with a generator.  The four peel kinds are tried
in the fixed priority T1 > B1 > T2 > B2, with the smallest qualifying
class as tie-break, which makes the produced word canonical; the search
stops at the first kind that qualifies.  Every peel re-stacks the emitted
letter and checks that the original diagram is recovered with no
contractible loop; a failed check raises InvariantError.
Every diagram edit and window read here is an `afftl.diagrams` function.

`stack` and `straighten` follow `config`'s caching policy: a peel depends
only on the current diagram, so `straighten` returns the cached word of a
rest of at most `PREFIX_REUSE` letters.  `stack` takes any word; whether a
word is reduced FC is decided on the word (`words.heap_is_fc`).
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .config import CACHE_SIZE, PREFIX_REUSE, GroupConfig, InvariantError
from .diagrams import (
    TOP,
    BOT,
    AffineDiagram,
    ProductResult,
    class_of,
    descent_arcs,
    identity,
    innermost_cover,
    is_admissible,
    is_straight,
    join_arcs,
    length,
    partner,
    short_arc_count,
    times_generator,
    _generator_action,
)
from .words import check_word


class CongruenceFinding(NamedTuple):
    cls: int
    kind: str  # "T1" | "B1" | "T2" | "B2": the row (T: the word's left end) and case
    cover: tuple[int, int] | None  # innermost covering arc lift; None for a slide or a loop peel


class PeelStep(NamedTuple):
    letter: int
    rest: AffineDiagram


class StraightWord(NamedTuple):
    letters: tuple[int, ...]
    core: frozenset[int]


def stack(cfg: GroupConfig, word) -> ProductResult:
    """Left-to-right product of generator diagrams (first letter on top)."""
    return _stack_cached(cfg.n, check_word(cfg, word))


@lru_cache(maxsize=CACHE_SIZE)
def _stack_cached(n: int, word: tuple[int, ...]) -> ProductResult:
    # callers mostly stack words one letter longer than words stacked before
    if not word:
        return ProductResult(identity(n), 0)
    cut = min(len(word) - 1, PREFIX_REUSE)
    d, contractible = _stack_cached(n, word[:cut])
    for s in word[cut:]:
        r = times_generator(d, s)
        if r is None:
            contractible += 1
        else:
            d = r
    return ProductResult(d, contractible)


def find_distinguished(d: AffineDiagram) -> CongruenceFinding:
    """Highest-priority peelable class of an admissible non-straight
    diagram; `straighten` peels at it."""
    if not is_admissible(d):
        raise ValueError("diagram is not admissible")
    if is_straight(d) is not None:
        raise ValueError("diagram is straight; nothing to peel")
    for side in (TOP, BOT):
        for k in sorted(descent_arcs(d, side)):
            cover = innermost_cover(d, side, k)
            if cover is not None or d.loops:
                return CongruenceFinding(k, side + "1", cover)
    for side, other in ((TOP, BOT), (BOT, TOP)):
        # A strand entering at the node left of a minimal arc and exiting
        # past the arc's far end marks the arc as slideable (T2 / B2).
        slides = [class_of(d.n, k - 1) for k in descent_arcs(d, side)
                  if (end := partner(d, side, k - 1))[0] == other and end[1] >= k + 1]
        if slides:
            return CongruenceFinding(min(slides), side + "2", None)
    raise InvariantError("no peelable class found on a non-straight admissible diagram")


def peel(d: AffineDiagram, f: CongruenceFinding) -> PeelStep:
    """Split one generator off d at the distinguished class.

    The removed letter stacks back (on the word's end on f's row: the
    left end for the top row) to reproduce d exactly, the length drops by
    one, and the number of short horizontal edges is preserved; all three
    facts are checked.
    """
    if f.kind not in ("T1", "B1", "T2", "B2"):
        raise ValueError(f"unknown peel kind {f.kind!r}")
    side = f.kind[0]  # d's row the letter touches: the top row is the word's left end
    if f.kind[1] == "1":
        k = letter = f.cls
        if f.cover is not None:
            rest = join_arcs(d, side, [(f.cover[0], k), (k + 1, f.cover[1])])
        elif not d.loops:
            raise InvariantError("loop peel on a diagram without loops")
        else:
            rest = join_arcs(d, side, [(k + 1, k + d.n)])._replace(loops=d.loops - 1)
    else:
        rest = _generator_action(d, f.cls, side)
        if rest is None:
            raise InvariantError("slide peel created a contractible loop")
        letter = class_of(d.n, f.cls + 1)
    if _generator_action(rest, letter, side) != d:  # None on a contractible loop
        raise InvariantError(f"peel reconstruction failed at class {f.cls} kind {f.kind}")
    if length(rest) != length(d) - 1:
        raise InvariantError("peel did not drop length by one")
    if short_arc_count(rest) != short_arc_count(d):
        raise InvariantError("peel changed the short-edge count")
    return PeelStep(letter, rest)


@lru_cache(maxsize=CACHE_SIZE)
def straighten(d: AffineDiagram) -> StraightWord:
    """Canonical reduced word evaluating to d: peel until straight, then
    emit the commuting core in increasing class order."""
    if not is_admissible(d):
        raise ValueError("only admissible diagrams straighten")
    left, right, cur = [], [], d
    # cur stays admissible: each peel checks its rest's length, defined only then
    while (core := is_straight(cur)) is None:
        f = find_distinguished(cur)
        step = peel(cur, f)
        (left if f.kind[0] == TOP else right).append(step.letter)
        cur = step.rest
        if length(cur) <= PREFIX_REUSE:
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
