"""Breadth-first enumeration of the fully commutative elements.

The primary enumeration extends words on the right and keeps an extension
exactly when the diagram engine reports no contracted loop and a diagram
not seen before; elements are deduplicated by their diagram, which the
faithfulness of the representation makes an exact key.  No length is
computed: a loop-free product E_w E_s is a basis diagram of length at most
l(w) + 1, because crossing numbers are subadditive under stacking (Fan and
Green, On the affine Temperley-Lieb algebras, 1999), and every element
shorter than that has been seen already.

Most extensions are not computed at all.  The reduced words of a fully
commutative element form one commutation class (Stembridge 1996, On the
fully commutative elements of Coxeter groups), and each record's word is
the lexicographically least word of its class, letters compared as
integers.  By Anisimov and Knuth (Inhomogeneous sorting, 1979) a word is
least in its class exactly when it has no factor b u a with a < b, where a
commutes with b and with every letter of u.  So W s, with W least, can be
the least word of a new element only when every letter of W after its
last neighbour of s is below s; otherwise the product closes a loop,
collapses to a shorter diagram, or is an element first reached from an
earlier word.  Each frontier entry carries, per letter, the highest letter
after that letter's last neighbour, and the test costs one comparison.

A record holds the least word, the diagram and, once
`cells.labelled_elements` adds them, the cell labels.  Its length is the
word's, and its involution flag is read off the diagram when asked:
swapping the rows gives the diagram of the inverse element, so w is an
involution exactly when its diagram is mirror-symmetric.  An independent
enumeration over affine permutations, filtered by the word-level FC test,
provides per-length counts to check against.  Both enumerations stop with
RuntimeError past `element_cap()` elements.
"""

from __future__ import annotations

import json
import os
from typing import Iterator, NamedTuple

from .config import GroupConfig
from .diagrams import AffineDiagram, identity, is_mirror_symmetric, times_generator
from .words import AffinePermutation, Word, heap_is_fc

DEFAULT_CAP = 10**7
CAP_ENV_VAR = "AFFTL_MAX_ELEMENTS"


def element_cap() -> int:
    env = os.environ.get(CAP_ENV_VAR)
    if not env:
        return DEFAULT_CAP
    if not env.strip().isdecimal():
        raise ValueError(f"{CAP_ENV_VAR} must be a nonnegative integer, got {env!r}")
    return int(env)


class EnumerationRecord(NamedTuple):
    word: Word
    diagram: AffineDiagram
    labels: object = None  # a cells.CellLabels, or None before cells labels it

    @property
    def length(self) -> int:
        return len(self.word)

    @property
    def is_involution(self) -> bool:
        return is_mirror_symmetric(self.diagram)

    def json_line(self) -> str:
        """The record's JSON object: a list of ints prints as JSON; labels use json.dumps."""
        labels = json.dumps(self.labels.to_json()) if self.labels else "null"
        flag = "true" if self.is_involution else "false"
        return (f'{{"word": {list(self.word)}, "length": {len(self.word)}, '
                f'"labels": {labels}, "is_involution": {flag}}}')


def enumerate_elements(cfg: GroupConfig, max_len: int) -> Iterator[EnumerationRecord]:
    """Yield every fully commutative element of length <= max_len once, in
    length order and, within a length, in lexicographic order of its least
    word, as unlabelled records.

    Level ln extends the elements of length ln - 1.  Every element u of
    length < ln is in `seen` already, by induction: u = ws with l(u) =
    l(w) + 1 gives E_w E_s = E_u with no loop.  A loop-free E_w E_s is a
    basis diagram of length at most l(w) + 1 = ln, because crossing numbers
    are subadditive under stacking.  So an unseen extension has length
    exactly ln, and no length is computed.

    The frontier is in lexicographic order, and an element's least word is
    the least of (least word of u s) s over its right descents s, so each
    element is first reached by appending one letter to the least word of
    a parent: records carry least words, by induction.  Hence W s is
    computed only when it can be a least word (Anisimov and Knuth 1979):
    when no letter of W after the last neighbour of s is at or above s.
    If s itself is there, s is a right descent of W and E_W E_s has a
    loop.  If a higher letter b is there, W s is greater than the word of
    its class with s moved before b; when that word is reduced and fully
    commutative, an earlier parent has reached its element, and otherwise
    the product has a loop or is shorter.  `after[r]` holds the highest
    letter after W's last neighbour of r, 0 when there is none.  The loop
    and `seen` checks still reject what the prune lets through: braid
    collapses to shorter diagrams.
    """
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    n = cfg.n
    letters = cfg.generators()
    limit = element_cap()
    start = identity(n)
    seen = {start}
    count = 1
    yield EnumerationRecord((), start)
    # entries are (word, diagram, after), `after` indexed by letter 1..n
    frontier: list[tuple[Word, AffineDiagram, list[int]]] = [((), start, [0] * (n + 1))]
    for ln in range(1, max_len + 1):
        nxt: list[tuple[Word, AffineDiagram, list[int]]] = []
        for word, d, after in frontier:
            for s in letters:
                if after[s] >= s:
                    continue
                d2 = times_generator(d, s)
                if d2 is None or d2 in seen:
                    continue
                seen.add(d2)
                count += 1
                if count > limit:
                    raise RuntimeError(
                        f"enumeration exceeded the cap of {limit} elements"
                    )
                w2 = word + (s,)
                yield EnumerationRecord(w2, d2)
                if ln == max_len:
                    continue  # the last level is never extended
                after2 = [a if a > s else s for a in after]
                after2[s - 1 or n] = after2[s % n + 1] = 0
                nxt.append((w2, d2, after2))
        frontier = nxt


def oracle_counts(cfg: GroupConfig, max_len: int) -> dict[int, int]:
    """Per-length counts via affine permutations filtered by the word-level
    FC test; fully independent of the diagram engine."""
    n = cfg.n
    limit = element_cap()
    counts = {0: 1}
    seen = {AffinePermutation.identity(n).window}
    rejected: set[tuple[int, ...]] = set()
    frontier: list[tuple[AffinePermutation, Word]] = [
        (AffinePermutation.identity(n), ())
    ]
    total = 1
    for ln in range(1, max_len + 1):
        nxt = []
        for p, w in frontier:
            for s in cfg.generators():
                # p has length ln - 1, so p s has length ln when p ascends at s
                if not p.ascends(s):
                    continue
                p2 = p.times_generator(s)
                if p2.window in seen or p2.window in rejected:
                    continue
                w2 = w + (s,)
                if not heap_is_fc(cfg, w2):
                    rejected.add(p2.window)
                    continue
                seen.add(p2.window)
                total += 1
                if total > limit:
                    raise RuntimeError(
                        f"enumeration exceeded the cap of {limit} elements"
                    )
                counts[ln] = counts.get(ln, 0) + 1
                nxt.append((p2, w2))
        frontier = nxt
    return counts
