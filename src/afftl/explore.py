"""Breadth-first enumeration of the fully commutative elements.

The primary enumeration extends words on the right, and every generator
action it computes yields a new record.  Each record's word is the lexicographically least
reduced word of its element, letters compared as integers.  An extension
W s of a least word W is computed exactly when it is again the least word
of a fully commutative element:

* W s is reduced and fully commutative exactly when s is not in W, or at
  least two occurrences of s - 1 or s + 1 follow W's last s (Stembridge
  1996, On the fully commutative elements of Coxeter groups: a word is a
  reduced word of an FC element exactly when no two consecutive
  occurrences of a letter have fewer than two neighbour occurrences
  between them, `words.heap_is_fc`).  W is reduced FC, so the only pair
  to test is (last s, new s).
* The reduced words of an FC element form one commutation class, and a
  word is least in its class exactly when it has no factor b u a with
  a < b, where a commutes with b and with every letter of u (Anisimov and
  Knuth, Inhomogeneous sorting, 1979).  W is least, so W s is least
  exactly when every letter of W after its last neighbour of s is below s.

Each frontier entry carries both tests' counters per letter, and the test
costs two comparisons.  Distinct least words name distinct elements, so no
element is reached twice and no diagram is compared: deduplication does
not rest on the faithfulness of the diagram representation, and the
enumeration holds only its frontier.  Every prefix of a least reduced FC word is one too, so
every element is reached.  No length is computed: the word's is the
element's.

A record holds the least word, the diagram and, once
`cells.labelled_elements` adds them, the cell labels.  Its length is the
word's, and its involution flag is read off the diagram when asked:
swapping the rows gives the diagram of the inverse element, so w is an
involution exactly when its diagram is mirror-symmetric.  An independent
walk over affine permutations, FC by 321-avoidance rather than by the heap,
provides per-length counts to check against.  Both enumerations stop with
RuntimeError past `element_cap()` elements.
"""

from __future__ import annotations

import json
import os
from typing import Iterator, NamedTuple

from .config import GroupConfig, InvariantError
from .diagrams import AffineDiagram, identity, is_mirror_symmetric, times_generator
from .words import AffinePermutation, Word

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

    Level ln extends the least words of length ln - 1, in lexicographic
    order, by each letter s in ascending order, and keeps W s exactly when
    it is the least reduced word of an FC element.  Completeness: a prefix
    of a least reduced FC word is a least reduced FC word, so the least
    word of every element of length ln extends one of level ln - 1.
    Exactness: W is reduced FC, so W s is reduced FC exactly when the only
    new pair of consecutive occurrences of a letter, (W's last s, the new
    s), has at least two neighbour occurrences between them (Stembridge
    1996); `since[r]` counts the occurrences of r - 1 and r + 1 after W's
    last r, 2 when r is not in W (any value >= 2 acts the same).  W is
    least, so W s is least exactly when it has no factor b u s with b > s
    commuting with s and with every letter of u (Anisimov and Knuth 1979):
    when no letter of W after its last neighbour of s is at or above s.
    `after[r]` holds the highest letter after W's last neighbour of r, 0
    when there is none.  Two kept words are distinct least words, so they
    name distinct elements, and the lexicographic order of the frontier
    carries over to the level built from it.

    The diagram of W s is the product E_W E_s, a basis diagram because W s
    is reduced and fully commutative; an action that closes a loop instead
    is a bug, and raises InvariantError.
    """
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    n = cfg.n
    letters = cfg.generators()
    limit = element_cap()
    start = identity(n)
    count = 1
    if count > limit:
        raise RuntimeError(f"enumeration exceeded the cap of {limit} elements")
    yield EnumerationRecord((), start)
    # entries are (word, diagram, after, since), the lists indexed by letter 1..n
    frontier: list[tuple[Word, AffineDiagram, list[int], list[int]]] = [
        ((), start, [0] * (n + 1), [2] * (n + 1))
    ]
    for ln in range(1, max_len + 1):
        nxt: list[tuple[Word, AffineDiagram, list[int], list[int]]] = []
        for word, d, after, since in frontier:
            for s in letters:
                if after[s] >= s or since[s] < 2:
                    continue
                d2 = times_generator(d, s)
                w2 = word + (s,)
                if d2 is None:
                    raise InvariantError(f"the reduced FC word {w2} closes a loop")
                count += 1
                if count > limit:
                    raise RuntimeError(
                        f"enumeration exceeded the cap of {limit} elements"
                    )
                yield EnumerationRecord(w2, d2)
                if ln == max_len:
                    continue  # the last level is never extended
                a, b = s - 1 or n, s % n + 1
                after2 = [x if x > s else s for x in after]
                after2[a] = after2[b] = 0
                since2 = since.copy()
                since2[s] = 0
                since2[a] += 1
                since2[b] += 1
                nxt.append((w2, d2, after2, since2))
        frontier = nxt


def oracle_counts(cfg: GroupConfig, max_len: int) -> dict[int, int]:
    """Per-length counts via affine permutations, FC by 321-avoidance (Green
    2002); independent of the diagram engine and of the heap.  Level ln is
    the set of p s with p on level ln - 1, s an ascent of p and p s still
    FC (`AffinePermutation.fc_ascents`, read off one extended window); each
    has length ln, so no earlier level needs keeping."""
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    limit = element_cap()
    counts = {0: 1}
    level, total = {AffinePermutation.identity(cfg.n)}, 1
    if total > limit:
        raise RuntimeError(f"enumeration exceeded the cap of {limit} elements")
    for ln in range(1, max_len + 1):
        nxt: set[AffinePermutation] = set()
        for p in level:
            for s in p.fc_ascents():
                nxt.add(p.times_generator(s))
                if total + len(nxt) > limit:
                    raise RuntimeError(f"enumeration exceeded the cap of {limit} elements")
        if nxt:
            counts[ln] = len(nxt)
        level, total = nxt, total + len(nxt)
    return counts
