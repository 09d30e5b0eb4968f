"""Breadth-first enumeration of the fully commutative elements.

The primary enumeration extends words on the right and keeps an extension
exactly when the diagram engine reports no contracted loop and a length
increase; elements are deduplicated by their diagram, which the
faithfulness of the representation makes an exact key.  Each extension is
one constant-size generator action on the diagram.  The involution flag
is read off the diagram too: swapping its rows gives the diagram of the
inverse element, so w is an involution exactly when its diagram is
mirror-symmetric.  An independent enumeration over affine permutations,
filtered by the word-level FC test, provides per-length counts to check
against.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterator

from .config import GroupConfig
from .cells import CellLabels, labels
from .diagrams import AffineDiagram, identity, length, mirror, times_generator
from .words import AffinePermutation, Word, heap_is_fc

DEFAULT_CAP = 10**7
CAP_ENV_VAR = "AFFTL_MAX_ELEMENTS"


def element_cap(cap: int | None = None) -> int:
    if cap is not None:
        return cap
    env = os.environ.get(CAP_ENV_VAR)
    return int(env) if env else DEFAULT_CAP


@dataclass(frozen=True)
class EnumerationRecord:
    word: Word
    diagram: AffineDiagram
    length: int
    labels: CellLabels | None
    is_involution: bool

    def to_json(self) -> dict:
        return {
            "word": list(self.word),
            "length": self.length,
            "labels": self.labels.to_json() if self.labels else None,
            "is_involution": self.is_involution,
        }


def enumerate_elements(
    cfg: GroupConfig,
    max_len: int,
    with_labels: bool = True,
    cap: int | None = None,
    generator_order: tuple[int, ...] | None = None,
) -> Iterator[EnumerationRecord]:
    """Yield every fully commutative element of length <= max_len once, in
    length order, as (canonical-by-construction word, diagram) pairs."""
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    n = cfg.n
    limit = element_cap(cap)
    order = generator_order or tuple(cfg.generators())

    def record(word: Word, d: AffineDiagram, ln: int) -> EnumerationRecord:
        lab = labels(cfg, word) if with_labels else None
        return EnumerationRecord(word, d, ln, lab, mirror(d) == d)

    start = identity(n)
    seen = {start}
    count = 1
    yield record((), start, 0)
    frontier: list[tuple[Word, AffineDiagram]] = [((), start)]
    for ln in range(1, max_len + 1):
        nxt: list[tuple[Word, AffineDiagram]] = []
        for word, d in frontier:
            for s in order:
                r = times_generator(d, s)
                if r.contractible or r.diagram in seen:
                    continue
                if length(r.diagram) != ln:
                    continue
                seen.add(r.diagram)
                count += 1
                if count > limit:
                    raise RuntimeError(
                        f"enumeration exceeded the cap of {limit} elements"
                    )
                w2 = word + (s,)
                yield record(w2, r.diagram, ln)
                nxt.append((w2, r.diagram))
        frontier = nxt


def wc_counts(cfg: GroupConfig, max_len: int, cap: int | None = None) -> dict[int, int]:
    """Per-length element counts from the diagram-keyed enumeration."""
    counts: dict[int, int] = {}
    for rec in enumerate_elements(cfg, max_len, with_labels=False, cap=cap):
        counts[rec.length] = counts.get(rec.length, 0) + 1
    return counts


def oracle_counts(cfg: GroupConfig, max_len: int, cap: int | None = None) -> dict[int, int]:
    """Per-length counts via affine permutations filtered by the word-level
    FC test; fully independent of the diagram engine."""
    n = cfg.n
    limit = element_cap(cap)
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
                p2 = p.times_generator(s)
                if p2.window in seen or p2.window in rejected:
                    continue
                if p2.length() != ln:
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
