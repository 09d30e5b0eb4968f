"""Aggregated invariant checks, runnable from the command line.

Each check returns (name, passed, detail); a check that raises anything but
InvariantError fails with the exception's type and message as its detail.
The suite covers the defining relations, unit/associativity laws,
crossing-count statistics, the straightening round trip, enumeration count
agreement between the diagram engine and the affine-permutation oracle,
agreement of the two multiplication engines, the arc-count invariant against
the width of the word's heap at every enumerated length,
order-independence of descent cancellation, whose core label must also be
the one `cells.cell_labels` reads off the diagram, the involutions (the
mirror flag against the permutation, a(w) against the decomposition's
core), and neighbour-symmetry (`cells.core_neighbours` on the straight
cores among the records).  The width is played against the brute-force
definition (`cells.a_bruteforce`, the largest commuting factor over the
commutation class) in the tier-1 tests.
"""

from __future__ import annotations

import random
from collections import Counter
from functools import cache

from . import algebra, cells, diagrams, explore, straightening, words
from .config import GroupConfig, InvariantError

Check = tuple[str, bool, str]


def check_defining_relations(cfg: GroupConfig) -> Check:
    n = cfg.n
    for i in cfg.generators():
        gi = diagrams.generator(n, i)
        sq = diagrams.multiply(gi, gi)
        if not (sq.contractible == 1 and sq.diagram == gi):
            return ("defining-relations", False, f"square relation fails at {i}")
        for j in cfg.generators():
            if i == j:
                continue
            gj = diagrams.generator(n, j)
            ij = diagrams.multiply(gi, gj)
            ji = diagrams.multiply(gj, gi)
            if cfg.adjacent(i, j):
                iji = diagrams.multiply(ij.diagram, gi)
                if not (
                    ij.contractible == 0
                    and iji.contractible == 0
                    and iji.diagram == gi
                ):
                    return ("defining-relations", False, f"braid relation fails at {i},{j}")
            else:
                if not (
                    ij.contractible == ji.contractible == 0
                    and ij.diagram == ji.diagram
                ):
                    return ("defining-relations", False, f"commutation fails at {i},{j}")
    return ("defining-relations", True, f"n={n}")


def check_unit_laws(cfg: GroupConfig, recs) -> Check:
    one = diagrams.identity(cfg.n)
    for rec in recs:
        left = diagrams.multiply(one, rec.diagram)
        right = diagrams.multiply(rec.diagram, one)
        if not (
            left.contractible == right.contractible == 0
            and left.diagram == rec.diagram == right.diagram
        ):
            return ("unit-laws", False, f"fails at {rec.word}")
    return ("unit-laws", True, f"{len(recs)} diagrams")


def check_associativity(cfg: GroupConfig, recs, rng: random.Random, samples: int = 60) -> Check:
    pool = [r.diagram for r in recs]
    for _ in range(samples):
        a, b, c = (rng.choice(pool) for _ in range(3))
        ab = diagrams.multiply(a, b)
        ab_c = diagrams.multiply(ab.diagram, c)
        bc = diagrams.multiply(b, c)
        a_bc = diagrams.multiply(a, bc.diagram)
        if not (
            ab_c.diagram == a_bc.diagram
            and ab.contractible + ab_c.contractible
            == bc.contractible + a_bc.contractible
        ):
            return ("associativity", False, "triple found")
    return ("associativity", True, f"{samples} random triples")


def check_crossing_counts(cfg: GroupConfig, recs) -> Check:
    for rec in recs:
        for k in cfg.generators():
            if diagrams.crossing_number(rec.diagram, k) != 2 * rec.word.count(k):
                return ("crossing-counts", False, f"fails at {rec.word} k={k}")
    return ("crossing-counts", True, f"{len(recs)} elements")


def check_roundtrip(cfg: GroupConfig, recs) -> Check:
    for rec in recs:
        sw = straightening.straighten(rec.diagram)
        back = straightening.stack(cfg, sw.letters)
        if not (back.contractible == 0 and back.diagram == rec.diagram):
            return ("straighten-roundtrip", False, f"fails at {rec.word}")
    return ("straighten-roundtrip", True, f"{len(recs)} diagrams")


def check_counts_vs_oracle(cfg: GroupConfig, recs, max_len: int) -> Check:
    """Per-length counts against the permutation oracle's; the records'
    diagrams must also be distinct, which the enumeration does not test."""
    primary = dict(Counter(rec.length for rec in recs))
    oracle = explore.oracle_counts(cfg, max_len)
    if primary != oracle:
        return ("counts-vs-oracle", False, f"{primary} != {oracle}")
    shared = len(recs) - len({rec.diagram for rec in recs})
    if shared:
        return ("counts-vs-oracle", False, f"{shared} records repeat an earlier diagram")
    return ("counts-vs-oracle", True, f"lengths 0..{max_len}")


def check_engine_agreement(cfg: GroupConfig, recs, max_len: int = 3) -> Check:
    """Diagram stacking against word rewriting on every pair of records up
    to max_len, taken in enumeration order.

    The rewrite side folds one row at a time.  Row ra's start word is
    checked once; each rb's result is then one cached rewrite step, by
    rb's last letter, on the row's result for rb.word[:-1].  Record words
    are least words, and a prefix of a least word is the least word of a
    shorter element, so that prefix is an earlier record of the list (the
    empty word first).  Folding rb.word from ra.word letter by letter
    takes the same steps in the same order, so each result equals
    rewrite_eval(cfg, rb.word, start=ra.word).  Each distinct result is
    stacked once.

    Each record's prefix position and last letter are found once, before
    the rows, and a row's results are a list indexed like the records.
    """
    recs = [rec for rec in recs if rec.length <= max_len]
    # per record: its diagram, the position of word[:-1] (-1 for the empty
    # word; a KeyError when it is no earlier record) and the last letter
    index, column = {}, []
    for j, rec in enumerate(recs):
        word = rec.word
        column.append((rec.diagram, index[word[:-1]], word[-1]) if word else (rec.diagram, -1, 0))
        index[word] = j
    multiply, step, stack = diagrams.multiply, algebra._rewrite_mul_cached, straightening.stack
    pairs = 0
    stacked = {}
    for ra in recs:
        start, da = algebra.rewrite_eval(cfg, (), start=ra.word), ra.diagram
        res = []
        for j, (db, p, s) in enumerate(column):
            if p < 0:
                exp_r, word_r = start
            else:
                exp_r, word_r = res[p]
                e, word_r = step(cfg, word_r, s)
                exp_r += e
            res.append((exp_r, word_r))
            d = stacked.get(word_r)
            if d is None:
                d = stacked[word_r] = stack(cfg, word_r).diagram
            prod = multiply(da, db)
            if not (d == prod.diagram and exp_r == prod.contractible):
                return (
                    "engine-agreement",
                    False,
                    f"pair {ra.word} x {recs[j].word}",
                )
            pairs += 1
    return ("engine-agreement", True, f"{pairs} basis pairs")


def check_a_agreement(cfg: GroupConfig, recs) -> Check:
    for rec in recs:
        arcs = cells.a_value(cfg, rec.word)
        width = words.heap_width(cfg, rec.word)
        if arcs != width:
            return ("a-agreement", False, f"fails at {rec.word}: {arcs} arcs, heap width {width}")
    return ("a-agreement", True, f"{len(recs)} elements")


def check_core_order_independence(
    cfg: GroupConfig, recs, rng: random.Random, samples: int = 40
) -> Check:
    pool = [r.word for r in recs if r.length >= 2]
    if not pool:
        return ("core-order-independence", True, "no elements at this horizon")
    for _ in range(samples):
        w = rng.choice(pool)
        det = cells.classify_core(cfg, cells.reduce_to_core(cfg, w))
        rnd = cells.classify_core(cfg, cells.reduce_to_core(cfg, w, rng=rng))
        if det != rnd:
            return ("core-order-independence", False, f"fails at {w}")
        read = cells.cell_labels(straightening.stack(cfg, w).diagram).two_sided
        if read != det:
            return ("core-order-independence", False, f"diagram reads {read}, core {det} at {w}")
    return ("core-order-independence", True, f"{samples} randomized runs")


def check_involutions(cfg: GroupConfig, recs) -> Check:
    """The mirror flag against the permutation oracle; `perm_of` takes one
    step per record, since each word[:-1] is an earlier record's word."""
    count = 0
    for rec in recs:
        flag = rec.is_involution  # read once
        if flag != words.perm_of(cfg, rec.word).is_involution():
            return ("involutions", False, f"mirror flag disagrees with the permutation at {rec.word}")
        if not flag:
            continue
        dec = cells.involution_decompose(cfg, rec.word)
        if cells.a_value(cfg, rec.word) != len(dec.core):
            return ("involutions", False, f"arc count mismatch at {rec.word}")
        count += 1
    return ("involutions", True, f"{count} involutions")


def check_neighbour_symmetry(cfg: GroupConfig, recs) -> Check:
    """q reaches q' exactly when q' reaches q, for every straight core in
    the records: all L_n of them once the horizon reaches n // 2.  The
    detail names L_n, the Lucas number, when the records hold fewer."""
    cores = [rec.word for rec in recs if diagrams.is_straight(rec.diagram) is not None]
    reached = cache(lambda q: [w for _, w in cells.core_neighbours(cfg, q)])
    for q in cores:
        for q2 in reached(q):
            if q not in reached(q2):
                return ("neighbour-symmetry", False, f"{q} -> {q2} not symmetric")
    lucas, nxt = 2, 1  # L_0, L_1
    for _ in range(cfg.n):
        lucas, nxt = nxt, lucas + nxt
    total = "" if len(cores) >= lucas else f" of {lucas}"
    return ("neighbour-symmetry", True, f"{len(cores)}{total} cores")


def run_all(n: int, max_len: int, seed: int) -> list[Check]:
    cfg = GroupConfig(n)
    rng = random.Random(seed)
    recs = list(explore.enumerate_elements(cfg, max_len))
    checks = {
        "defining-relations": lambda: check_defining_relations(cfg),
        "unit-laws": lambda: check_unit_laws(cfg, recs),
        "associativity": lambda: check_associativity(cfg, recs, rng),
        "crossing-counts": lambda: check_crossing_counts(cfg, recs),
        "straighten-roundtrip": lambda: check_roundtrip(cfg, recs),
        "counts-vs-oracle": lambda: check_counts_vs_oracle(cfg, recs, max_len),
        "engine-agreement": lambda: check_engine_agreement(cfg, recs, min(max_len, 3)),
        "a-agreement": lambda: check_a_agreement(cfg, recs),
        "core-order-independence": lambda: check_core_order_independence(cfg, recs, rng),
        "involutions": lambda: check_involutions(cfg, recs),
        "neighbour-symmetry": lambda: check_neighbour_symmetry(cfg, recs),
    }
    results = []
    for name, check in checks.items():
        try:
            results.append(check())
        except InvariantError:
            raise
        except Exception as exc:  # one check's crash does not hide the others' results
            results.append((name, False, f"{type(exc).__name__}: {exc}"))
    return results
