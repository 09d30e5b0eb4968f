"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; the
whole suite is exact (no numeric tolerances) with wall-clock budgets where
stated.
"""

import itertools
import math
import random
import time

import pytest

from oracles import congruence_candidates

from afftl.algebra import rewrite_eval
from afftl.cells import (
    M_NONSQUARE,
    a_bruteforce,
    a_value,
    alternating_word,
    cancellable,
    census,
    classify_core,
    core_neighbours,
    involution_decompose,
    is_core,
    labels,
    reduce_to_core,
    right_cell_involution,
)
from afftl.config import GroupConfig
from afftl.diagrams import (
    TOP,
    canonical_key,
    crossing_number,
    generator,
    length,
    multiply,
    short_arc_count,
)
from afftl.explore import enumerate_elements, oracle_counts
from afftl.straightening import (
    find_distinguished,
    is_straight,
    peel,
    stack,
    straighten,
)
from afftl.words import perm_of, support

_ENUM_CACHE = {}


def enum(n, max_len, with_labels=False):
    key = (n, max_len, with_labels)
    if key not in _ENUM_CACHE:
        _ENUM_CACHE[key] = list(
            enumerate_elements(GroupConfig(n), max_len, with_labels=with_labels)
        )
    return _ENUM_CACHE[key]


def report(num, name, ok, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    extra = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {num:02d} {name}: {status} ({elapsed:.2f}s){extra}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_01_presentation_check():
    t0 = time.monotonic()
    ok = True
    for n in range(3, 9):
        cfg = GroupConfig(n)
        for i, j in itertools.product(cfg.generators(), repeat=2):
            gi, gj = generator(n, i), generator(n, j)
            if i == j:
                r = multiply(gi, gi)
                ok &= r.contractible == 1 and r.diagram == gi
            elif cfg.adjacent(i, j):
                r1 = multiply(gi, gj)
                r2 = multiply(r1.diagram, gi)
                ok &= r1.contractible == r2.contractible == 0 and r2.diagram == gi
            else:
                rij, rji = multiply(gi, gj), multiply(gj, gi)
                ok &= rij == rji and rij.contractible == 0
    elapsed = time.monotonic() - t0
    report(1, "presentation-check", ok and elapsed < 1.0, elapsed, "n=3..8")


def test_02_engine_equivalence():
    t0 = time.monotonic()
    ok = True
    pairs = 0
    for n in (3, 4, 5):
        cfg = GroupConfig(n)
        recs = enum(n, 5)
        for ra in recs:
            for rb in recs:
                exp_r, word_r = rewrite_eval(cfg, rb.word, start=ra.word)
                prod = multiply(ra.diagram, rb.diagram)
                same = (
                    exp_r == prod.contractible
                    and stack(cfg, word_r).diagram == prod.diagram
                    and perm_of(cfg, word_r)
                    == perm_of(cfg, straighten(prod.diagram).letters)
                )
                if not same:
                    ok = False
                pairs += 1
    elapsed = time.monotonic() - t0
    report(2, "engine-equivalence", ok and elapsed < 120, elapsed, f"{pairs} basis pairs")


def test_03_faithfulness_at_horizon():
    t0 = time.monotonic()
    ok = True
    detail = []
    for n in (3, 4, 5, 6):
        cfg = GroupConfig(n)
        window_of_key = {}
        key_of_window = {}
        counts = {}
        for rec in enum(n, 12):
            key = canonical_key(rec.diagram)
            win = perm_of(cfg, rec.word).window
            if window_of_key.setdefault(key, win) != win:
                ok = False
            if key_of_window.setdefault(win, key) != key:
                ok = False
            counts[rec.length] = counts.get(rec.length, 0) + 1
        oracle = oracle_counts(cfg, 12)
        if counts != oracle:
            ok = False
        detail.append(f"n={n}:{sum(counts.values())}")
    elapsed = time.monotonic() - t0
    report(3, "faithfulness", ok and elapsed < 300, elapsed, " ".join(detail))


def test_04_straightening_roundtrip():
    t0 = time.monotonic()
    ok = True
    peels = 0
    for n in (3, 4, 5, 6):
        cfg = GroupConfig(n)
        for rec in enum(n, 12):
            d = rec.diagram
            cur = d
            left, right = [], []
            while (core := is_straight(cur)) is None:
                step = peel(cur, find_distinguished(cur))
                if length(step.rest) != length(cur) - 1:
                    ok = False
                if short_arc_count(step.rest) != short_arc_count(cur):
                    ok = False
                (left if step.end == "left" else right).append(step.letter)
                cur = step.rest
                peels += 1
            word = tuple(left) + tuple(sorted(core)) + tuple(reversed(right))
            back = stack(cfg, word)
            if not (back.contractible == 0 and back.diagram == d and len(word) == rec.length):
                ok = False
    elapsed = time.monotonic() - t0
    report(4, "straightening-roundtrip", ok, elapsed, f"{peels} peels")


def test_05_crossing_statistics():
    t0 = time.monotonic()
    ok = True
    checked = 0
    for n in (3, 4, 5, 6):
        cfg = GroupConfig(n)
        for rec in enum(n, 12):
            for k in cfg.generators():
                if crossing_number(rec.diagram, k) != 2 * rec.word.count(k):
                    ok = False
            checked += 1
    elapsed = time.monotonic() - t0
    report(5, "crossing-statistics", ok, elapsed, f"{checked} elements")


def test_06_a_function():
    t0 = time.monotonic()
    ok = True
    rng = random.Random(6)
    checked = 0
    for n in (3, 4, 5):
        cfg = GroupConfig(n)
        for rec in enum(n, 10):
            if a_value(cfg, rec.word) != a_bruteforce(cfg, rec.word, bound=10):
                ok = False
            checked += 1
        for t in cfg.commuting_sets():
            if a_value(cfg, tuple(sorted(t))) != len(t):
                ok = False
    # monotonicity under right multiplication, 10^4 random extensions
    pools = {n: enum(n, 12) for n in (3, 4, 5)}
    for _ in range(10_000):
        n = rng.choice((3, 4, 5))
        cfg = GroupConfig(n)
        rec = rng.choice(pools[n])
        s = rng.randrange(1, n + 1)
        d2 = multiply(rec.diagram, generator(n, s)).diagram
        a_before = sum(1 for side, _ in rec.diagram.top if side == TOP) // 2
        a_after = sum(1 for side, _ in d2.top if side == TOP) // 2
        if a_after < a_before:
            ok = False
    elapsed = time.monotonic() - t0
    report(6, "a-function", ok, elapsed, f"{checked} elements + 10000 extensions")


def test_07_core_and_cells():
    t0 = time.monotonic()
    ok = True
    rng = random.Random(7)
    for n in (3, 4, 5):
        cfg = GroupConfig(n)
        # membership scan at the horizon matches the known inventory
        expected = {perm_of(cfg, tuple(sorted(t))).window for t in cfg.commuting_sets()}
        if n % 2 == 0:
            for start in ("odd", "even"):
                for f in range(2, 2 * 12 // n + 1):
                    w = alternating_word(cfg, start, f)
                    if len(w) <= 12:
                        expected.add(perm_of(cfg, w).window)
        seen = {
            perm_of(cfg, rec.word).window
            for rec in enum(n, 12)
            if is_core(cfg, rec.word)
        }
        if seen != expected:
            ok = False
        # neighbour moves symmetric; closure classes are the same-size
        # block families plus singletons at the maximum
        cores = [tuple(sorted(t)) for t in cfg.commuting_sets()]
        if n % 2 == 0:
            cores += [alternating_word(cfg, st, f) for st in ("odd", "even") for f in (2, 3)]
        neigh = {q: core_neighbours(cfg, q) for q in cores}
        parent = {q: q for q in cores}

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for q, out in neigh.items():
            for s, q2 in out:
                if not any(w == q for _, w in neigh.get(q2, core_neighbours(cfg, q2))):
                    ok = False
                if q2 in parent:
                    parent[find(q)] = find(q2)
        classes = {}
        for q in cores:
            classes.setdefault(find(q), set()).add(q)
        for members in classes.values():
            ks = {len(set(q)) for q in members}
            if len(ks) != 1:
                ok = False
                continue
            k = ks.pop()
            if all(len(q) == len(set(q)) for q in members) and 2 * k < n:
                expected_class = {
                    tuple(sorted(t)) for t in cfg.commuting_sets() if len(t) == k
                }
                if members != expected_class:
                    ok = False
            else:
                if len(members) != 1:
                    ok = False
    # label independent of cancellation order: 10^4 randomized reductions
    pools = {n: enum(n, 12) for n in (3, 4, 5)}
    for _ in range(10_000):
        n = rng.choice((3, 4, 5))
        cfg = GroupConfig(n)
        rec = rng.choice(pools[n])
        det = classify_core(cfg, reduce_to_core(cfg, rec.word).word)
        rnd = classify_core(cfg, reduce_to_core(cfg, rec.word, rng=rng).word)
        if det != rnd:
            ok = False
    # the arc-count invariant is constant on two-sided labels
    for n in (3, 4, 5):
        cfg = GroupConfig(n)
        by_label = {}
        for rec in enum(n, 12, with_labels=True):
            by_label.setdefault(rec.labels.two_sided, set()).add(rec.labels.a)
        if any(len(v) != 1 for v in by_label.values()):
            ok = False
    elapsed = time.monotonic() - t0
    report(7, "core-and-cells", ok, elapsed, "inventory+closure+10000 runs")


def test_08_census_counts():
    t0 = time.monotonic()
    ok = True
    notes = []
    rows4 = {}
    for horizon in (10, 12):
        rows4[horizon] = {str(r.two_sided): r for r in census(GroupConfig(4), horizon)}
    small1 = rows4[12]["Small(1)"]
    if not (small1.left_cells == small1.right_cells == math.comb(4, 1) == 4):
        ok = False
    # alternating labels: half of binomial(4, 2) = 3 once the horizon is
    # past the cell's reach; stability between 10 and 12 gates the claim
    for name, row in rows4[12].items():
        if not name.startswith("Alt"):
            continue
        stable = name in rows4[10] and (
            rows4[10][name].left_cells,
            rows4[10][name].right_cells,
        ) == (row.left_cells, row.right_cells)
        if stable:
            if not (row.left_cells == row.right_cells == 3):
                ok = False
        else:
            notes.append(f"{name} unstable at horizon")
    rows5 = {}
    for horizon in (10, 12):
        rows5[horizon] = {str(r.two_sided): r for r in census(GroupConfig(5), horizon)}
    for name, expect in (("Small(1)", 5), ("Small(2)", 10)):
        for horizon in (10, 12):
            row = rows5[horizon][name]
            if not (row.left_cells == row.right_cells == expect):
                ok = False
    # divergence report for the alternative (arc count, loops) labelling
    for n in (4, 5):
        stats = {}
        for rec in enum(n, 12, with_labels=True):
            stats.setdefault((rec.labels.a, rec.labels.loops), set()).add(
                rec.labels.two_sided
            )
        for key, labs in sorted(stats.items()):
            if len(labs) > 1:
                pretty = ", ".join(sorted(str(x) for x in labs))
                print(f"  note: n={n} (a, loops)={key} shared by {pretty}")
    elapsed = time.monotonic() - t0
    report(8, "census-counts", ok and elapsed < 300, elapsed, "; ".join(notes) or "stable")


def test_09_involutions():
    t0 = time.monotonic()
    ok = True
    rng = random.Random(9)
    total = 0
    for n in (3, 4, 5):
        cfg = GroupConfig(n)
        recs = enum(n, 12, with_labels=True)
        involutions = [r for r in recs if perm_of(cfg, r.word).is_involution()]
        for rec in involutions:
            dec = involution_decompose(cfg, rec.word)
            rnd = involution_decompose(cfg, rec.word, rng=rng)
            if perm_of(cfg, rnd.x) != perm_of(cfg, dec.x) or rnd.core != dec.core:
                ok = False
            if a_value(cfg, rec.word) != len(dec.core):
                ok = False
            # the involution shares its right cell with x . block, provided
            # the support is not the whole generator cycle (for full
            # support the involution is itself an alternating core)
            if support(rec.word) != frozenset(cfg.generators()):
                half = dec.x + tuple(sorted(dec.core))
                lw, lh = labels(cfg, rec.word), labels(cfg, half)
                if lw.two_sided != lh.two_sided or lw.right_pattern != lh.right_pattern:
                    ok = False
            if n % 2:
                if support(rec.word) == frozenset(cfg.generators()):
                    ok = False
            total += 1
        # each right-cell label group holds exactly one involution, except
        # groups whose canonical involution lies beyond the horizon, and
        # the even-factor alternating cells which hold none
        groups = {}
        for rec in recs:
            key = (rec.labels.two_sided, rec.labels.right_pattern)
            groups.setdefault(key, []).append(rec)
        for (two_sided, _), members in groups.items():
            count = sum(
                1 for r in members if perm_of(cfg, r.word).is_involution()
            )
            rep = members[0]
            target = right_cell_involution(cfg, rep.word)
            if target == M_NONSQUARE:
                expected = 0
                if not (
                    two_sided.kind == "alternating" and two_sided.factors % 2 == 0
                ):
                    ok = False
            else:
                expected = 1 if len(target) <= 12 else 0
            if count != expected:
                ok = False
    elapsed = time.monotonic() - t0
    report(9, "involutions", ok, elapsed, f"{total} involutions")


def test_10_worked_examples():
    t0 = time.monotonic()
    ok = True
    # cancellability pair in rank five
    cfg5 = GroupConfig(5)
    w = (1, 3, 2, 4)
    ok &= cancellable(cfg5, w, 3, "left") == 4
    r = multiply(generator(5, 4), stack(cfg5, w).diagram)
    ok &= r.contractible == 0 and r.diagram == stack(cfg5, (1, 2, 4)).diagram
    ok &= cancellable(cfg5, w, 2, "right") == 1
    # peel classifications in rank four
    cfg4 = GroupConfig(4)
    d = stack(cfg4, (2, 1, 3, 2)).diagram
    cands = congruence_candidates(d)
    ok &= set(cands["T1"]) == {2} and set(cands["B1"]) == {2}
    f = find_distinguished(d)
    ok &= (f.cls, f.kind) == (2, "T1")
    d21 = stack(cfg4, (2, 1)).diagram
    f21 = find_distinguished(d21)
    ok &= (f21.cls, f21.kind) == (1, "T2")
    elapsed = time.monotonic() - t0
    report(10, "worked-examples", ok, elapsed)
