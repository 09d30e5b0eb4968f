"""Test-only oracles: direct, slow restatements of library algorithms.

The diagram-validation oracles scan translates one period at a time over a
window wide enough for the coordinates involved, so their cost grows with
the coordinate magnitudes; the library decides planarity in one linear
sweep, naming one crossing pair, and finds covering arcs by walking the
window.
`window` builds a diagram from window rows written as (side, pos) pairs,
so no test depends on how `afftl.diagrams` encodes an entry, and `mirror`
swaps a diagram's rows, where the library's involution flag compares
them.  The word oracles test adjacency through the validating
`GroupConfig.adjacent` (and `commutes`, its negation for distinct
letters) where the library uses arithmetic on the cycle;
`multiply_by_partner` traces strands through `partner`/`class_of` where
the library indexes the windows; `straight_diagram_checked` builds the diagram and then checks it
is an involution, where the library checks the generator set; and
`is_straight_by_construction` compares with a built straight diagram where
the library reads the windows; `mul_pairwise` sums one Laurent product
per basis pair, where the library packs coefficients into integers;
`element_from_json_by_sums` loads an element with one Laurent product
and sum per term, where the library sums each (diagram, loop count)'s
coefficients in one exponent map and multiplies by delta once, and
`element_json_dict` (with `coeff_json`) builds an element's JSON object
for `json.dumps`, where the library writes the text directly; and
`cancellable_by_stacking` compares stacked diagrams, where the library
reads descents off the words; and the greedy formulations
(`left_descents_greedy`, `right_descents_greedy`, `cancellable_greedy`,
`cancel_options_greedy`, `reduce_to_core_greedy`,
`left_decomposition_greedy`) move each letter to the front or back with
`greedy_front_adjacent`/`greedy_back_adjacent`, one generator at a time,
where the library reads the heap's minimal and maximal elements off one
scan per side; and `enumerate_filtered` computes every extension and
keeps one only after computing its length and builds the mirror for the
involution flag, where the library computes only the extensions that
are least reduced FC words, reads the length off the word and compares
the rows entrywise; `least_word_greedy` builds the least word of a commutation
class one letter at a time, where the library's records are least words
by construction.  The differential tests play each against its library
counterpart.  `class_has_braid` (the definition of full commutativity)
and `braid_witness_left` are reference statements used by the word tests,
and `braid_witness_by_class` finds the braid witness by searching the
sorted commutation class, where the library reads it off the heap.
`congruence_candidates` builds the qualifying classes of all four peel
kinds, where the library stops at the first kind that qualifies.
`nu_vector_per_class` counts each line's crossings edge by edge, where
the library adds every edge's runs to a difference array in one pass.
`absorber_by_rescan` drops one descent and rescans the rest for each
descent, and `involution_decompose_by_rescan` conjugates away a letter
only after dropping it from the front and rescanning the rest, while some
pair of the word's letters is adjacent, both with the greedy descent
scans; the library reads every descent's absorber, and the letters to
conjugate away, off one scan per side.  `wc_counts` tallies the
library enumeration by length, for the tests that play it against the
permutation oracle's counts.  `perm_by_fold` multiplies a word's
generators onto the identity one by one, where the library continues the
cached permutation of a prefix; `perm_inverse` and `perm_length` (the
periodic inversion count, O(n^2)) read a permutation's window, for the
tests that check the oracle's group operations.  `avoids_321_bruteforce`
scans a permutation's positions for a 321 pattern, where the oracle tests every
ascent's new patterns off one extended window
(`AffinePermutation.fc_ascents`).  `is_reduced_word` stacks a word and
`is_fc_reduced` folds its permutation and tests it for 321: each decides
"a reduced word of an FC element" in its engine, where the library reads
the answer off the heap (`words.heap_is_fc`).
`right_cell_involution_by_reduction` cancels right descents and rebuilds
y q y^-1 from the right decomposition of what is left, where the library
mirrors the diagram's top row.
`commuting_sets` lists every commuting set of the n-cycle and
`alternating_word` writes an alternating core, for the tests that sweep
all cores; `core_neighbours_exhaustive` stacks every such core against
every generator, where the library tries the few commuting sets that
agree with the core off the generator's window.
"""

from collections import Counter
from functools import cache
from itertools import combinations

from afftl.algebra import AlgebraElement
from afftl.cells import M_NONSQUARE, InvolutionDecomposition, reduce_to_core
from afftl.config import GroupConfig
from afftl.diagrams import (
    BOT,
    TOP,
    AffineDiagram,
    InvariantError,
    ProductResult,
    _involution_problems,
    class_of,
    descent_arcs,
    edge_list,
    generator,
    generator_times,
    identity,
    length,
    multiply,
    node,
    partner,
    straight_diagram,
    times_generator,
)
from afftl.explore import enumerate_elements
from afftl.laurent import ZERO, LaurentPoly, delta_power
from afftl.straightening import stack, straighten
from afftl.words import (
    AffinePermutation,
    BraidWitness,
    braid_witness,
    check_word,
    drop_letter,
    greedy_back,
    greedy_front,
    reduced_perm,
)


def window(n, top, bottom, loops=0):
    """The diagram whose window rows list each partner as a (side, pos)
    pair, as a test writes it by hand."""
    return AffineDiagram(
        n, tuple(node(*e) for e in top), tuple(node(*e) for e in bottom), loops
    )


def mirror(d: AffineDiagram) -> AffineDiagram:
    """Swap the two rows: the anti-automorphism reversing words, so the
    mirror of the diagram of w is the diagram of w^-1."""
    return AffineDiagram(
        d.n, tuple(e ^ 1 for e in d.bottom), tuple(e ^ 1 for e in d.top), d.loops
    )


def crosses(e1, e2) -> bool:
    """Whether two concrete edges must intersect.  Edges are
    ("T"|"B", p, q) arcs with p < q, or ("V", top_pos, bottom_pos)."""
    k1, a1, b1 = e1
    k2, a2, b2 = e2
    if k1 == "V" and k2 == "V":
        return (a1 - a2) * (b1 - b2) <= 0
    if k1 == "V":
        e1, e2 = e2, e1
        k1, a1, b1 = e1
        k2, a2, b2 = e2
    if k2 == "V":
        # arc vs vertical: only the endpoint on the arc's side matters
        end = a2 if k1 == TOP else b2
        return a1 < end < b1
    if k1 != k2:
        return False
    return (a1 < a2 < b1 < b2) or (a2 < a1 < b2 < b1)


def validate_bruteforce(d) -> list[str]:
    """Invariant violations of a well-shaped diagram, one crossing problem
    per crossing translate found in the scanned window."""
    problems = _involution_problems(d)
    if problems:
        return problems
    top_arcs, bottom_arcs, verticals = edge_list(d)
    if d.loops and verticals:
        problems.append("loops with vertical edges")
    if len(top_arcs) != len(bottom_arcs):
        problems.append("unbalanced short-arc counts")
    edges = (
        [(TOP, p, q) for p, q in top_arcs]
        + [(BOT, p, q) for p, q in bottom_arcs]
        + [("V", p, q) for p, q in verticals]
    )
    span = max((abs(e[2] - e[1]) for e in edges), default=0)
    reach = span // d.n + 2
    for i, e1 in enumerate(edges):
        for j, e2 in enumerate(edges):
            if j < i:
                continue
            for m in range(-reach, reach + 1):
                if i == j and m == 0:
                    continue
                shifted = (e2[0], e2[1] + m * d.n, e2[2] + m * d.n)
                if crosses(e1, shifted):
                    problems.append(f"crossing pair {e1} / {shifted}")
    return problems


def innermost_cover_bruteforce(n: int, arcs, k: int) -> tuple[int, int] | None:
    """Among arc lifts strictly covering positions (k, k+1), the one with
    the largest left endpoint; None if no arc covers."""
    best = None
    for p, q in arcs:
        reach = (q - p) // n + 2
        for m in range(-reach, reach + 1):
            lo, hi = p + m * n, q + m * n
            if lo < k and hi > k + 1:
                if best is None or lo > best[0]:
                    best = (lo, hi)
    return best


def commutes(cfg, i, j):
    return i == j or not cfg.adjacent(i, j)


def greedy_front_adjacent(cfg, word, s):
    """A word for the same element starting with s, or None."""
    cfg.check_generator(s)
    word = tuple(word)
    for p, letter in enumerate(word):
        if letter == s:
            return (s,) + word[:p] + word[p + 1:]
        if cfg.adjacent(letter, s):
            return None
    return None


def greedy_back_adjacent(cfg, word, s):
    moved = greedy_front_adjacent(cfg, tuple(reversed(word)), s)
    return tuple(reversed(moved)) if moved is not None else None


def commutation_class_adjacent(cfg, word, cap=500_000):
    """All words obtainable by swapping adjacent commuting letters."""
    start = check_word(cfg, word)
    seen = {start}
    stack = [start]
    while stack:
        w = stack.pop()
        for i in range(len(w) - 1):
            a, b = w[i], w[i + 1]
            if a != b and not cfg.adjacent(a, b):
                w2 = w[:i] + (b, a) + w[i + 2:]
                if w2 not in seen:
                    if len(seen) >= cap:
                        raise RuntimeError("commutation class exceeds cap")
                    seen.add(w2)
                    stack.append(w2)
    return frozenset(seen)


def heap_reach_matrix(cfg, word):
    """Heap order as a boolean matrix: position i precedes j when i < j and
    the letters are equal or adjacent, closed transitively."""
    m = len(word)
    direct = [[i < j and (word[i] == word[j] or cfg.adjacent(word[i], word[j]))
               for j in range(m)] for i in range(m)]
    reach = [row[:] for row in direct]
    for i in range(m - 2, -1, -1):
        for j in range(i + 1, m):
            if not reach[i][j]:
                reach[i][j] = any(direct[i][k] and reach[k][j] for k in range(i + 1, j))
    return reach


def a_bruteforce_adjacent(cfg, word):
    """Largest commuting block appearing as a contiguous factor of some
    word in the commutation class, blocks kept as sets."""
    best = 0
    for u in commutation_class_adjacent(cfg, word):
        for a in range(len(u)):
            block = set()
            for b in range(a, len(u)):
                x = u[b]
                if x in block or any(cfg.adjacent(x, y) for y in block):
                    break
                block.add(x)
            best = max(best, len(block))
    return best


def straight_diagram_checked(n, commuting):
    """The straight diagram of a generator set, or None when the built
    window arrays are not an involution (some two generators adjacent)."""
    top = [(BOT, j) for j in range(1, n + 1)]
    bottom = [(TOP, j) for j in range(1, n + 1)]
    for i in sorted(commuting):
        for side, row in ((TOP, top), (BOT, bottom)):
            for a, b in ((i, i + 1), (i + 1, i)):
                # the window representative of the partner of the node at a
                c = class_of(n, a)
                row[c - 1] = (side, b + c - a)
    d = window(n, top, bottom)
    return None if _involution_problems(d) else d


def multiply_by_partner(a, b):
    """Stack a on top of b, tracing every step through partner/class_of."""
    n = a.n
    touched = [False] * (n + 1)

    def walk(in_a, side, pos):
        for _ in range(2 * n + 4):
            if in_a:
                side, pos = partner(a, side, pos)
                if side == TOP:
                    return (TOP, pos)
                in_a, side = False, TOP
            else:
                side, pos = partner(b, side, pos)
                if side == BOT:
                    return (BOT, pos)
                in_a, side = True, BOT
            touched[class_of(n, pos)] = True
        raise InvariantError("runaway connectivity trace")

    top_row = tuple(walk(True, TOP, i) for i in range(1, n + 1))
    bottom_row = tuple(walk(False, BOT, i) for i in range(1, n + 1))
    contractible = winding = 0
    done = [False] * (n + 1)
    for c in range(1, n + 1):
        if touched[c] or done[c]:
            continue
        pos = c
        for _ in range(n + 2):
            side, pos = partner(a, BOT, pos)
            assert side == BOT
            done[class_of(n, pos)] = True
            side, pos = partner(b, TOP, pos)
            assert side == TOP
            done[class_of(n, pos)] = True
            if class_of(n, pos) == c:
                break
        else:
            raise InvariantError("runaway middle cycle")
        offset = (pos - c) // n
        if offset == 0:
            contractible += 1
        else:
            assert abs(offset) == 1
            winding += 1
    diagram = window(n, top_row, bottom_row, a.loops + b.loops + winding)
    return ProductResult(diagram, contractible)


def nu_vector_per_class(d):
    """Crossing numbers of the n lines, each summed over every edge: the
    integers m with lo <= k + m*n <= hi - 1 lift the line between classes
    k and k+1 into the edge's span lo..hi."""
    n = d.n
    top_arcs, bottom_arcs, verticals = edge_list(d)
    spans = [(p, q) for p, q in top_arcs + bottom_arcs]
    spans += [(min(p, q), max(p, q)) for p, q in verticals]
    out = []
    for k in range(1, n + 1):
        total = d.loops
        for lo, hi in spans:
            if hi - lo < 1:
                continue
            m_lo = -((lo - k) // -n)
            m_hi = (hi - 1 - k) // n
            if m_hi >= m_lo:
                total += m_hi - m_lo + 1
        out.append(total)
    return tuple(out)


def is_straight_by_construction(d):
    """The top descent set S when d equals the straight diagram of S."""
    if d.loops:
        return None
    s = descent_arcs(d, TOP)
    try:
        candidate = straight_diagram(d.n, s)
    except ValueError:
        return None
    return s if d == candidate else None


def mul_pairwise(a, b):
    """Bilinear extension of diagram stacking, one Laurent product
    ca * cb * delta**k per basis pair."""
    if a.n != b.n:
        raise ValueError("mismatched sizes")
    out = {}
    for da, ca in a.terms.items():
        for db, cb in b.terms.items():
            r = multiply(da, db)
            if r.contractible < 0:
                raise InvariantError("negative loop count in a product")
            coeff = ca * cb * delta_power(r.contractible)
            out[r.diagram] = out.get(r.diagram, ZERO) + coeff
    return AlgebraElement(a.n, out)


def coeff_json(p: LaurentPoly) -> list[dict]:
    """A coefficient's JSON list: one {"exp", "c"} object per term."""
    return [{"exp": e, "c": c} for e, c in p.terms]


def element_json_dict(a: AlgebraElement) -> dict:
    """An element's JSON object, built as a dict for `json.dumps`: terms in
    canonical diagram order, each with its coefficient and canonical word."""
    return {
        "n": a.n,
        "terms": [
            {"coeff": coeff_json(c), "word": list(straighten(d).letters)}
            for d, c in a.items_sorted()
        ],
    }


def element_from_json_by_sums(obj: dict) -> AlgebraElement:
    """Load an element with one Laurent product and one Laurent sum per
    term: its coefficient times delta to the loops its word closes, added
    into its diagram's total."""
    cfg = GroupConfig(obj["n"])
    out = {}
    for t in obj["terms"]:
        r = stack(cfg, t["word"])
        coeff = LaurentPoly.from_json(t["coeff"]) * delta_power(r.contractible)
        out[r.diagram] = out.get(r.diagram, ZERO) + coeff
    return AlgebraElement(cfg.n, out)


def cancellable_by_stacking(cfg, word, s, side):
    """The first t in cfg.neighbours_of(s) with E_t E_w (left) or E_w E_t
    (right) equal to the element with the descent s removed, by stacking
    and comparing diagrams."""
    word = tuple(word)
    full = stack(cfg, word).diagram
    if side == "left":
        moved = greedy_front(cfg, word, s)
        if moved is None:
            raise ValueError(f"{s} is not a left descent")
        target = stack(cfg, moved[1:]).diagram
        for t in cfg.neighbours_of(s):
            if generator_times(t, full) == target:
                return t
        return None
    if side == "right":
        moved = greedy_back(cfg, word, s)
        if moved is None:
            raise ValueError(f"{s} is not a right descent")
        target = stack(cfg, moved[:-1]).diagram
        for t in cfg.neighbours_of(s):
            if times_generator(full, t) == target:
                return t
        return None
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def _has_braid_factor(cfg, w):
    return any(
        w[i] == w[i + 2] and cfg.adjacent(w[i], w[i + 1])
        for i in range(len(w) - 2)
    )


def class_has_braid(cfg, word):
    """Whether some word in the commutation class contains a factor sts
    with s, t adjacent: the definition of a non-FC word, by exhaustion.
    heap_is_fc is the fast equivalent for reduced words."""
    start = check_word(cfg, word)
    if _has_braid_factor(cfg, start):
        return True
    seen = {start}
    todo = [start]
    while todo:
        w = todo.pop()
        for i in range(len(w) - 1):
            a, b = w[i], w[i + 1]
            if a != b and not cfg.adjacent(a, b):
                w2 = w[:i] + (b, a) + w[i + 2:]
                if w2 not in seen:
                    if _has_braid_factor(cfg, w2):
                        return True
                    seen.add(w2)
                    todo.append(w2)
    return False


def braid_witness_by_class(cfg, word, t):
    """The first factorization u = w1 + (t, s) + w2, over the words u of the
    commutation class in lexicographic order, with s adjacent to t and t
    commuting with every letter of w2; None when no word of the class has
    one.  For a reduced FC word and a letter t that is not a right descent,
    it exists exactly when appending t breaks full commutativity."""
    for u in sorted(commutation_class_adjacent(cfg, word)):
        for p in range(len(u) - 1):
            if u[p] == t and cfg.adjacent(t, u[p + 1]) and all(
                commutes(cfg, t, x) for x in u[p + 2:]
            ):
                return BraidWitness(u[:p], u[p + 1], u[p + 2:])
    return None


def braid_witness_left(cfg, word, t):
    """Mirror statement of braid_witness for prepending t: word =
    w1 + (s, t) + w2 with t commuting with every letter of w1, returned
    with the same field names (w1 before s, w2 after t)."""
    m = braid_witness(cfg, tuple(reversed(word)), t)
    return BraidWitness(tuple(reversed(m.w2)), m.s, tuple(reversed(m.w1)))


def left_descents_greedy(cfg, word):
    return frozenset(
        s for s in cfg.generators() if greedy_front_adjacent(cfg, word, s) is not None
    )


def right_descents_greedy(cfg, word):
    return frozenset(
        s for s in cfg.generators() if greedy_back_adjacent(cfg, word, s) is not None
    )


def cancellable_greedy(cfg, word, s, side):
    """The first t in cfg.neighbours_of(s) that is a descent, on the same
    side, of the word with the descent s moved out by a greedy scan."""
    word = check_word(cfg, word)
    if side == "left":
        find, cut = greedy_front_adjacent, slice(1, None)
    elif side == "right":
        find, cut = greedy_back_adjacent, slice(None, -1)
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    moved = find(cfg, word, s)
    if moved is None:
        raise ValueError(f"{s} is not a {side} descent")
    rest = moved[cut]
    for t in cfg.neighbours_of(s):
        if find(cfg, rest, t) is not None:
            return t
    return None


_DESCENTS_GREEDY = {"left": left_descents_greedy, "right": right_descents_greedy}


def cancel_options_greedy(cfg, word, sides=("left", "right")):
    """The (s, left) steps: each side's cancellable descents, ascending."""
    return [
        (s, side == "left")
        for side in sides
        for s in sorted(_DESCENTS_GREEDY[side](cfg, word))
        if cancellable_greedy(cfg, word, s, side) is not None
    ]


def reduce_to_core_greedy(cfg, word, rng=None):
    """The core word left when descents are cancelled until none is
    cancellable, removing each cancelled descent with a greedy scan."""
    w = check_word(cfg, word)
    while options := cancel_options_greedy(cfg, w):
        s, left = options[0] if rng is None else rng.choice(options)
        if left:
            w = greedy_front_adjacent(cfg, w, s)[1:]
        else:
            w = greedy_back_adjacent(cfg, w, s)[:-1]
    return w


def left_decomposition_greedy(cfg, word):
    """Blocks of the left decomposition, by peeling the left descent set
    with greedy scans until the word is empty."""
    w = check_word(cfg, word)
    groups = []
    while w:
        g = left_descents_greedy(cfg, w)
        for s in sorted(g):
            w = greedy_front_adjacent(cfg, w, s)[1:]
        groups.append(g)
    return tuple(groups)


def right_cell_involution_by_reduction(cfg, word):
    """right_cell_involution by cancelling right descents only, with greedy
    scans, and rebuilding y q y^-1 from the right decomposition of what is
    left: q is its last block, or its trailing run of half-size blocks at
    even n, which must be odd in number (else M_NONSQUARE), and y the
    blocks before q."""
    w = check_word(cfg, word)
    while options := cancel_options_greedy(cfg, w, ("right",)):
        w = greedy_back_adjacent(cfg, w, options[0][0])[:-1]
    groups = left_decomposition_greedy(cfg, w[::-1])[::-1]
    j = max(len(groups) - 1, 0)
    if groups and 2 * len(groups[-1]) == cfg.n:
        while j > 0 and 2 * len(groups[j - 1]) == cfg.n:
            j -= 1
        if (len(groups) - j) % 2 == 0:
            return M_NONSQUARE
    y = tuple(s for g in groups[:j] for s in sorted(g))
    q = tuple(s for g in groups[j:] for s in sorted(g))
    inv = y + q + y[::-1]
    p = reduced_perm(cfg, inv)
    assert p is not None and p.is_involution(), word
    return straighten(stack(cfg, inv).diagram).letters


def least_word_greedy(cfg, word, order):
    """The lexicographically least word of `word`'s commutation class, with
    letters compared by their position in `order`: the letter moved to the
    front each time is the lowest-ranked one that `greedy_front_adjacent`
    can move there."""
    rank = {s: i for i, s in enumerate(order)}
    rest, out = tuple(word), []
    while rest:
        s = min((s for s in set(rest) if greedy_front_adjacent(cfg, rest, s)), key=rank.get)
        rest = greedy_front_adjacent(cfg, rest, s)[1:]
        out.append(s)
    return tuple(out)


def enumerate_filtered(cfg, max_len, generator_order=None):
    """The breadth-first enumeration with the length filter: each extension
    is a general `multiply` by the generator's diagram, and it is kept only
    when it is loop-free, unseen and of length exactly the level's.  Yields
    (word, diagram, length, is_involution) with is_involution read as
    mirror(d) == d."""
    n = cfg.n
    order = generator_order or tuple(cfg.generators())
    start = identity(n)
    seen = {start}
    yield (), start, 0, mirror(start) == start
    frontier = [((), start)]
    for ln in range(1, max_len + 1):
        nxt = []
        for word, d in frontier:
            for s in order:
                r = multiply(d, generator(n, s))
                if r.contractible or r.diagram in seen or length(r.diagram) != ln:
                    continue
                seen.add(r.diagram)
                w2 = word + (s,)
                yield w2, r.diagram, ln, mirror(r.diagram) == r.diagram
                nxt.append((w2, r.diagram))
        frontier = nxt


def wc_counts(cfg, max_len):
    """Per-length element counts from the library enumeration, whose
    records are the least reduced FC words."""
    return dict(Counter(rec.length for rec in enumerate_elements(cfg, max_len)))


def congruence_candidates(d: AffineDiagram) -> dict[str, dict[int, tuple | None]]:
    """All classes qualifying for each peel kind.

    T1/B1 values are the innermost covering arc lift (None for the loop
    sub-case); T2/B2 values are the position k of the minimal arc (k, k+1)
    sitting right of the slanted strand.
    """
    n = d.n
    out: dict[str, dict[int, tuple | None]] = {"T1": {}, "B1": {}, "T2": {}, "B2": {}}
    top_arcs, bottom_arcs, _ = edge_list(d)
    for side, other, arcs in ((TOP, BOT, top_arcs), (BOT, TOP, bottom_arcs)):
        for k in sorted(descent_arcs(d, side)):
            cover = innermost_cover_bruteforce(n, arcs, k)
            if cover is not None or d.loops:
                out[side + "1"][k] = cover
            # A strand entering at the node left of a minimal arc and exiting
            # past the arc's far end marks the arc as slideable (T2 / B2).
            end, j = partner(d, side, k - 1)
            if end == other and j >= k + 1:
                out[side + "2"][class_of(n, k - 1)] = (k,)
    return out


def absorber_by_rescan(cfg, word, s, left):
    """The smallest neighbour of the descent s that is a descent, on the
    same side, of the word without its first (last) s, or 0."""
    rest = _DESCENTS_GREEDY["left" if left else "right"](cfg, drop_letter(word, s, left))
    return next((t for t in cfg.neighbours_of(s) if t in rest), 0)


def involution_decompose_by_rescan(cfg, word, rng=None):
    """involution_decompose by the pair test and one drop and rescan per
    left descent; the word must be a reduced word of an FC involution."""
    w = check_word(cfg, word)
    x = []
    while any(cfg.adjacent(a, b) for a in w for b in w):
        options = []
        for s in sorted(left_descents_greedy(cfg, w)):
            rest = drop_letter(w, s, True)
            if s in right_descents_greedy(cfg, rest):
                options.append((s, drop_letter(rest, s, False)))
        s, w = options[0] if rng is None else rng.choice(options)
        x.append(s)
    return InvolutionDecomposition(tuple(x), frozenset(w))


def perm_by_fold(cfg, word):
    """The word's affine permutation, every letter folded onto the
    identity, with no cache."""
    p = AffinePermutation.identity(cfg.n)
    for s in check_word(cfg, word):
        p = p.times_generator(s)
    return p


def perm_inverse(p: AffinePermutation) -> AffinePermutation:
    """The inverse permutation, its window read off p's."""
    out = [0] * p.n
    for i in range(1, p.n + 1):
        v = p.window[i - 1]
        c = (v - 1) % p.n + 1
        out[c - 1] = i - (v - c)
    return AffinePermutation(p.n, tuple(out))


def perm_length(p: AffinePermutation) -> int:
    """Coxeter length (periodic inversion count)."""
    w = p.window
    n = p.n
    total = 0
    for i in range(n):
        for j in range(i + 1, n):
            total += abs((w[j] - w[i]) // n)
    return total


def avoids_321_bruteforce(p):
    """Whether the affine permutation p has no positions i < j < k with
    p(i) > p(j) > p(k), scanning every triple of positions in 1 - n .. 2n
    whose middle lies in 1..n: a middle against the largest value before
    it and the smallest after it.  That range finds every pattern: a shift
    by a multiple of n puts j in 1..n, and the lifts of the classes of i
    and k within n of j, in j - n .. j - 1 and j + 1 .. j + n, form a
    pattern too."""
    n = p.n
    values = [p.image(i) for i in range(1 - n, 2 * n + 1)]  # position i at index i + n - 1
    return not any(max(values[:j]) > values[j] > min(values[j + 1:]) for j in range(n, 2 * n))


def is_reduced_word(cfg, word):
    """Diagram-engine test: the word is a reduced word of a fully
    commutative element iff no loop contracts and the length matches."""
    word = tuple(word)
    r = stack(cfg, word)
    return r.contractible == 0 and length(r.diagram) == len(word)


def is_fc_reduced(cfg, word):
    """Permutation-engine test: the word is reduced (`reduced_perm`) and
    its permutation avoids 321 (Green 2002)."""
    p = reduced_perm(cfg, word)
    return p is not None and avoids_321_bruteforce(p)


def commuting_sets(cfg):
    """All sets of pairwise non-adjacent generators (including the empty
    set), by size, then lexicographically."""
    return _independent_sets(cfg.n)


@cache
def _independent_sets(n):
    if n > 20:
        raise ValueError("independent-set enumeration capped at n <= 20")
    # by size, then lexicographically: the order combinations come in
    return tuple(
        frozenset(c)
        for k in range(n // 2 + 1)
        for c in combinations(range(1, n + 1), k)
        if all(b - a > 1 for a, b in zip(c, c[1:])) and not (k > 1 and c[0] == 1 and c[-1] == n)
    )


def alternating_word(cfg, start, factors):
    """Reduced word of the alternating product of the two maximal
    commuting sets, beginning with the given parity."""
    odd, even = cfg.alternating_sets()
    first, second = (odd, even) if start == "odd" else (even, odd)
    out = []
    for i in range(factors):
        out.extend(sorted(first if i % 2 == 0 else second))
    return tuple(out)


def core_neighbours_exhaustive(cfg, word):
    """core_neighbours by stacking every commuting set and, at even n,
    every alternating word up to len(q) + 2 letters against every
    generator."""
    w = tuple(word)
    if reduce_to_core(cfg, w) != w:
        raise ValueError("not a core element")
    n = cfg.n
    target = stack(cfg, w).diagram
    bound = len(w) + 2
    cands = [tuple(sorted(t)) for t in commuting_sets(cfg)]
    if n % 2 == 0:
        for start in ("odd", "even"):
            for f in range(2, (2 * bound) // n + 1):
                cands.append(alternating_word(cfg, start, f))
    stacked = [(cw, stack(cfg, cw).diagram) for cw in cands]
    out = set()
    for s in cfg.generators():
        for cw, dq in stacked:
            d = generator_times(s, dq)
            if d is not None and times_generator(d, s) == target:
                out.add((s, cw))
    return frozenset(out)
