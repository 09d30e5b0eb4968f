"""Test-only oracles: direct, slow restatements of library algorithms.

The diagram-validation oracles scan translates one period at a time over a
window wide enough for the coordinates involved, so their cost grows with
the coordinate magnitudes; the library computes the same answers in closed
form.  The word oracles test adjacency through the validating
`GroupConfig.adjacent` where the library reads bitmasks; `multiply_by_partner`
traces strands through `partner`/`class_of` where the library indexes the
windows; `straight_diagram_checked` builds the diagram and then checks it
is an involution, where the library checks the generator set; and
`is_straight_by_construction` compares with a built straight diagram where
the library reads the windows; `mul_pairwise` sums one Laurent product
per basis pair, where the library packs coefficients into integers; and
`cancellable_by_stacking` compares stacked diagrams, where the library
reads descents off the words; and the greedy formulations
(`left_descents_greedy`, `right_descents_greedy`, `cancellable_greedy`,
`cancel_options_greedy`, `reduce_to_core_greedy`,
`left_decomposition_greedy`) move each letter to the front or back with
`greedy_front_adjacent`/`greedy_back_adjacent`, one generator at a time,
where the library reads the heap's minimal and maximal elements off one
scan per side; and `enumerate_filtered` keeps an extension only after
computing its length and builds the mirror for the involution flag, where
the library relies on the length argument and compares the rows
entrywise.  The differential tests play each against its library
counterpart.  `class_has_braid` (the definition of full commutativity)
and `braid_witness_left` are reference statements used by the word tests,
and `braid_witness_by_class` finds the braid witness by searching the
sorted commutation class, where the library reads it off the heap.
`congruence_candidates` builds the qualifying classes of all four peel
kinds, where the library stops at the first kind that qualifies.
"""

from afftl.algebra import AlgebraElement
from afftl.cells import CancelStep, ReduceResult
from afftl.diagrams import (
    BOT,
    TOP,
    AffineDiagram,
    InvariantError,
    ProductResult,
    _involution_problems,
    _set_entry,
    class_of,
    descent_arcs,
    edge_list,
    generator,
    generator_times,
    identity,
    length,
    mirror,
    multiply,
    partner,
    straight_diagram,
    times_generator,
)
from afftl.laurent import ZERO, delta_power
from afftl.straightening import _innermost_cover, stack
from afftl.words import BraidWitness, braid_witness, check_word, greedy_back, greedy_front


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
        _set_entry(n, top, i, (TOP, i + 1))
        _set_entry(n, top, i + 1, (TOP, i))
        _set_entry(n, bottom, i, (BOT, i + 1))
        _set_entry(n, bottom, i + 1, (BOT, i))
    d = AffineDiagram(n, tuple(top), tuple(bottom), 0)
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
    diagram = AffineDiagram(n, top_row, bottom_row, a.loops + b.loops + winding)
    return ProductResult(diagram, contractible)


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
            r = generator_times(t, full)
            if r.contractible == 0 and r.diagram == target:
                return t
        return None
    if side == "right":
        moved = greedy_back(cfg, word, s)
        if moved is None:
            raise ValueError(f"{s} is not a right descent")
        target = stack(cfg, moved[:-1]).diagram
        for t in cfg.neighbours_of(s):
            r = times_generator(full, t)
            if r.contractible == 0 and r.diagram == target:
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
                cfg.commutes(t, x) for x in u[p + 2:]
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
    return [
        CancelStep(side, s, t)
        for side in sides
        for s in sorted(_DESCENTS_GREEDY[side](cfg, word))
        if (t := cancellable_greedy(cfg, word, s, side)) is not None
    ]


def reduce_to_core_greedy(cfg, word, rng=None):
    """Cancel descents until none is cancellable, removing each cancelled
    descent with a greedy scan."""
    w = check_word(cfg, word)
    trace = []
    while options := cancel_options_greedy(cfg, w):
        step = options[0] if rng is None else rng.choice(options)
        if step.side == "left":
            w = greedy_front_adjacent(cfg, w, step.s)[1:]
        else:
            w = greedy_back_adjacent(cfg, w, step.s)[:-1]
        trace.append(step)
    return ReduceResult(w, tuple(trace))


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
            cover = _innermost_cover(n, arcs, k)
            if cover is not None or d.loops:
                out[side + "1"][k] = cover
            # A strand entering at the node left of a minimal arc and exiting
            # past the arc's far end marks the arc as slideable (T2 / B2).
            end, j = partner(d, side, k - 1)
            if end == other and j >= k + 1:
                out[side + "2"][class_of(n, k - 1)] = (k,)
    return out
