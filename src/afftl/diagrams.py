"""Periodic planar matchings on two rows of nodes (cylinder diagrams).

An affine n-diagram matches the integer nodes of two infinite horizontal
rows so that the matching is invariant under shifting by n and no two
edges cross, together with a count of closed loops winding around the
cylinder (long horizontal edges; these coexist only with short horizontal
edges).  The window arrays store, for positions 1..n of each row, the
partner node in the universal cover as one int, 2 * pos + (side is the
bottom row), so `>> 1` reads the position, `& 1` the row, and adding 2k
shifts the node k positions; every other partner follows by periodicity.
A diagram is the NamedTuple (n, top, bottom, loops): equality and hashing
are the tuple's, so a diagram also equals a bare tuple of its four fields;
never compare it with one.  This module alone stores and reads the
windows, and only `node` and `node_ref` translate between entries and
(side, pos) pairs: other modules go through its functions.  One linear
pass over the edges builds a diagram's cached invariant record
(`Invariants`: crossing numbers, length or None when inadmissible, and
the short-arc count), and `crossing_numbers`, `crossing_number`,
`is_admissible`, `length` and `short_arc_count` read it, so asking again
is one cache lookup.

Multiplication stacks one diagram on top of another, identifies the middle
rows, and traces connectivity.  The product's rows start as the upper
diagram's top row and the lower one's bottom row, so their arcs need no
trace; each strand is traced once, writing both of its ends, first from
the upper top row's verticals, then from the lower bottom row's verticals
that no walk reached.  Middle cycles closing with zero offset
contract and are reported as an exponent of the loop scalar; cycles
closing with offset +-n wind the cylinder once and become long horizontal
edges of the product.  A product is the NamedTuple (diagram, contractible).

Stacking with a single generator E_s is a constant-size local action
(`times_generator`, `generator_times`): E_s joins nodes s and s+1 of the
touching row, and their former partners become partners of each other.
If those two nodes were already joined by a minimal arc the edit closes a
contractible loop: then E E_s = delta E (E_s E = delta E), and the action
returns None in place of its input.  Otherwise it returns the product
diagram; if the two nodes were joined by an arc around the rest of the
period, it closes a winding loop.  The general `multiply` stays for
products of arbitrary diagrams and as the cross-check of the local action.

Constructing an AffineDiagram checks nothing: internal constructions are
trusted.  Diagrams from outside are checked once, at the input boundary,
by `from_json_dict`, which rejects bad sides while parsing and runs
`validate` (shape, involution, balance, and planarity decided by one
linear sweep over two periods of each row, whose cost does not depend
on coordinate magnitudes).  Broken internal self-checks raise
`InvariantError`, which survives `python -O`.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import lru_cache
from itertools import accumulate
from typing import NamedTuple

from .config import CACHE_SIZE, InvariantError, json_int, json_list

TOP = "T"
BOT = "B"
_SIDES = (TOP, BOT)


class AffineDiagram(NamedTuple):
    n: int
    top: tuple[int, ...]
    bottom: tuple[int, ...]
    loops: int = 0

    def __post_init__(self):
        # Empty, and nothing calls it any more: a NamedTuple has no
        # construction hook.  Kept only because perfbench/tracer.py patches
        # it by name to count constructions.
        pass


class ProductResult(NamedTuple):
    diagram: AffineDiagram
    contractible: int


def node(side: str, pos: int) -> int:
    """The window entry naming the node at cover position pos of side's row."""
    return 2 * pos + (side == BOT)


def node_ref(entry: int) -> tuple[str, int]:
    """The (side, pos) pair a window entry names."""
    return _SIDES[entry & 1], entry >> 1


def class_of(n: int, pos: int) -> int:
    return (pos - 1) % n + 1


def partner(d: AffineDiagram, side: str, pos: int) -> tuple[str, int]:
    """Partner of the node at an arbitrary cover position, by periodicity."""
    c = (pos - 1) % d.n
    row = d.top if side == TOP else d.bottom
    return node_ref(row[c] + 2 * (pos - 1 - c))


def _check_n(n: int) -> None:
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")


def identity(n: int) -> AffineDiagram:
    return straight_diagram(n, ())


def generator(n: int, i: int) -> AffineDiagram:
    """The diagram joining i and i+1 in both rows, all other classes vertical."""
    if not 1 <= i <= n:
        raise ValueError(f"generator index {i} out of range 1..{n}")
    return straight_diagram(n, (i,))


def straight_diagram(n: int, commuting: Iterable[int]) -> AffineDiagram:
    """The diagram of a product of pairwise non-adjacent generators."""
    _check_n(n)
    gens = sorted(commuting)
    for i in gens:
        if not 1 <= i <= n:
            raise ValueError(f"generator index {i} out of range 1..{n}")
    chosen = set(gens)
    if any(i % n + 1 in chosen for i in chosen):
        raise ValueError("generators are not pairwise non-adjacent")
    top = tuple(node(BOT, j) for j in range(1, n + 1))
    bottom = tuple(node(TOP, j) for j in range(1, n + 1))
    arcs = [(i, i + 1) for i in chosen]
    return join_arcs(join_arcs(AffineDiagram(n, top, bottom, 0), TOP, arcs), BOT, arcs)


def is_straight(d: AffineDiagram) -> frozenset[int] | None:
    """The set S with d == straight_diagram(d.n, S) (the empty set for the
    identity), or None when there is none."""
    if d.loops:
        return None
    # Every class is an unshifted vertical or an end of a minimal arc
    # mirrored on the bottom row, and right ends partner the left ends.
    lefts, rights = set(), set()
    for i, (t, b) in enumerate(zip(d.top, d.bottom), 1):
        if t & 1:
            if t != node(BOT, i) or b != node(TOP, i):
                return None
        elif (t >> 1) - i in (1, -1) and b == t + 1:
            (lefts if t >> 1 > i else rights).add(i)
        else:
            return None
    if {i % d.n + 1 for i in lefts} != rights:
        return None
    return frozenset(lefts)


def join_arcs(d: AffineDiagram, side: str, arcs) -> AffineDiagram:
    """d with p and q joined on `side`'s row for each (p, q) in arcs; the
    caller rejoins every node whose old arc the list breaks."""
    n = d.n
    entries = list(d.top if side == TOP else d.bottom)
    for p, q in arcs:
        # the node at p sits p - 1 - c right of window entry c
        for a, b in ((p, q), (q, p)):
            c = (a - 1) % n
            entries[c] = node(side, b - (a - 1 - c))
    if side == TOP:
        return AffineDiagram(n, tuple(entries), d.bottom, d.loops)
    return AffineDiagram(n, d.top, tuple(entries), d.loops)


def edge_list(d: AffineDiagram):
    """One lift per edge orbit: (top arcs, bottom arcs, verticals).

    Arcs are (p, q) with p in 1..n and p < q; verticals are (top position
    in 1..n, bottom position).
    """
    top_arcs = []
    bottom_arcs = []
    verticals = []
    for i, (t, b) in enumerate(zip(d.top, d.bottom), 1):
        if t & 1:
            verticals.append((i, t >> 1))
        elif t >> 1 > i:
            top_arcs.append((i, t >> 1))
        if b & 1 and b >> 1 > i:
            bottom_arcs.append((i, b >> 1))
    return top_arcs, bottom_arcs, verticals


def _involution_problems(d: AffineDiagram) -> list[str]:
    problems = []
    for side, row in ((TOP, d.top), (BOT, d.bottom)):
        for i, entry in enumerate(row, 1):
            if entry == node(side, i):
                problems.append(f"fixed point at {side}{i}")
            elif partner(d, *node_ref(entry)) != (side, i):
                problems.append(f"involution breach at {side}{i}")
    return problems


def _first_crossing(d: AffineDiagram, top_arcs, bottom_arcs, verticals):
    """Two crossing edge lifts of an involution, or None when it is planar.

    Edges are (side, p, q) arcs with p < q, or ("V", top_pos, bottom_pos).
    Each of the three steps is linear in n whatever the coordinates:
    1. an arc spanning n or more positions crosses its own translate;
    2. two shorter crossing arcs, or such an arc and a vertical end inside
       it, have a translate in positions 1..2n (shift a1 < a2 < b1 < b2 to
       a1 in 1..n, so b1 < a1 + n <= 2n; if b2 > 2n, then a2 > b2 - n > n
       and a2 - n < a1 < b2 - n < b1, as a2 < b1 < a1 + n): one matching-
       parentheses scan of those positions per row finds an arc closing
       inside another, or a vertical end inside an open arc;
    3. verticals cross exactly when their bottom ends leave the order of
       their top ends, the first one's translate closing the period.
    """
    n = d.n
    for side, arcs in ((TOP, top_arcs), (BOT, bottom_arcs)):
        for p, q in arcs:
            if q - p >= n:
                return (side, p, q), (side, p + n, q + n)
    for side, row in ((TOP, d.top), (BOT, d.bottom)):
        bit = side == BOT
        opened = []  # arc lifts (p, q) in 1..2n whose right end is ahead
        for x in range(1, 2 * n + 1):
            c = (x - 1) % n
            entry = row[c] + 2 * (x - 1 - c)
            y = entry >> 1
            if entry & 1 != bit:
                if opened:
                    vertical = ("V", x, y) if side == TOP else ("V", y, x)
                    return (side, *opened[-1]), vertical
            elif y > x:
                if y <= 2 * n:
                    opened.append((x, y))
            elif y >= 1:
                if opened[-1][0] != y:
                    return (side, y, x), (side, *opened[-1])
                opened.pop()
    wrap = [(a + n, b + n) for a, b in verticals[:1]]
    for (a1, b1), (a2, b2) in zip(verticals, verticals[1:] + wrap):
        if b2 <= b1:
            return ("V", a1, b1), ("V", a2, b2)
    return None


def validate(d: AffineDiagram) -> list[str]:
    """All invariant violations (empty list means the diagram is valid).

    Planarity is decided by one linear sweep that stops at the first
    crossing, so at most one crossing pair is reported.
    """
    if not isinstance(d.n, int) or d.n < 3:
        return [f"need n >= 3, got {d.n!r}"]
    if len(d.top) != d.n or len(d.bottom) != d.n:
        return ["partner arrays must have n entries"]
    if not isinstance(d.loops, int) or d.loops < 0:
        return [f"bad loop count {d.loops!r}"]
    problems = _involution_problems(d)
    if problems:
        return problems
    top_arcs, bottom_arcs, verticals = edge_list(d)
    if d.loops and verticals:
        problems.append("loops with vertical edges")
    if len(top_arcs) != len(bottom_arcs):
        problems.append("unbalanced short-arc counts")
    crossing = _first_crossing(d, top_arcs, bottom_arcs, verticals)
    if crossing:
        problems.append(f"crossing pair {crossing[0]} / {crossing[1]}")
    return problems


class Invariants(NamedTuple):
    """What a diagram's edges determine, computed once per diagram: the
    crossing numbers, the length (None when the diagram is inadmissible)
    and the number of short horizontal edges per period."""
    nu: tuple[int, ...]
    length: int | None
    short_arcs: int


@lru_cache(maxsize=CACHE_SIZE)
def _nu_vector(d: AffineDiagram) -> Invariants:
    # An edge spanning lo..hi crosses the line after class k once per x in
    # lo..hi-1 with x = k mod n: (hi - lo) // n times each line, once more
    # the (hi - lo) % n lines from lo's class on.  Those runs fill a
    # difference array over two periods, folded onto one: O(n + edges).
    n = d.n
    top_arcs, bottom_arcs, verticals = edge_list(d)
    laps = d.loops
    diff = [0] * (2 * n)
    for p, q in top_arcs + bottom_arcs + verticals:
        lo, hi = (p, q) if p < q else (q, p)
        whole, rest = divmod(hi - lo, n)
        laps += whole
        start = (lo - 1) % n
        diff[start] += 1
        diff[start + rest] -= 1
    runs = list(accumulate(diff))
    nu = tuple(laps + runs[k] + runs[k + n] for k in range(n))
    # Admissible: the identity, or at least one horizontal edge and every
    # crossing number even.  A valid diagram crossing no line is the
    # identity, and one with a horizontal edge has a short top arc (top
    # and bottom arcs balance, so not every top node is on a vertical) or
    # a winding loop.
    total = sum(nu)
    if total and ((not d.loops and len(verticals) == n) or any(v & 1 for v in nu)):
        ell = None
    else:
        ell = total // 2
    return Invariants(nu, ell, len(top_arcs) + len(bottom_arcs))


def crossing_numbers(d: AffineDiagram) -> tuple[int, ...]:
    """Every `crossing_number` of d, for k = 1..n in order."""
    return _nu_vector(d).nu


def crossing_number(d: AffineDiagram, k: int) -> int:
    """Crossings of the diagram with the vertical line between classes k
    and k+1, drawn geodesically; each winding loop contributes 1."""
    if not 1 <= k <= d.n:
        raise ValueError(f"class {k} out of range 1..{d.n}")
    return _nu_vector(d).nu[k - 1]


def is_admissible(d: AffineDiagram) -> bool:
    """Identity, or at least one horizontal edge and all crossing numbers even."""
    return _nu_vector(d).length is not None


def length(d: AffineDiagram) -> int:
    """Half the total crossing count; defined for admissible diagrams."""
    ell = _nu_vector(d).length
    if ell is None:
        raise ValueError("length is defined for admissible diagrams only")
    return ell


def short_arc_count(d: AffineDiagram) -> int:
    """Number of short horizontal edges per period (top plus bottom)."""
    return _nu_vector(d).short_arcs


def innermost_cover(d: AffineDiagram, side: str, k: int) -> tuple[int, int] | None:
    """The arc lift on side's row with the largest left end strictly over
    the minimal arc (k, k+1), or None.  Walking left from k - 1, an arc
    closing at j is passed whole and a vertical end, by planarity, means no
    cover; arcs span fewer than n positions, so the walk stops at k + 1 - n."""
    n, bit = d.n, side == BOT
    row = d.bottom if bit else d.top
    j = k - 1
    while j > k + 1 - n:
        c = (j - 1) % n
        e = row[c] + 2 * (j - 1 - c)
        if e & 1 != bit:
            return None
        if e >> 1 > j:
            return j, e >> 1
        j = (e >> 1) - 1
    return None


def descent_arcs(d: AffineDiagram, side: str) -> frozenset[int]:
    """Classes i whose nodes i, i+1 on the given row are joined by a
    minimal arc; for a stacked word diagram this is the descent set.
    `node`'s encoding, 2 * pos + bit, is inlined."""
    bit = side == BOT
    row = d.bottom if bit else d.top
    return frozenset(i for i, e in enumerate(row, 1) if e == 2 * i + 2 + bit)


def multiply(a: AffineDiagram, b: AffineDiagram) -> ProductResult:
    """Stack a on top of b; returns the composite diagram and the number of
    contractible middle loops (the exponent of the loop scalar).

    The product's rows start as a's top row and b's bottom row, whose arcs
    stay.  Each strand is traced once: first from every vertical of a's top
    row that no earlier strand ended at, then from every vertical of b's
    bottom row whose middle node no walk touched; one walk writes both ends.
    Middle classes no walk touched close into loops.
    """
    if a.n != b.n:
        raise ValueError(f"mismatched sizes {a.n} and {b.n}")
    n = a.n
    a_bottom, b_top = a.bottom, b.top
    # Window entries are read directly: the partner of the node at cover
    # position pos is row[c] shifted by pos - 1 - c, with c = (pos - 1) % n.
    # touched[c] and done[c] mark middle-row class c + 1.  A strand visits
    # each middle class at most once, so a walk still on the middle row
    # after n + 1 round trips has run away.
    touched = [False] * n
    top_row, bottom_row = list(a.top), list(b.bottom)
    # a strand leaving a's top row runs down through b, then up through a,
    # until it exits b's bottom row (bit 1) or a's top row (bit 0); the list
    # iterator sees the far ends written by earlier walks, which are arcs
    for i, e in enumerate(top_row):
        if not e & 1:
            continue
        pos = e >> 1
        c = (pos - 1) % n
        touched[c] = True
        e = b_top[c]
        pos += (e >> 1) - 1 - c
        hops = n + 2
        while not e & 1:  # back on the middle row
            hops -= 1
            if not hops:
                raise InvariantError("runaway connectivity trace")
            c = (pos - 1) % n
            touched[c] = True
            e = a_bottom[c]
            pos += (e >> 1) - 1 - c
            if not e & 1:
                break  # out through a's top row
            c = (pos - 1) % n
            touched[c] = True
            e = b_top[c]
            pos += (e >> 1) - 1 - c
        # the far end sits at cover position pos of row e & 1, shift
        # positions right of its window entry c
        top_row[i] = 2 * pos + (e & 1)
        c = (pos - 1) % n
        (bottom_row if e & 1 else top_row)[c] = 2 * (i + 1 - (pos - 1 - c))
    # a strand leaving b's bottom row runs up through a, then down through
    # b; every strand reaching a's top row was traced above
    for i, e in enumerate(b.bottom):
        if e & 1:
            continue
        pos = e >> 1
        c = (pos - 1) % n
        if touched[c]:
            continue
        touched[c] = True
        e = a_bottom[c]
        pos += (e >> 1) - 1 - c
        hops = n + 2
        while e & 1:  # back on the middle row
            hops -= 1
            if not hops:
                raise InvariantError("runaway connectivity trace")
            c = (pos - 1) % n
            touched[c] = True
            e = b_top[c]
            pos += (e >> 1) - 1 - c
            if e & 1:
                break  # out through b's bottom row
            c = (pos - 1) % n
            touched[c] = True
            e = a_bottom[c]
            pos += (e >> 1) - 1 - c
        else:
            raise InvariantError("strand from the bottom row reached the top row")
        bottom_row[i] = 2 * pos + 1
        c = (pos - 1) % n
        bottom_row[c] = 2 * (i + 1 - (pos - 1 - c)) + 1

    contractible = 0
    winding = 0
    if False in touched:  # some middle classes close into loops
        done = [False] * n
        for c in range(n):
            if touched[c] or done[c]:
                continue
            pos = c + 1
            for _ in range(n + 2):
                # pos's partner in a, then that node's partner in b: both on
                # the middle row unless the cycle escapes
                k = (pos - 1) % n
                e = a_bottom[k]
                if not e & 1:
                    raise InvariantError("middle cycle escaped through the top diagram")
                pos += (e >> 1) - 1 - k
                k = (pos - 1) % n
                done[k] = True
                e = b_top[k]
                if e & 1:
                    raise InvariantError("middle cycle escaped through the bottom diagram")
                pos += (e >> 1) - 1 - k
                k = (pos - 1) % n
                done[k] = True
                if k == c:
                    break
            else:
                raise InvariantError("runaway middle cycle")
            offset = (pos - 1 - c) // n
            if offset == 0:
                contractible += 1
            elif abs(offset) == 1:
                winding += 1
            else:
                raise InvariantError("middle cycle winds more than once")

    if winding and any(e & 1 for e in top_row):
        raise InvariantError("winding middle cycle alongside a through strand")
    loops = a.loops + b.loops + winding
    diagram = tuple.__new__(AffineDiagram, (n, tuple(top_row), tuple(bottom_row), loops))
    return tuple.__new__(ProductResult, (diagram, contractible))


def times_generator(d: AffineDiagram, s: int) -> AffineDiagram | None:
    """d stacked on top of E_s, by a constant-size edit of d's bottom row:
    the diagram of multiply(d, generator(d.n, s)), or None when that
    product closes a contractible loop and is delta times d."""
    return _generator_action(d, s, BOT)


def generator_times(s: int, d: AffineDiagram) -> AffineDiagram | None:
    """E_s stacked on top of d, by a constant-size edit of d's top row:
    the diagram of multiply(generator(d.n, s), d), or None when that
    product closes a contractible loop and is delta times d."""
    return _generator_action(d, s, TOP)


def _generator_action(d: AffineDiagram, s: int, side: str) -> AffineDiagram | None:
    # `side` is d's row that touches E_s.  E_s joins that row's nodes s and
    # s+1, whose partners in d are x and y, and gives the product a fresh
    # arc (s, s+1) on that row.  Node s is window entry s - 1; node s+1 is
    # window entry t shifted by s - t.  Only the rows the edit writes are
    # copied; the entry of a node at cover position p is window entry
    # (p - 1) % n, stored shifted by the node's offset from the window.
    # `node`'s encoding, 2 * pos + bit, is inlined on this hot path.
    n = d.n
    if not 1 <= s <= n:
        raise ValueError(f"generator index {s} out of range 1..{n}")
    bit = side == BOT
    row, other = (d.bottom, d.top) if bit else (d.top, d.bottom)
    x = row[s - 1]
    if x == 2 * s + 2 + bit:
        # the minimal arc (s, s+1) and E_s's arc close a contractible loop
        return None
    t = s % n
    edited = list(row)
    loops = d.loops
    if x == 2 * (s + 1 - n) + bit:
        # the arc (s+1-n, s) and E_s's arcs close a loop around the cylinder
        if any(e & 1 for e in d.top):
            raise InvariantError("winding loop alongside a through strand")
        loops += 1
    else:
        y = row[t] + 2 * (s - t)
        x_near, y_near = x & 1 == bit, y & 1 == bit
        px, py = x >> 1, y >> 1
        if (x_near and (px - s) % n < 2) or (y_near and (py - s) % n < 2):
            raise InvariantError(f"generator action met a broken matching at {side}{s}")
        # x and y become partners of each other; the far row is copied only
        # when one of them lies on it
        far = edited if x_near and y_near else list(other)
        cx, cy = (px - 1) % n, (py - 1) % n
        (edited if x_near else far)[cx] = y + 2 * (cx + 1 - px)
        (edited if y_near else far)[cy] = x + 2 * (cy + 1 - py)
        if far is not edited:
            other = tuple(far)
    edited[s - 1] = 2 * s + 2 + bit
    edited[t] = 2 * t + bit
    if bit:
        return AffineDiagram(n, other, tuple(edited), loops)
    return AffineDiagram(n, tuple(edited), other, loops)


def canonical_key(d: AffineDiagram) -> bytes:
    """Injective deterministic serialization usable as an equality key."""
    parts = [str(d.n), str(d.loops)]
    for row in (d.top, d.bottom):
        parts.extend(f"{_SIDES[e & 1]}{e >> 1}" for e in row)
    return "|".join(parts).encode("ascii")


def to_json_dict(d: AffineDiagram) -> dict:
    return {
        "n": d.n,
        "top": [{"side": s, "pos": p} for s, p in map(node_ref, d.top)],
        "bottom": [{"side": s, "pos": p} for s, p in map(node_ref, d.bottom)],
        "loops": d.loops,
    }


def _json_node(obj) -> int:
    side, pos = obj["side"], json_int(obj["pos"], "pos")
    if side not in _SIDES:
        raise ValueError(f"invalid diagram: malformed node reference {(side, pos)!r}")
    return node(side, pos)


def from_json_dict(obj: dict) -> AffineDiagram:
    """Load a diagram from JSON: the one place where input is validated."""
    try:
        n = json_int(obj["n"], "n")
        top, bottom = (
            tuple(map(_json_node, json_list(obj[key], key))) for key in ("top", "bottom")
        )
        loops = json_int(obj.get("loops", 0), "loops")
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed diagram JSON: {exc}") from exc
    d = AffineDiagram(n, top, bottom, loops)
    problems = validate(d)
    if problems:
        raise ValueError(f"invalid diagram: {problems[0]}")
    return d


def is_mirror_symmetric(d: AffineDiagram) -> bool:
    """Whether swapping the two rows, the anti-automorphism that maps the
    diagram of w to that of w^-1, leaves d unchanged: the bottom row is the
    top row with each entry's row bit flipped."""
    return d.bottom == tuple([t ^ 1 for t in d.top])


def top_involution(d: AffineDiagram) -> AffineDiagram:
    """The mirror-symmetric diagram with d's top arcs and loops and every
    vertical straight: the one involution d's right cell can hold (`cells`)."""
    top = tuple(node(BOT, i) if t & 1 else t for i, t in enumerate(d.top, 1))
    return AffineDiagram(d.n, top, tuple(e ^ 1 for e in top), d.loops)
