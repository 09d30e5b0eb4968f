"""Periodic planar matchings on two rows of nodes (cylinder diagrams).

An affine n-diagram matches the integer nodes of two infinite horizontal
rows so that the matching is invariant under shifting by n and no two
edges cross, together with a count of closed loops winding around the
cylinder (long horizontal edges; these coexist only with short horizontal
edges).  The window arrays store, for positions 1..n of each row, the
partner node as a (side, position) pair in the universal cover; every
other partner follows by periodicity.  A diagram is the NamedTuple
(n, top, bottom, loops) and a product the NamedTuple (diagram,
contractible): equality and hashing are the tuple's, so a diagram also
equals a bare tuple of its four fields; never compare it with one.  This
module alone stores and reads the windows: other modules go through its
functions.  Crossing numbers take one linear pass over the edges.

Multiplication stacks one diagram on top of another, identifies the middle
rows, and traces connectivity.  Middle cycles closing with zero offset
contract and are reported as an exponent of the loop scalar; cycles
closing with offset +-n wind the cylinder once and become long horizontal
edges of the product.

Stacking with a single generator E_s is a constant-size local action
(`times_generator`, `generator_times`): E_s joins nodes s and s+1 of the
touching row, and their former partners become partners of each other.
If those two nodes were already joined by a minimal arc the edit closes a
contractible loop; if they were joined by an arc around the rest of the
period, it closes a winding loop.  The general `multiply` stays for
products of arbitrary diagrams and as the cross-check of the local action.

Constructing an AffineDiagram checks nothing: internal constructions are
trusted.  Diagrams from outside are checked once, at the input boundary,
by `from_json_dict`, which runs `validate` (shape, involution, balance,
and a closed-form periodic crossing test whose cost does not depend on
coordinate magnitudes).  Broken internal self-checks raise
`InvariantError`, which survives `python -O`.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import lru_cache
from itertools import accumulate
from typing import NamedTuple

from .laurent import json_int, json_list

TOP = "T"
BOT = "B"

NodeRef = tuple[str, int]


class InvariantError(Exception):
    """An internal self-check failed: a bug, never a property of the input."""


class AffineDiagram(NamedTuple):
    n: int
    top: tuple[NodeRef, ...]
    bottom: tuple[NodeRef, ...]
    loops: int = 0

    def __post_init__(self):
        # Empty, and nothing calls it any more: a NamedTuple has no
        # construction hook.  Kept only because perfbench/tracer.py patches
        # it by name to count constructions.
        pass


class ProductResult(NamedTuple):
    diagram: AffineDiagram
    contractible: int


def class_of(n: int, pos: int) -> int:
    return (pos - 1) % n + 1


def partner(d: AffineDiagram, side: str, pos: int) -> NodeRef:
    """Partner of the node at an arbitrary cover position, by periodicity."""
    c = class_of(d.n, pos)
    row = d.top if side == TOP else d.bottom
    s2, p2 = row[c - 1]
    return (s2, p2 + (pos - c))


def _set_entry(n: int, entries: list[NodeRef], pos: int, target: NodeRef) -> None:
    # store the window representative of the partner of the node at `pos`
    c = class_of(n, pos)
    entries[c - 1] = (target[0], target[1] + (c - pos))


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
    top = tuple((BOT, j) for j in range(1, n + 1))
    bottom = tuple((TOP, j) for j in range(1, n + 1))
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


def join_arcs(d: AffineDiagram, side: str, arcs) -> AffineDiagram:
    """d with p and q joined on `side`'s row for each (p, q) in arcs; the
    caller rejoins every node whose old arc the list breaks."""
    entries = list(d.top if side == TOP else d.bottom)
    for p, q in arcs:
        _set_entry(d.n, entries, p, (side, q))
        _set_entry(d.n, entries, q, (side, p))
    return d._replace(**{"top" if side == TOP else "bottom": tuple(entries)})


def edge_list(d: AffineDiagram):
    """One lift per edge orbit: (top arcs, bottom arcs, verticals).

    Arcs are (p, q) with p in 1..n and p < q; verticals are (top position
    in 1..n, bottom position).
    """
    top_arcs = []
    bottom_arcs = []
    verticals = []
    for i in range(1, d.n + 1):
        side, p = d.top[i - 1]
        if side == TOP:
            if p > i:
                top_arcs.append((i, p))
        else:
            verticals.append((i, p))
        side, p = d.bottom[i - 1]
        if side == BOT and p > i:
            bottom_arcs.append((i, p))
    return top_arcs, bottom_arcs, verticals


def short_arc_count(d: AffineDiagram) -> int:
    """Number of short horizontal edges per period (top plus bottom)."""
    top_arcs, bottom_arcs, _ = edge_list(d)
    return len(top_arcs) + len(bottom_arcs)


def _involution_problems(d: AffineDiagram) -> list[str]:
    problems = []
    for side, row in ((TOP, d.top), (BOT, d.bottom)):
        for i in range(1, d.n + 1):
            tgt = row[i - 1]
            if tgt == (side, i):
                problems.append(f"fixed point at {side}{i}")
            elif partner(d, *tgt) != (side, i):
                problems.append(f"involution breach at {side}{i}")
    return problems


def _shape_problems(d: AffineDiagram) -> list[str]:
    if not isinstance(d.n, int) or d.n < 3:
        return [f"need n >= 3, got {d.n!r}"]
    if len(d.top) != d.n or len(d.bottom) != d.n:
        return ["partner arrays must have n entries"]
    problems = []
    if not isinstance(d.loops, int) or d.loops < 0:
        problems.append(f"bad loop count {d.loops!r}")
    for row in (d.top, d.bottom):
        for entry in row:
            if not (
                isinstance(entry, tuple)
                and len(entry) == 2
                and entry[0] in (TOP, BOT)
                and isinstance(entry[1], int)
            ):
                problems.append(f"malformed node reference {entry!r}")
    return problems


def _shifts_open(lo: int, hi: int, n: int) -> tuple[int, int]:
    """Inclusive range of the integers m with lo < m*n < hi."""
    return lo // n + 1, -(-hi // n) - 1


def _crossing_shifts(e1, e2, n: int) -> list[tuple[int, int]]:
    """Inclusive ranges of the m for which e1 crosses e2 shifted by m*n.

    Edges are ("T"|"B", p, q) arcs with p < q, or ("V", top_pos,
    bottom_pos); e1 is a vertical only if e2 is one too (validate lists
    arcs first).  Each condition is an interval of m, so the test costs
    O(1) whatever the coordinates.
    """
    k1, a1, b1 = e1
    k2, a2, b2 = e2
    if k2 == "V":
        if k1 == "V":
            # verticals cross or touch when their endpoint orders disagree
            lo, hi = sorted((a1 - a2, b1 - b2))
            return [(-(-lo // n), hi // n)]
        # the arc against the vertical's endpoint on the arc's row
        end = a2 if k1 == TOP else b2
        return [_shifts_open(a1 - end, b1 - end, n)]
    if k1 != k2:
        return []
    # interleaving arcs on one row, in either order
    return [
        _shifts_open(max(a1 - a2, b1 - b2), b1 - a2, n),
        _shifts_open(a1 - b2, min(a1 - a2, b1 - b2), n),
    ]


def validate(d: AffineDiagram) -> list[str]:
    """All invariant violations (empty list means the diagram is valid).

    One crossing problem is reported per crossing pair of edge orbits,
    naming the translate nearest to the window.
    """
    problems = _shape_problems(d)
    if problems:
        return problems
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
    n = d.n
    for i, e1 in enumerate(edges):
        for e2 in edges[i:]:
            shifts = [
                min(max(0, lo), hi)
                for lo, hi in _crossing_shifts(e1, e2, n)
                if lo <= hi
            ]
            if e1 is e2:
                # a vertical never crosses its own translates; arcs never
                # cross themselves unshifted
                shifts = [m for m in shifts if m]
            if shifts:
                m = min(shifts, key=abs)
                shifted = (e2[0], e2[1] + m * n, e2[2] + m * n)
                problems.append(f"crossing pair {e1} / {shifted}")
    return problems


@lru_cache(maxsize=1 << 18)
def _nu_vector(d: AffineDiagram) -> tuple[int, ...]:
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
    return tuple(laps + runs[k] + runs[k + n] for k in range(n))


def crossing_number(d: AffineDiagram, k: int) -> int:
    """Crossings of the diagram with the vertical line between classes k
    and k+1, drawn geodesically; each winding loop contributes 1."""
    if not 1 <= k <= d.n:
        raise ValueError(f"class {k} out of range 1..{d.n}")
    return _nu_vector(d)[k - 1]


def is_admissible(d: AffineDiagram) -> bool:
    """Identity, or at least one horizontal edge and all crossing numbers even.

    A valid diagram crossing no line is the identity, and one with a
    horizontal edge has a short top arc (top and bottom arcs balance) or
    a winding loop.
    """
    nu = _nu_vector(d)
    if not any(nu):
        return True
    if not (d.loops or any(side == TOP for side, _ in d.top)):
        return False
    return all(v % 2 == 0 for v in nu)


def length(d: AffineDiagram) -> int:
    """Half the total crossing count; defined for admissible diagrams."""
    if not is_admissible(d):
        raise ValueError("length is defined for admissible diagrams only")
    return sum(_nu_vector(d)) // 2


def descent_arcs(d: AffineDiagram, side: str) -> frozenset[int]:
    """Classes i whose nodes i, i+1 on the given row are joined by a
    minimal arc; for a stacked word diagram this is the descent set."""
    row = d.top if side == TOP else d.bottom
    return frozenset(i for i in range(1, d.n + 1) if row[i - 1] == (side, i + 1))


def multiply(a: AffineDiagram, b: AffineDiagram) -> ProductResult:
    """Stack a on top of b; returns the composite diagram and the number of
    contractible middle loops (the exponent of the loop scalar)."""
    if a.n != b.n:
        raise ValueError(f"mismatched sizes {a.n} and {b.n}")
    n = a.n
    a_top, a_bottom, b_top, b_bottom = a.top, a.bottom, b.top, b.bottom
    # Window entries are read directly: the partner of the node at cover
    # position pos is row[c] shifted by pos - 1 - c, with c = (pos - 1) % n.
    # touched[c] and done[c] mark middle-row class c + 1.
    touched = [False] * n

    def cross(pos: int, row1, exit1: str, row2, exit2: str) -> NodeRef:
        # a strand at middle-row position pos runs alternately through row1
        # and row2 until it leaves the stack on side exit1 or exit2
        for _ in range(n + 2):
            c = (pos - 1) % n
            touched[c] = True
            side, p = row1[c]
            pos += p - 1 - c
            if side == exit1:
                return (side, pos)
            c = (pos - 1) % n
            touched[c] = True
            side, p = row2[c]
            pos += p - 1 - c
            if side == exit2:
                return (side, pos)
        raise InvariantError("runaway connectivity trace")

    top_row = tuple(
        e if e[0] == TOP else cross(e[1], b_top, BOT, a_bottom, TOP) for e in a_top
    )
    bottom_row = tuple(
        e if e[0] == BOT else cross(e[1], a_bottom, TOP, b_top, BOT) for e in b_bottom
    )

    contractible = 0
    winding = 0
    done = [False] * n
    for c in range(n):
        if touched[c] or done[c]:
            continue
        pos = c + 1
        for _ in range(n + 2):
            # pos's partner in a, then that node's partner in b: both on
            # the middle row unless the cycle escapes
            k = (pos - 1) % n
            s2, p2 = a_bottom[k]
            if s2 != BOT:
                raise InvariantError("middle cycle escaped through the top diagram")
            pos = p2 + pos - 1 - k
            k = (pos - 1) % n
            done[k] = True
            s3, p3 = b_top[k]
            if s3 != TOP:
                raise InvariantError("middle cycle escaped through the bottom diagram")
            pos = p3 + pos - 1 - k
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

    if winding and any(s == BOT for s, _ in top_row):
        raise InvariantError("winding middle cycle alongside a through strand")
    diagram = AffineDiagram(n, top_row, bottom_row, a.loops + b.loops + winding)
    return ProductResult(diagram, contractible)


def times_generator(d: AffineDiagram, s: int) -> ProductResult:
    """d stacked on top of E_s; equal to multiply(d, generator(d.n, s)),
    by a constant-size edit of d's bottom row."""
    return _generator_action(d, s, BOT)


def generator_times(s: int, d: AffineDiagram) -> ProductResult:
    """E_s stacked on top of d; equal to multiply(generator(d.n, s), d),
    by a constant-size edit of d's top row."""
    return _generator_action(d, s, TOP)


def _generator_action(d: AffineDiagram, s: int, side: str) -> ProductResult:
    # `side` is d's row that touches E_s.  E_s joins that row's nodes s and
    # s+1, whose partners in d are x and y, and gives the product a fresh
    # arc (s, s+1) on that row.  Node s is window entry s - 1; node s+1 is
    # window entry t shifted by s - t.  Only the rows the edit writes are
    # copied; the entry of a node at cover position p is window entry
    # (p - 1) % n, stored shifted by the node's offset from the window.
    n = d.n
    if not 1 <= s <= n:
        raise ValueError(f"generator index {s} out of range 1..{n}")
    row, other = (d.top, d.bottom) if side == TOP else (d.bottom, d.top)
    x_side, x = row[s - 1]
    if x_side == side and x == s + 1:
        # the minimal arc (s, s+1) and E_s's arc close a contractible loop
        return ProductResult(d, 1)
    t = s % n
    edited = list(row)
    loops = d.loops
    if x_side == side and x == s + 1 - n:
        # the arc (s+1-n, s) and E_s's arcs close a loop around the cylinder
        if any(p[0] == BOT for p in d.top):
            raise InvariantError("winding loop alongside a through strand")
        loops += 1
    else:
        y_side, y = row[t]
        y += s - t
        if (x_side == side and (x - s) % n < 2) or (y_side == side and (y - s) % n < 2):
            raise InvariantError(f"generator action met a broken matching at {side}{s}")
        # x and y become partners of each other; the far row is copied only
        # when one of them lies on it
        far = edited if x_side == y_side == side else list(other)
        cx, cy = (x - 1) % n, (y - 1) % n
        (edited if x_side == side else far)[cx] = (y_side, y + cx + 1 - x)
        (edited if y_side == side else far)[cy] = (x_side, x + cy + 1 - y)
        if far is not edited:
            other = tuple(far)
    edited[s - 1] = (side, s + 1)
    edited[t] = (side, t)
    if side == TOP:
        return ProductResult(AffineDiagram(n, tuple(edited), other, loops), 0)
    return ProductResult(AffineDiagram(n, other, tuple(edited), loops), 0)


def canonical_key(d: AffineDiagram) -> bytes:
    """Injective deterministic serialization usable as an equality key."""
    parts = [str(d.n), str(d.loops)]
    for row in (d.top, d.bottom):
        parts.extend(f"{s}{p}" for s, p in row)
    return "|".join(parts).encode("ascii")


def to_json_dict(d: AffineDiagram) -> dict:
    return {
        "n": d.n,
        "top": [{"side": s, "pos": p} for s, p in d.top],
        "bottom": [{"side": s, "pos": p} for s, p in d.bottom],
        "loops": d.loops,
    }


def from_json_dict(obj: dict) -> AffineDiagram:
    """Load a diagram from JSON: the one place where input is validated."""
    try:
        n = json_int(obj["n"], "n")
        top, bottom = (
            tuple((e["side"], json_int(e["pos"], "pos")) for e in json_list(obj[key], key))
            for key in ("top", "bottom")
        )
        loops = json_int(obj.get("loops", 0), "loops")
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed diagram JSON: {exc}") from exc
    d = AffineDiagram(n, top, bottom, loops)
    problems = validate(d)
    if problems:
        raise ValueError(f"invalid diagram: {problems[0]}")
    return d


def mirror(d: AffineDiagram) -> AffineDiagram:
    """Swap the two rows: the anti-automorphism reversing words, so the
    mirror of the diagram of w is the diagram of w^-1."""
    flip = {TOP: BOT, BOT: TOP}
    return AffineDiagram(
        d.n,
        tuple((flip[s], p) for s, p in d.bottom),
        tuple((flip[s], p) for s, p in d.top),
        d.loops,
    )


def is_mirror_symmetric(d: AffineDiagram) -> bool:
    """mirror(d) == d, read entrywise without building the mirror."""
    return all(ts != bs and tp == bp for (ts, tp), (bs, bp) in zip(d.top, d.bottom))
