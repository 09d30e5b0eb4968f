"""Test-only oracles: direct, slow restatements of library algorithms.

Each oracle scans translates one period at a time over a window wide
enough for the coordinates involved, so its cost grows with the
coordinate magnitudes; the library computes the same answers in closed
form.  The differential tests play the two against each other.
"""

from afftl.diagrams import BOT, TOP, _involution_problems, edge_list


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
