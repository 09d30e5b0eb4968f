"""Text and SVG rendering of cylinder diagrams on the cut-open strip.

The pictorial part draws the window nodes 1..n of both rows, minimal-style
arcs, straight verticals and long horizontal loop lines; edges leaving the
window (wrapping around the cut) are marked on the strip and every edge is
also listed exactly, with its period offset, in an edge table.  The edge
table carries the correctness contract; pixel layout does not.
"""

from __future__ import annotations

from .diagrams import AffineDiagram, class_of, edge_list

_CELL = 4  # column spacing per node slot


def _col(i: int) -> int:
    return 3 + _CELL * (i - 1)


def _paint(canvas: list[list[str]], row: int, col: int, ch: str) -> None:
    if 0 <= row < len(canvas) and 0 <= col < len(canvas[0]):
        canvas[row][col] = ch


def _arc_rows(n: int, arcs: list[tuple[int, int]], toward_row: bool) -> list[str]:
    """One text row per nesting depth, innermost arcs nearest the node row
    (`toward_row` says whether the node row sits above these rows); arcs
    exceeding the window get drawn out to the cut and re-enter."""
    if not arcs:
        return []
    covers: dict[tuple[int, int], int] = {}
    for p, q in arcs:
        covers[(p, q)] = sum(
            1 for p2, q2 in arcs if (p2, q2) != (p, q) and p2 < p and q < q2
        )
    rows = max(covers.values()) + 1
    width = _col(n) + _CELL
    canvas = [[" "] * width for _ in range(rows)]
    for (p, q), nested in covers.items():
        depth = rows - 1 - nested if toward_row else nested
        if q <= n:
            _paint(canvas, depth, _col(p), "+")
            _paint(canvas, depth, _col(q), "+")
            for c in range(_col(p) + 1, _col(q)):
                _paint(canvas, depth, c, "-")
        else:
            # wraps past the cut: draw to the right margin and re-enter at
            # the translate of the far endpoint
            _paint(canvas, depth, _col(p), "+")
            for c in range(_col(p) + 1, width):
                _paint(canvas, depth, c, "-")
            entry = _col(class_of(n, q))
            for c in range(0, entry):
                _paint(canvas, depth, c, "-")
            _paint(canvas, depth, entry, "+")
    return ["".join(r).rstrip() for r in canvas]


def render_ascii(d: AffineDiagram) -> str:
    n = d.n
    top_arcs, bottom_arcs, verticals = edge_list(d)
    width = _col(n) + _CELL
    lines = [f"affine {n}-diagram, loops={d.loops}"]
    labels = [" "] * width
    for i in range(1, n + 1):
        for k, ch in enumerate(str(i)):
            labels[_col(i) + k] = ch
    label_row = "".join(labels).rstrip()
    lines.append("T: " + label_row[3:])
    lines.extend(_arc_rows(n, top_arcs, toward_row=True))
    body = [" "] * width
    for p, q in verticals:
        body[_col(p)] = "|" if p == q else "*"
    lines.append("".join(body).rstrip())
    for _ in range(min(d.loops, 3)):
        lines.append("=" * width)
    if d.loops > 3:
        lines.append(f"= x{d.loops} loops =")
    lines.extend(_arc_rows(n, bottom_arcs, toward_row=False))
    lines.append("B: " + label_row[3:])
    lines.append("edges:")
    for (r1, r2), edges in (("TT", top_arcs), ("TB", verticals), ("BB", bottom_arcs)):
        for p, q in sorted(edges):
            off = (q - class_of(n, q)) // n
            mark = f" (wraps {off:+d})" if off else ""
            lines.append(f"  {r1}{p}-{r2}{q}{mark}")
    if d.loops:
        lines.append(f"  loops x{d.loops}")
    return "\n".join(line.rstrip() for line in lines) + "\n"


def render_svg(d: AffineDiagram) -> str:
    n = d.n
    top_arcs, bottom_arcs, verticals = edge_list(d)
    step = 40
    margin = 30
    width = 2 * margin + step * (n - 1)
    height = 170
    y_top, y_bot = 35, 135

    def x(pos: int) -> float:
        return margin + step * (pos - 1)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<line x1="{margin - step / 2}" y1="10" x2="{margin - step / 2}" y2="{height - 10}" '
        'stroke="#bbb" stroke-dasharray="4 3"/>',
        f'<line x1="{x(n) + step / 2}" y1="10" x2="{x(n) + step / 2}" y2="{height - 10}" '
        'stroke="#bbb" stroke-dasharray="4 3"/>',
    ]

    # each end bows into the strip: an arc by its span, a vertical by 45
    for edges, y1, y2 in ((top_arcs, y_top, y_top), (bottom_arcs, y_bot, y_bot),
                          (verticals, y_top, y_bot)):
        for p, q in edges:
            bow = 45 if y1 != y2 else 18 + 9 * min(abs(q - p) - 1, 4)
            c1, c2 = (y + bow if y == y_top else y - bow for y in (y1, y2))
            lo, hi = min(p, q), max(p, q)
            reach = (hi - lo) // n + 2
            # every period translate whose span meets the window frame
            for off in range(-reach * n, reach * n + 1, n):
                if x(hi + off) >= 0 and x(lo + off) <= width:
                    parts.append(
                        f'<path d="M {x(p + off)} {y1} C {x(p + off)} {c1}, '
                        f'{x(q + off)} {c2}, {x(q + off)} {y2}" fill="none" stroke="black"/>'
                    )
    mid = (y_top + y_bot) / 2
    for k in range(d.loops):
        y = mid + 10 * (k - (d.loops - 1) / 2)
        parts.append(f'<line x1="0" y1="{y}" x2="{width}" y2="{y}" stroke="black"/>')
    for i in range(1, n + 1):
        for y, dy in ((y_top, -10), (y_bot, 20)):
            parts.append(f'<circle cx="{x(i)}" cy="{y}" r="2.5" fill="black"/>')
            parts.append(
                f'<text x="{x(i)}" y="{y + dy}" font-size="11" '
                f'text-anchor="middle">{i}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
