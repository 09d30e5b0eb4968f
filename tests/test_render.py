import hashlib

from afftl.config import GroupConfig
from afftl.diagrams import generator, identity
from afftl.explore import enumerate_elements
from afftl.render import render_ascii, render_svg
from afftl.straightening import stack


class TestAscii:
    def test_identity(self):
        text = render_ascii(identity(4))
        body = [line for line in text.splitlines() if set(line) <= {" ", "|"} and "|" in line]
        assert body and body[0].count("|") == 4
        assert "T: 1" in text and "B: 1" in text

    def test_generator_cups(self):
        text = render_ascii(generator(4, 1))
        arc_rows = [line for line in text.splitlines() if "+" in line]
        assert len(arc_rows) == 2  # one top arc row, one bottom arc row
        assert all(row.count("+") == 2 for row in arc_rows)
        assert "T1-T2" in text and "B1-B2" in text

    def test_loop_line_and_wrap_marker(self):
        cfg = GroupConfig(4)
        text = render_ascii(stack(cfg, (1, 3, 2, 4)).diagram)
        assert any(set(line) == {"="} for line in text.splitlines())
        assert "loops x1" in text
        assert "B4-B5 (wraps +1)" in text

    def test_edge_table_matches_matching(self):
        cfg = GroupConfig(4)
        text = render_ascii(stack(cfg, (2, 1)).diagram)
        assert "T2-T3" in text
        assert "B1-B2" in text
        assert "T1-B3" in text
        assert "T4-B4" in text


class TestSvg:
    def test_wellformed(self):
        svg = render_svg(generator(4, 4))
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
        assert svg.count("<circle") == 8
        assert svg.count(">4</text>") == 2

    def test_loop_lines(self):
        cfg = GroupConfig(4)
        svg = render_svg(stack(cfg, (1, 3, 2, 4)).diagram)
        assert 'x1="0"' in svg  # full-width loop line


def test_every_small_diagram_renders_as_pinned():
    """ascii and svg of every element at n = 3, 4, 5, 6, 8 up to length
    8, 9, 7, 6, 5, hashed in enumeration order: the output byte for byte."""
    digest = hashlib.sha256()
    for n, max_len in ((3, 8), (4, 9), (5, 7), (6, 6), (8, 5)):
        for rec in enumerate_elements(GroupConfig(n), max_len):
            digest.update(render_ascii(rec.diagram).encode())
            digest.update(render_svg(rec.diagram).encode())
    assert digest.hexdigest() == (
        "3e276333c9d23dd3553b2c5decc3583e78011b60ab95a91bcaf450d01e9b71ff"
    )
