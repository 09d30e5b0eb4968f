"""Input validation at the boundary: the linear planarity sweep and the
window walk finding covers against the test-only brute-force oracles,
shape checks, and bounded cost."""

import ast
import json
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_fc_word
from oracles import crosses, innermost_cover_bruteforce, validate_bruteforce, window

from afftl.cli import main
from afftl.config import GroupConfig
from afftl.diagrams import (
    BOT,
    TOP,
    AffineDiagram,
    descent_arcs,
    edge_list,
    from_json_dict,
    generator,
    identity,
    innermost_cover,
    node,
    node_ref,
    to_json_dict,
    validate,
)
from afftl.explore import enumerate_elements
from afftl.straightening import stack

SHIFT = 3 * 10**7


def matching_diagram(n, nodes, offsets, loops):
    """The involution pairing consecutive (side, class) nodes of `nodes`,
    the k-th pair with a lift offset of offsets[k] periods."""
    rows = {TOP: [None] * n, BOT: [None] * n}
    for (s1, p1), (s2, p2), k in zip(nodes[::2], nodes[1::2], offsets):
        rows[s1][p1 - 1] = (s2, p2 + k * n)
        rows[s2][p2 - 1] = (s1, p1 - k * n)
    return window(n, rows[TOP], rows[BOT], loops)


def random_matching_diagram(rng, n):
    """Pair the 2n node classes at random, each pair with a random lift
    offset: always an involution, often crossing, sometimes valid."""
    nodes = [(TOP, i) for i in range(1, n + 1)] + [(BOT, i) for i in range(1, n + 1)]
    rng.shuffle(nodes)
    offsets = [rng.randint(-2, 2) for _ in range(n)]
    return matching_diagram(n, nodes, offsets, rng.choice((0, 0, 1)))


def twisted(d, t):
    """Every vertical's bottom end moved t positions right."""
    top = [(s, p + t) if s == BOT else (s, p) for s, p in map(node_ref, d.top)]
    bottom = [(s, p - t) if s == TOP else (s, p) for s, p in map(node_ref, d.bottom)]
    return window(d.n, top, bottom, d.loops)


def reported_crossings(problems):
    """The (edge, edge) pairs named by the crossing problems."""
    return [
        tuple(ast.literal_eval(x) for x in p[len("crossing pair "):].split(" / "))
        for p in problems
        if p.startswith("crossing pair ")
    ]


def diagram_pool(rng):
    pool = []
    for n in (3, 4, 5, 6):
        cfg = GroupConfig(n)
        for _ in range(150):
            pool.append(random_matching_diagram(rng, n))
        pool += word_diagrams(rng, cfg, 25)
    return pool


def word_diagrams(rng, cfg, count):
    """Diagrams of `count` random FC words, each followed by a twist of it:
    planar, or crossing only through twisted verticals."""
    out = []
    for _ in range(count):
        d = stack(cfg, random_fc_word(cfg, rng, 8)).diagram
        out += [d, twisted(d, rng.randint(-2 * cfg.n, 2 * cfg.n))]
    return out


class TestValidateAgainstOracle:
    def test_differential(self):
        rng = random.Random(7)
        valid = invalid = 0
        for d in diagram_pool(rng):
            fast, slow = validate(d), validate_bruteforce(d)
            assert bool(fast) == bool(slow), d
            assert [p for p in fast if not p.startswith("crossing")] == [
                p for p in slow if not p.startswith("crossing")
            ]
            # validate names at most one crossing pair, and a real one
            named = reported_crossings(fast)
            assert len(named) == (1 if reported_crossings(slow) else 0), d
            assert all(crosses(e1, e2) for e1, e2 in named), d
            valid += not fast
            invalid += bool(fast)
        # both outcomes are well represented
        assert valid > 150 and invalid > 300

    @pytest.mark.parametrize("n", range(3, 8))
    def test_two_period_sweep_on_word_diagrams(self, n):
        # a twist keeps the order of the verticals and the arcs are planar,
        # so each crossing here is a vertical end inside an arc, found by
        # the row scan over positions 1..2n
        planar = 0
        for d in word_diagrams(random.Random(n), GroupConfig(n), 100):
            fast, slow = validate(d), validate_bruteforce(d)
            assert bool(fast) == bool(slow), d
            for e1, e2 in reported_crossings(fast):
                assert crosses(e1, e2) and (e1[0] == "V") != (e2[0] == "V"), d
            planar += not fast
        assert 100 <= planar < 200

    def test_involution_breach_reported(self):
        d = identity(4)
        bad = AffineDiagram(4, (node(TOP, 1),) + d.top[1:], d.bottom, 0)
        assert validate(bad) == validate_bruteforce(bad) != []


PROPERTY = settings(max_examples=200, deadline=None, database=None)


@st.composite
def twisted_diagrams(draw):
    """(d, t): a random pairing of the 2n node classes (n = 3..12) with
    lift offsets of up to three periods, or the diagram of a random FC
    word; and a twist t for every vertical, small or up to 3 * 10**7."""
    n = draw(st.integers(3, 12))
    if draw(st.booleans()):
        classes = [(TOP, i) for i in range(1, n + 1)] + [(BOT, i) for i in range(1, n + 1)]
        nodes = draw(st.permutations(classes))
        offsets = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        d = matching_diagram(n, nodes, offsets, draw(st.sampled_from((0, 0, 1))))
    else:
        cfg = GroupConfig(n)
        rng = random.Random(draw(st.integers(0, 2**32)))
        d = stack(cfg, random_fc_word(cfg, rng, 8)).diagram
    periods = st.integers(-SHIFT // n, SHIFT // n).map(lambda k: k * n)
    twist = draw(st.integers(-3 * n, 3 * n) | periods | periods.map(lambda t: t + 1))
    return d, twist


@PROPERTY
@given(twisted_diagrams())
def test_sweep_verdict_matches_oracle(case):
    d, t = case
    fast = validate(twisted(d, t))
    # Twisting every vertical by whole periods changes no crossing, and the
    # oracle's scans grow with the coordinates: it checks a large twist
    # reduced modulo n.
    slow = validate_bruteforce(twisted(d, t if abs(t) <= 3 * d.n else t % d.n))
    assert bool(fast) == bool(slow)
    assert all(crosses(e1, e2) for e1, e2 in reported_crossings(fast))


class TestInnermostCoverAgainstOracle:
    def test_differential(self):
        # every minimal arc on either row of every element at n = 3..8
        walked = covered = 0
        for n, max_len in [(3, 12), (4, 12), (5, 10), (6, 9), (7, 8), (8, 8)]:
            for rec in enumerate_elements(GroupConfig(n), max_len):
                top_arcs, bottom_arcs, _ = edge_list(rec.diagram)
                for side, arcs in ((TOP, top_arcs), (BOT, bottom_arcs)):
                    for k in descent_arcs(rec.diagram, side):
                        cover = innermost_cover(rec.diagram, side, k)
                        assert cover == innermost_cover_bruteforce(n, arcs, k), (rec.word, side, k)
                        walked += 1
                        covered += cover is not None
        assert 0 < covered < walked


class TestBoundary:
    @pytest.mark.parametrize(
        "mutate",
        [
            lambda o: o.update(n=2),
            lambda o: o["top"].pop(),
            lambda o: o["bottom"].append({"side": "T", "pos": 9}),
            lambda o: o["top"][0].update(side="X"),
            lambda o: o.update(loops=-1),
            lambda o: o.pop("top"),
            lambda o: o["top"][1].update(pos="x"),
            lambda o: o["top"].__setitem__(0, 5),
        ],
    )
    def test_malformed_rejected(self, mutate):
        obj = to_json_dict(generator(4, 2))
        mutate(obj)
        with pytest.raises(ValueError):
            from_json_dict(obj)

    def test_valid_roundtrip_with_large_coordinates(self):
        d = twisted(identity(3), SHIFT)
        assert validate(d) == []
        assert from_json_dict(to_json_dict(d)) == d

    def test_far_crossing_found_fast(self):
        g = generator(4, 1)
        top = list(g.top)
        bottom = list(g.bottom)
        top[2] = node(BOT, 3 + SHIFT)
        bottom[2] = node(TOP, 3 - SHIFT)
        t0 = time.monotonic()
        problems = validate(AffineDiagram(4, tuple(top), tuple(bottom), 0))
        assert time.monotonic() - t0 < 1.0
        assert problems and all("crossing" in p for p in problems)

    def test_shifted_identity_rejected_fast(self, capsys):
        obj = json.dumps(to_json_dict(twisted(identity(3), SHIFT)))
        t0 = time.monotonic()
        code = main(["straighten", "--diagram", obj])
        elapsed = time.monotonic() - t0
        assert code == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ValueError"
        assert elapsed < 1.0
