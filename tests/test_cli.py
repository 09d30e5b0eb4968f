import importlib
import json
import os
import pkgutil
import random
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

import afftl
from afftl import algebra, diagrams, straightening, verify
from afftl.cli import main, parse_word
from afftl.config import GroupConfig, InvariantError

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseWord:
    def test_forms(self):
        assert parse_word("1 3 2 4") == (1, 3, 2, 4)
        assert parse_word("1,3,2") == (1, 3, 2)
        assert parse_word("") == ()
        with pytest.raises(ValueError):
            parse_word("1 x")


class TestEval:
    def test_square(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--n", "4", "--word", "1 1")
        assert code == 0
        obj = json.loads(out)
        assert obj["exponent"] == 1 and obj["word"] == [1]
        assert obj["diagram"]["n"] == 4

    def test_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--n", "4", "--word", "9")
        assert code == 1
        assert json.loads(err)["error"] == "ValueError"

    def test_usage_error(self, capsys):
        assert run_cli(capsys, "eval", "--word", "1")[0] == 2
        assert run_cli(capsys)[0] == 2

    def test_3000_letter_word(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--n", "4", "--word", " ".join(["1 2"] * 1500))
        assert code == 0
        obj = json.loads(out)
        # E1 E2 E1 = E1, so the product collapses to E1 E2 with no loop
        assert obj["exponent"] == 0 and obj["word"] == [1, 2]


class TestAfn:
    def test_example(self, capsys):
        code, out, _ = run_cli(capsys, "afn", "--n", "5", "--word", "1 3 2 4")
        assert code == 0 and out.strip() == "2"


class TestDiagramAndStraighten:
    def test_roundtrip(self, capsys):
        code, out, _ = run_cli(capsys, "diagram", "--n", "4", "--word", "2 1 3 2")
        assert code == 0
        diagram_json = json.dumps(json.loads(out)["diagram"])
        code, out, _ = run_cli(capsys, "straighten", "--diagram", diagram_json)
        assert code == 0
        obj = json.loads(out)
        assert obj["word"] == [2, 1, 3, 2]
        assert obj["straight_core"] == [1, 3]

    def test_loop_core(self, capsys):
        code, out, _ = run_cli(capsys, "diagram", "--n", "4", "--word", "1 3 2 4")
        diagram_json = json.dumps(json.loads(out)["diagram"])
        code, out, _ = run_cli(capsys, "straighten", "--diagram", diagram_json)
        assert code == 0
        assert json.loads(out)["straight_core"] == [2, 4]

    def test_ascii_and_svg(self, capsys):
        code, out, _ = run_cli(capsys, "diagram", "--n", "4", "--word", "1", "--format", "ascii")
        assert code == 0 and "T1-T2" in out
        code, out, _ = run_cli(capsys, "diagram", "--n", "4", "--word", "1", "--format", "svg")
        assert code == 0 and out.startswith("<svg")

    def test_invalid_diagram_json(self, capsys):
        code, _, err = run_cli(capsys, "straighten", "--diagram", '{"n": 4}')
        assert code == 1 and "error" in json.loads(err)

    def test_file_input(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "diagram", "--n", "4", "--word", "2 1")
        path = tmp_path / "d.json"
        path.write_text(json.dumps(json.loads(out)["diagram"]))
        code, out, _ = run_cli(capsys, "straighten", "--diagram", f"@{path}")
        assert code == 0 and json.loads(out)["word"] == [2, 1]


class TestMul:
    def test_square_relation(self, capsys):
        elt = json.dumps({"n": 4, "terms": [{"coeff": [{"exp": 0, "c": 1}], "word": [1]}]})
        code, out, _ = run_cli(capsys, "mul", "--n", "4", "--a", elt, "--b", elt)
        assert code == 0
        obj = json.loads(out)
        assert obj == {
            "n": 4,
            "terms": [{"coeff": [{"exp": -1, "c": 1}, {"exp": 1, "c": 1}], "word": [1]}],
        }

    def test_size_mismatch(self, capsys):
        elt = json.dumps({"n": 5, "terms": [{"coeff": [{"exp": 0, "c": 1}], "word": [1]}]})
        code, _, err = run_cli(capsys, "mul", "--n", "4", "--a", elt, "--b", elt)
        assert code == 1

    def test_seeded_product_matches_rewrite_engine(self, capsys, tmp_path, monkeypatch):
        # the benchmark's element generator and its word-rewriting reference,
        # which never touches diagrams, at a tenth of the benchmark's size
        monkeypatch.syspath_prepend(str(ROOT))
        from perfbench.workloads import lexmin_word, random_element, rewrite_product

        rng = random.Random(7)
        a, b = random_element(rng, 5, 40), random_element(rng, 5, 40)
        paths = []
        for name, obj in (("a", a), ("b", b)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(obj))
            paths.append(f"@{path}")
        code, out, _ = run_cli(capsys, "mul", "--n", "5", "--a", paths[0], "--b", paths[1])
        assert code == 0
        terms = json.loads(out)["terms"]
        got = {lexmin_word(5, t["word"]): {x["exp"]: x["c"] for x in t["coeff"]} for t in terms}
        reference, pairs = rewrite_product(a, b)
        assert len(got) == len(terms) == len(reference) > 50
        assert got == reference
        assert pairs > 500

    def test_exponents_a_billion_apart(self, tmp_path):
        # (E1 (1 + v**E))**2 at E = 10**9.  Packed, one coefficient would take
        # about 10**9 * bits bits, so the child runs with its address space
        # capped at 1 GiB: a regression fails with MemoryError, not by
        # exhausting the machine.
        elt = {"n": 4, "terms": [{"coeff": [{"exp": 0, "c": 1}, {"exp": 10**9, "c": 1}],
                                  "word": [1]}]}
        path = tmp_path / "a.json"
        path.write_text(json.dumps(elt))
        child = (
            "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
            "from afftl.cli import main; sys.exit(main(sys.argv[1:]))"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-c", child, "mul", "--n", "4", "--a", f"@{path}", "--b", f"@{path}"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        elapsed = time.monotonic() - t0
        assert proc.returncode == 0, proc.stderr
        # E1 E1 = delta E1: delta (1 + v**E)**2
        e = 10**9
        want = {-1: 1, 1: 1, e - 1: 2, e + 1: 2, 2 * e - 1: 1, 2 * e + 1: 1}
        (term,) = json.loads(proc.stdout)["terms"]
        assert term["word"] == [1]
        assert {x["exp"]: x["c"] for x in term["coeff"]} == want
        # about 1 s, interpreter start included
        assert elapsed < 1.5, elapsed


def _element(coeff=None, word=None, **fields):
    term = {"coeff": coeff or [{"exp": 0, "c": 1}], "word": [1] if word is None else word}
    return json.dumps({"n": 4, "terms": [term], **fields})


class TestStrictJson:
    """JSON numbers are read as exact integers or refused: no truncation,
    no strings or booleans as numbers, no objects as lists."""

    @pytest.mark.parametrize(
        "elt, field",
        [
            (_element(coeff=[{"exp": 1.5, "c": 2.9}]), "exp"),
            (_element(coeff=[{"exp": 1, "c": 2.9}]), "c"),
            (_element(coeff=[{"exp": 0, "c": True}]), "c"),
            (_element(coeff=[{"exp": True, "c": 1}]), "exp"),
            (_element(coeff={"exp": 0, "c": 1}), "coeff"),
            (_element(word="12"), "word"),
            (_element(word=[True]), "word letter"),
            (_element(word=[1.0]), "word letter"),
            (_element(n=4.0), "n"),
            (_element(terms={}), "terms"),
        ],
        ids=["float-exp", "float-c", "bool-c", "bool-exp", "object-coeff", "string-word",
             "bool-letter", "float-letter", "float-n", "object-terms"],
    )
    def test_malformed_element(self, capsys, elt, field):
        one = _element(coeff=[{"exp": 0, "c": 1}], word=[])
        for a, b in ((elt, one), (one, elt)):
            code, out, err = run_cli(capsys, "mul", "--n", "4", "--a", a, "--b", b)
            assert code == 1 and out == ""
            obj = json.loads(err)
            assert obj["error"] == "ValueError"
            assert obj["message"].startswith(f"{field} must be")

    @pytest.mark.parametrize(
        "mutate, field",
        [
            (lambda o: o["top"][0].update(pos=2.7), "pos"),
            (lambda o: o["bottom"][1].update(pos="2"), "pos"),
            (lambda o: o.update(loops=True), "loops"),
            (lambda o: o.update(n=4.0), "n"),
            (lambda o: o.update(top={}), "top"),
        ],
        ids=["float-pos", "string-pos", "bool-loops", "float-n", "object-top"],
    )
    def test_malformed_diagram(self, capsys, mutate, field):
        _, out, _ = run_cli(capsys, "diagram", "--n", "4", "--word", "2 1")
        obj = json.loads(out)["diagram"]
        mutate(obj)
        code, out, err = run_cli(capsys, "straighten", "--diagram", json.dumps(obj))
        assert code == 1 and out == ""
        assert json.loads(err)["message"].startswith(f"{field} must be")

    def test_integers_still_parse(self, capsys):
        elt = _element(coeff=[{"exp": -2, "c": 3}, {"exp": 5, "c": -1}], word=[1, 2])
        code, out, _ = run_cli(capsys, "mul", "--n", "4", "--a", elt, "--b", _element(word=[]))
        assert code == 0
        (term,) = json.loads(out)["terms"]
        assert term == {"coeff": [{"exp": -2, "c": 3}, {"exp": 5, "c": -1}], "word": [1, 2]}


class TestCells:
    def test_label(self, capsys):
        code, out, _ = run_cli(capsys, "cells", "label", "--n", "4", "--word", "1 2")
        assert code == 0
        obj = json.loads(out)
        assert obj["two_sided"] == {"kind": "small", "k": 1}
        assert obj["right_pattern"] == [[1, 2]]
        assert obj["left_pattern"] == [[2, 3]]

    def test_census_json(self, capsys):
        code, out, _ = run_cli(capsys, "cells", "census", "--n", "4", "--max-len", "6")
        assert code == 0
        rows = json.loads(out)
        by_label = {json.dumps(r["two_sided"], sort_keys=True): r for r in rows}
        small1 = by_label[json.dumps({"kind": "small", "k": 1}, sort_keys=True)]
        assert small1["left_cells"] == 4 and small1["right_cells"] == 4

    def test_census_md(self, capsys):
        code, out, _ = run_cli(
            capsys, "cells", "census", "--n", "4", "--max-len", "4", "--format", "md"
        )
        assert code == 0
        assert out.splitlines()[0].startswith("| two_sided |")
        assert any("Small(1)" in line for line in out.splitlines())


class TestInvolution:
    def test_example(self, capsys):
        code, out, _ = run_cli(capsys, "involution", "--n", "4", "--word", "2 1 3 2")
        assert code == 0
        assert json.loads(out) == {"x": [2], "T": [1, 3]}

    def test_non_involution(self, capsys):
        code, _, err = run_cli(capsys, "involution", "--n", "4", "--word", "1 2")
        assert code == 1


class TestEnumerate:
    def test_stream(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--n", "3", "--max-len", "2", "--no-labels")
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        assert len(lines) == 10  # 1 + 3 + 6
        assert lines[0]["word"] == []

    @pytest.mark.parametrize("value", ["abc", "-1", "1.5"])
    def test_bad_cap_variable(self, capsys, monkeypatch, value):
        monkeypatch.setenv("AFFTL_MAX_ELEMENTS", value)
        code, out, err = run_cli(capsys, "enumerate", "--n", "3", "--max-len", "2")
        assert code == 1 and out == ""
        assert "AFFTL_MAX_ELEMENTS" in json.loads(err)["message"]

    def test_cap_of_zero_admits_not_even_the_identity(self, capsys, monkeypatch):
        monkeypatch.setenv("AFFTL_MAX_ELEMENTS", "0")
        code, out, err = run_cli(capsys, "enumerate", "--n", "4", "--max-len", "0")
        assert (code, out) == (1, "")
        assert json.loads(err) == {
            "error": "RuntimeError", "message": "enumeration exceeded the cap of 0 elements",
        }

    def test_labels_included(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--n", "3", "--max-len", "1")
        recs = [json.loads(line) for line in out.splitlines()]
        assert all(r["labels"] is not None for r in recs)


class TestVerify:
    def test_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "4", "--max-len", "4", "--seed", "7")
        assert code == 0
        assert all(line.startswith("PASS") for line in out.strip().splitlines())

    def test_runs_past_n_20(self, capsys):
        # neighbour-symmetry reads its cores off the records, so no rank
        # caps it; at length 0 the one core is the identity, of L_21
        code, out, err = run_cli(capsys, "verify", "--n", "21", "--max-len", "0")
        lines = out.splitlines()
        assert (code, err, len(lines)) == (0, "", 11)
        assert all(line.startswith("PASS ") for line in lines)
        assert lines[10] == "PASS neighbour-symmetry: 1 of 24476 cores"

    def test_a_crashing_check_fails_alone(self, capsys, monkeypatch):
        def crash(cfg, recs):
            raise KeyError("boom")

        monkeypatch.setattr(verify, "check_crossing_counts", crash)
        code, out, err = run_cli(capsys, "verify", "--n", "4", "--max-len", "4")
        lines = out.splitlines()
        assert (code, err, len(lines)) == (1, "", 11)
        assert lines[3] == "FAIL crossing-counts: KeyError: 'boom'"
        assert all(line.startswith("PASS ") for line in lines[:3] + lines[4:])

    def test_invariant_error_in_a_check_exits_3(self, capsys, monkeypatch):
        def broken(cfg, recs):
            raise InvariantError("self-check failed")

        monkeypatch.setattr(verify, "check_unit_laws", broken)
        code, out, err = run_cli(capsys, "verify", "--n", "4", "--max-len", "4")
        assert (code, out) == (3, "")
        assert json.loads(err) == {"error": "InvariantError", "message": "self-check failed"}

    def test_a_agreement_covers_every_length(self, capsys):
        # above length 8, where the check used to stop
        code, out, _ = run_cli(capsys, "verify", "--n", "4", "--max-len", "10", "--seed", "0")
        assert code == 0
        lines = dict(line.split(": ", 1) for line in out.strip().splitlines())
        assert lines["PASS a-agreement"] == lines["PASS unit-laws"].replace("diagrams", "elements")
        assert lines["PASS counts-vs-oracle"] == "lengths 0..10"

    def test_a_agreement_names_both_values(self, monkeypatch):
        from afftl import cells, words
        from afftl.explore import enumerate_elements

        cfg = GroupConfig(5)
        recs = [rec for rec in enumerate_elements(cfg, 3) if rec.length == 3]
        word = recs[0].word
        arcs = cells.a_value(cfg, word)
        real = words.heap_width
        monkeypatch.setattr(words, "heap_width", lambda cfg, word: real(cfg, word) + 1)
        assert verify.check_a_agreement(cfg, recs) == (
            "a-agreement", False, f"fails at {word}: {arcs} arcs, heap width {arcs + 1}"
        )

    def test_crossing_counts_name_the_first_class(self):
        from afftl.explore import enumerate_elements

        cfg = GroupConfig(5)
        recs = list(enumerate_elements(cfg, 3))
        assert verify.check_crossing_counts(cfg, recs) == ("crossing-counts", True, "51 elements")
        # E_1 E_3's diagram under the word 2 3: the vectors first differ at
        # k = 1, and again at k = 2
        i = next(i for i, rec in enumerate(recs) if rec.word == (1, 3))
        recs[i] = recs[i]._replace(word=(2, 3))
        assert verify.check_crossing_counts(cfg, recs) == (
            "crossing-counts", False, "fails at (2, 3) k=1"
        )

    def test_involutions_compare_the_mirror_flag(self, monkeypatch):
        from afftl import explore

        cfg = GroupConfig(7)
        recs = list(explore.enumerate_elements(cfg, 8))
        assert verify.check_involutions(cfg, recs) == ("involutions", True, "57 involutions")
        # the diagram side misses one involution: s_2, which s_1 precedes;
        # or it flags a non-involution of length 8, whose permutation is
        # folded along a chain of prefixes
        missed = recs[2]
        assert missed.word == (2,) and missed.is_involution
        flagged = next(rec for rec in recs if rec.length == 8 and not rec.is_involution)
        real = explore.is_mirror_symmetric
        for target, fake in (
            (missed, lambda d: d != missed.diagram and real(d)),
            (flagged, lambda d: d == flagged.diagram or real(d)),
        ):
            monkeypatch.setattr(explore, "is_mirror_symmetric", fake)
            recs = list(explore.enumerate_elements(cfg, 8))
            assert verify.check_involutions(cfg, recs) == (
                "involutions", False, f"mirror flag disagrees with the permutation at {target.word}"
            )

    @pytest.mark.parametrize("n,max_len", [(3, 12), (4, 12), (5, 10), (6, 9), (7, 8), (8, 8)])
    def test_involutions_fold_each_permutation_onto_its_prefix(self, n, max_len, monkeypatch):
        from afftl import explore, words
        from oracles import perm_by_fold

        cfg = GroupConfig(n)
        recs = list(explore.enumerate_elements(cfg, max_len))
        # in record order each word[:-1] is cached already: one miss and
        # one generator step a record
        words._perm_of.cache_clear()
        real, steps = words.AffinePermutation.times_generator, []

        def counted(p, s):
            steps.append(s)
            return real(p, s)

        with monkeypatch.context() as m:
            m.setattr(words.AffinePermutation, "times_generator", counted)
            perms = [words.perm_of(cfg, rec.word) for rec in recs]
        assert words._perm_of.cache_info().misses == len(recs)
        assert len(steps) == len(recs) - 1
        assert perms == [perm_by_fold(cfg, rec.word) for rec in recs]
        words._perm_of.cache_clear()
        assert verify.check_involutions(cfg, recs)[1]
        assert words._perm_of.cache_info().misses == len(recs)

    @pytest.mark.parametrize("n,cores", [(6, 18), (7, 29)])
    def test_neighbour_symmetry_searches_each_core_once(self, n, cores, monkeypatch):
        from afftl import cells, explore

        cfg = GroupConfig(n)
        recs = list(explore.enumerate_elements(cfg, n // 2))
        real, calls = cells.core_neighbours, []

        def spy(cfg, word):
            calls.append(word)
            return real(cfg, word)

        monkeypatch.setattr(cells, "core_neighbours", spy)
        got = verify.check_neighbour_symmetry(cfg, recs)
        assert got == ("neighbour-symmetry", True, f"{cores} cores")
        assert len(calls) == len(set(calls)) == cores

    def test_neighbour_symmetry_reaches_every_core_at_half_the_rank(self, monkeypatch):
        # a straight core has at most n // 2 letters: from that horizon on
        # the check sees all L_n commuting sets, by size, then lexicographically
        from afftl import cells, explore
        from oracles import commuting_sets

        lucas = {3: 4, 4: 7, 5: 11, 6: 18, 7: 29, 8: 47, 9: 76, 10: 123, 11: 199, 12: 322}
        for n, cores in lucas.items():
            cfg = GroupConfig(n)
            recs = list(explore.enumerate_elements(cfg, n // 2))
            assert verify.check_neighbour_symmetry(cfg, recs) == (
                "neighbour-symmetry", True, f"{cores} cores"
            )
            calls = []
            with monkeypatch.context() as m:
                m.setattr(cells, "core_neighbours", lambda cfg, q: calls.append(q) or frozenset())
                verify.check_neighbour_symmetry(cfg, recs)
            assert calls == [tuple(sorted(t)) for t in commuting_sets(cfg)]

    @pytest.mark.parametrize("n", [5, 7])
    def test_neighbour_symmetry_catches_a_dropped_loop(self, n, capsys, monkeypatch):
        # a generator action that keeps the diagram where it closes a
        # contractible loop makes E_1 E_1 E_1 look like E_1, so (1,)
        # reaches (), which reaches nothing
        real = diagrams._generator_action
        with monkeypatch.context() as m:
            m.setattr(diagrams, "_generator_action", lambda d, s, side: real(d, s, side) or d)
            _clear_caches()
            try:
                code, out, _ = run_cli(capsys, "verify", "--n", str(n), "--max-len", "8")
            finally:
                _clear_caches()
        assert code == 1
        assert out.splitlines()[10] == "FAIL neighbour-symmetry: (1,) -> () not symmetric"

    @pytest.mark.parametrize("n,max_len,pairs", [(4, 6, 961), (7, 8, 12769)])
    def test_engine_agreement_filters_the_shared_records(self, n, max_len, pairs, monkeypatch):
        # the records up to length 3, in enumeration order, from the list
        # run_all enumerated once; every pair is multiplied, and each row's
        # start word is checked once
        from afftl import diagrams
        from afftl.explore import enumerate_elements

        cfg = GroupConfig(n)
        recs = list(enumerate_elements(cfg, max_len))
        short = list(enumerate_elements(cfg, 3))
        real_eval, starts = algebra.rewrite_eval, []
        real_mul, multiplied = diagrams.multiply, []

        def spy_eval(cfg, letters, start):
            starts.append((start, letters))
            return real_eval(cfg, letters, start=start)

        def spy_mul(a, b):
            multiplied.append((a, b))
            return real_mul(a, b)

        monkeypatch.setattr(algebra, "rewrite_eval", spy_eval)
        monkeypatch.setattr(diagrams, "multiply", spy_mul)
        got = verify.check_engine_agreement(cfg, recs, 3)
        assert got == ("engine-agreement", True, f"{pairs} basis pairs")
        assert multiplied == [(a.diagram, b.diagram) for a in short for b in short]
        assert starts == [(a.word, ()) for a in short]

    def test_engine_agreement_catches_either_engine(self, monkeypatch):
        from afftl import diagrams
        from afftl.diagrams import ProductResult
        from afftl.explore import enumerate_elements

        cfg = GroupConfig(4)
        recs = list(enumerate_elements(cfg, 6))
        real_mul, real_step = diagrams.multiply, algebra._rewrite_mul_cached

        def drops_a_loop(a, b):
            r = real_mul(a, b)
            return ProductResult(r.diagram, max(r.contractible - 1, 0))

        def wrong_letter(cfg, word, s):
            # the step appends the next letter round the cycle in place of s
            exponent, out = real_step(cfg, word, s)
            if out == word + (s,):
                out = word + (s % cfg.n + 1,)
            return exponent, out

        with monkeypatch.context() as m:
            m.setattr(diagrams, "multiply", drops_a_loop)
            assert verify.check_engine_agreement(cfg, recs, 3) == (
                "engine-agreement", False, "pair (1,) x (1,)"
            )
        with monkeypatch.context() as m:
            m.setattr(algebra, "_rewrite_mul_cached", wrong_letter)
            assert verify.check_engine_agreement(cfg, recs, 3) == (
                "engine-agreement", False, "pair () x (1,)"
            )

    def test_engine_agreement_multiplies_each_pair_once(self, monkeypatch):
        # with every cache cold, one diagram product per counted pair and
        # one stack per distinct rewrite result: a refactor that adds
        # products or stacks shows here
        from afftl.explore import enumerate_elements

        cfg = GroupConfig(5)
        recs = list(enumerate_elements(cfg, 3))
        expected = {algebra.rewrite_eval(cfg, b.word, start=a.word)[1] for a in recs for b in recs}
        real_mul, real_stack = diagrams.multiply, straightening.stack
        multiplied, stacked = [], []

        def spy_mul(a, b):
            multiplied.append((a, b))
            return real_mul(a, b)

        def spy_stack(cfg, word):
            stacked.append(word)
            return real_stack(cfg, word)

        monkeypatch.setattr(diagrams, "multiply", spy_mul)
        monkeypatch.setattr(straightening, "stack", spy_stack)
        _clear_caches()
        got = verify.check_engine_agreement(cfg, recs, 3)
        assert got == ("engine-agreement", True, f"{len(recs) ** 2} basis pairs")
        assert multiplied == [(a.diagram, b.diagram) for a in recs for b in recs]
        assert len(stacked) == len(set(stacked)) and set(stacked) == expected

    def test_a_missing_prefix_fails_engine_agreement(self, monkeypatch):
        # every record's prefix must be an earlier record; without (1,),
        # the first word that extends it has none
        from afftl import explore

        real = explore.enumerate_elements

        def without_1(cfg, max_len):
            return (rec for rec in real(cfg, max_len) if rec.word != (1,))

        monkeypatch.setattr(explore, "enumerate_elements", without_1)
        results = {name: (ok, detail) for name, ok, detail in verify.run_all(4, 3, 0)}
        assert results["engine-agreement"] == (False, "KeyError: (1,)")


def _clear_caches():
    for info in pkgutil.iter_modules(afftl.__path__):
        for obj in vars(importlib.import_module(f"afftl.{info.name}")).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def _miscounting(real):
    """The generator action, reporting a contractible loop (None) where the
    product has none."""

    def action(d, s, side):
        real(d, s, side)  # its own self-checks still run
        return None

    return action


# "2 1 3 2" straightens with a T1 peel first, whose reconstruction uses the
# generator action on the top row.
BROKEN_PEEL = textwrap.dedent(
    """
    import sys
    from afftl import straightening
    from afftl.cli import main
    from test_cli import _miscounting

    straightening._generator_action = _miscounting(straightening._generator_action)
    print(__debug__)
    sys.exit(main(["eval", "--n", "4", "--word", "2 1 3 2"]))
    """
)


class TestInvariantError:
    def check_error(self, code, err):
        assert code == 3
        obj = json.loads(err)
        assert obj["error"] == "InvariantError"
        assert "peel reconstruction failed" in obj["message"]

    def test_in_process(self, capsys, monkeypatch):
        monkeypatch.setattr(
            straightening, "_generator_action", _miscounting(straightening._generator_action)
        )
        straightening.straighten.cache_clear()
        try:
            code, _, err = run_cli(capsys, "eval", "--n", "4", "--word", "2 1 3 2")
        finally:
            straightening.straighten.cache_clear()
        self.check_error(code, err)

    @pytest.mark.parametrize("flags", [[], ["-O"]])
    def test_subprocess_survives_optimize(self, flags):
        paths = [str(SRC), str(Path(__file__).parent), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
        proc = subprocess.run(
            [sys.executable, *flags, "-c", BROKEN_PEEL],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.stdout.strip() == str(not flags)  # __debug__ is off under -O
        self.check_error(proc.returncode, proc.stderr)
