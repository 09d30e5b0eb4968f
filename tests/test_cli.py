import json
import os
import random
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from afftl import algebra, straightening, verify
from afftl.cli import main, parse_word
from afftl.config import GroupConfig
from afftl.diagrams import ProductResult

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

    def test_labels_included(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--n", "3", "--max-len", "1")
        recs = [json.loads(line) for line in out.splitlines()]
        assert all(r["labels"] is not None for r in recs)


class TestVerify:
    def test_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "4", "--max-len", "4", "--seed", "7")
        assert code == 0
        assert all(line.startswith("PASS") for line in out.strip().splitlines())

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
        recs = [rec for rec in enumerate_elements(cfg, 3, with_labels=False) if rec.length == 3]
        word = recs[0].word
        arcs = cells.a_value(cfg, word)
        real = words.heap_width
        monkeypatch.setattr(words, "heap_width", lambda cfg, word: real(cfg, word) + 1)
        assert verify.check_a_agreement(cfg, recs) == (
            "a-agreement", False, f"fails at {word}: {arcs} arcs, heap width {arcs + 1}"
        )

    @pytest.mark.parametrize("n,max_len,pairs", [(4, 6, 961), (7, 8, 12769)])
    def test_engine_agreement_filters_the_shared_records(self, n, max_len, pairs, monkeypatch):
        # the records up to length 3, in enumeration order, from the list
        # run_all enumerated once
        from afftl.explore import enumerate_elements

        cfg = GroupConfig(n)
        recs = list(enumerate_elements(cfg, max_len, with_labels=False))
        short = list(enumerate_elements(cfg, 3, with_labels=False))
        real, seen = algebra.rewrite_eval, []

        def spy(cfg, letters, start):
            seen.append((start, letters))
            return real(cfg, letters, start=start)

        monkeypatch.setattr(algebra, "rewrite_eval", spy)
        got = verify.check_engine_agreement(cfg, recs, 3)
        assert got == ("engine-agreement", True, f"{pairs} basis pairs")
        assert seen == [(a.word, b.word) for a in short for b in short]


def _miscounting(real):
    """The generator action, reporting one contractible loop too many."""

    def action(d, s, side):
        r = real(d, s, side)
        return ProductResult(r.diagram, r.contractible + 1)

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
