"""Every entry point takes time bounded by its input: each word command at
n = 100,000 on a three-letter word, and `straighten --diagram` on that
word's diagram JSON, whose check at the boundary is one linear sweep.
The word is no involution, so `involution` also runs on one that is."""

import json
import time

import pytest

from afftl.cli import main

N = 100_000
WORD = "1 2 3"
BUDGET_S = 5.0


def _run(capsys, argv, code=0):
    start = time.perf_counter()
    got = main(argv)
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert got == code, err
    assert elapsed < BUDGET_S, f"{argv[0]} took {elapsed:.2f} s"
    return out if code == 0 else err


@pytest.mark.parametrize("command", [["eval"], ["diagram"], ["afn"], ["cells", "label"]])
def test_word_commands(capsys, command):
    _run(capsys, command + ["--n", str(N), "--word", WORD])


def test_involution(capsys):
    err = _run(capsys, ["involution", "--n", str(N), "--word", WORD], code=1)
    assert json.loads(err) == {"error": "ValueError", "message": "element is not an involution"}
    out = _run(capsys, ["involution", "--n", str(N), "--word", "2 1 3 2"])
    assert json.loads(out) == {"x": [2], "T": [1, 3]}


def test_straighten_diagram_json(capsys):
    diagram = json.loads(_run(capsys, ["diagram", "--n", str(N), "--word", WORD]))["diagram"]
    out = _run(capsys, ["straighten", "--diagram", json.dumps(diagram)])
    assert json.loads(out) == {"word": [1, 2, 3], "straight_core": [1]}
