"""The word-rewriting engine against the diagram engine and the
affine-permutation oracle, on arbitrary words.

`rewrite_eval` folds a word letter by letter with the defining relations
and the braid witness read off the heap, so it must finish on every word
in time polynomial in its length, and it must agree with the other two
engines: its delta exponent is the loop count of `stack`, its word stacks
without a loop to the same diagram, and that word has the affine
permutation and the length of the straightened word.  The engine calls no
commutation-class search and no affine-permutation code.  Its start word
is checked once, by folding it from the identity.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afftl import algebra, words
from afftl.algebra import rewrite_eval, rewrite_mul
from afftl.config import GroupConfig
from afftl.diagrams import ProductResult
from afftl.straightening import stack, straighten
from afftl.words import AffinePermutation, perm_of

PROPERTY = settings(max_examples=300, deadline=None, database=None)
SRC = Path(__file__).resolve().parents[1] / "src"


def random_words(n, length, count, seed):
    rng = random.Random(seed)
    return [tuple(rng.randint(1, n) for _ in range(length)) for _ in range(count)]


# Random words at n = 10, L = 40.  A rewrite engine that searches
# commutation classes meets classes of more than 500,000 words on 2 of them.
SEED1_WORDS = random_words(10, 40, 20, 1)


def assert_three_engines(cfg, word, got):
    exponent, rewritten = got
    r = stack(cfg, word)
    assert exponent == r.contractible, word
    assert stack(cfg, rewritten) == ProductResult(r.diagram, 0), word
    straight = straighten(r.diagram).letters
    assert len(rewritten) == len(straight), word
    assert perm_of(cfg, rewritten) == perm_of(cfg, straight), word


class TestThreeEngines:
    @PROPERTY
    @given(st.data())
    def test_random_words(self, data):
        n = data.draw(st.integers(3, 10))
        word = tuple(data.draw(st.lists(st.integers(1, n), max_size=40)))
        cfg = GroupConfig(n)
        assert_three_engines(cfg, word, rewrite_eval(cfg, word))

    @pytest.mark.parametrize("n", range(3, 11))
    def test_length_80(self, n):
        cfg = GroupConfig(n)
        (word,) = random_words(n, 80, 1, 80)
        assert_three_engines(cfg, word, rewrite_eval(cfg, word))

    def test_seed1_words(self):
        cfg = GroupConfig(10)
        for word in SEED1_WORDS:
            assert_three_engines(cfg, word, rewrite_eval(cfg, word))

    def test_no_class_search_or_permutations(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the rewrite engine must not call this")

        cfg = GroupConfig(10)
        for module in (words, algebra):
            for name in ("commutation_class", "reduced_perm"):
                monkeypatch.setattr(module, name, forbidden, raising=module is words)
        monkeypatch.setattr(AffinePermutation, "times_generator", forbidden)
        algebra._rewrite_mul_cached.cache_clear()
        got = [rewrite_eval(cfg, word) for word in SEED1_WORDS]
        got.append(rewrite_eval(cfg, SEED1_WORDS[1], start=got[0][1]))
        monkeypatch.undo()
        algebra._rewrite_mul_cached.cache_clear()
        for word, result in zip(SEED1_WORDS, got):
            assert_three_engines(cfg, word, result)
        start = straighten(stack(cfg, SEED1_WORDS[0]).diagram).letters
        assert_three_engines(cfg, start + SEED1_WORDS[1], got[-1])


BAD_STARTS = [(1, 1), (1, 2, 1), (1, 1, 3)]


class TestStartCheck:
    @pytest.mark.parametrize("start", BAD_STARTS)
    def test_rewrite_mul_rejects(self, start):
        with pytest.raises(ValueError, match="reduced word"):
            rewrite_mul(GroupConfig(4), start, 1)

    @pytest.mark.parametrize("start", BAD_STARTS)
    @pytest.mark.parametrize("letters", [(), (2,), (1, 3)])
    def test_rewrite_eval_rejects(self, start, letters):
        with pytest.raises(ValueError, match="reduced word"):
            rewrite_eval(GroupConfig(4), letters, start=start)

    def test_good_starts_pass(self):
        cfg = GroupConfig(4)
        assert rewrite_eval(cfg, (), start=(2, 1, 3, 2)) == (0, (2, 1, 3, 2))
        assert rewrite_mul(cfg, (1, 2), 1)[0] == 0
        assert rewrite_mul(cfg, (1,), 1) == (1, (1,))

    def test_rejects_under_optimize(self):
        code = (
            "from afftl.algebra import rewrite_eval, rewrite_mul\n"
            "from afftl.config import GroupConfig\n"
            f"for start in {BAD_STARTS!r}:\n"
            "    for call in (lambda: rewrite_mul(GroupConfig(4), start, 1),\n"
            "                 lambda: rewrite_eval(GroupConfig(4), (), start=start)):\n"
            "        try:\n"
            "            call()\n"
            "        except ValueError:\n"
            "            continue\n"
            "        raise SystemExit(f'accepted {start}')\n"
            "print('ok')\n"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0 and proc.stdout == "ok\n", proc.stdout + proc.stderr
