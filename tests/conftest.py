import random
import sys

import pytest

from afftl.config import GroupConfig


@pytest.fixture(params=[3, 4, 5])
def cfg(request):
    return GroupConfig(request.param)


@pytest.fixture
def rng():
    return random.Random(20260810)


def random_fc_word(cfg, rng, max_len):
    """Grow a reduced FC word by random right extensions (word-level test
    helper; rejection uses the affine-permutation + heap criteria)."""
    from oracles import perm_length

    from afftl.words import heap_is_fc, perm_of

    word = ()
    for _ in range(max_len):
        options = []
        for s in cfg.generators():
            w2 = word + (s,)
            if perm_length(perm_of(cfg, w2)) == len(w2) and heap_is_fc(cfg, w2):
                options.append(w2)
        if not options:
            break
        word = rng.choice(options)
    return word


def record_calls(run, keep=None):
    """The code objects of the calls made while run() runs, those that
    keep(code) accepts when it is given, recorded by sys.setprofile.  The
    profiler in place before is put back afterwards.  For a C profiler
    such as cProfile.Profile, sys.getprofile() returns the profiler
    object, which is not callable, so it is enabled again instead.
    (`python -m cProfile` profiles with `__main__.Profile`, a class
    distinct from cProfile.Profile.)"""
    called = set()

    def profile(frame, event, arg):
        if event == "call" and (keep is None or keep(frame.f_code)):
            called.add(frame.f_code)

    outer = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        if outer is None or callable(outer):
            sys.setprofile(outer)
        else:
            outer.enable()
    return called


def shuffled(cfg, word, rng, swaps=20):
    """Another word for the same element, by random swaps of adjacent
    commuting letters."""
    from oracles import commutes

    w = list(word)
    for _ in range(swaps if len(w) > 1 else 0):
        i = rng.randrange(len(w) - 1)
        if w[i] != w[i + 1] and commutes(cfg, w[i], w[i + 1]):
            w[i], w[i + 1] = w[i + 1], w[i]
    return tuple(w)
