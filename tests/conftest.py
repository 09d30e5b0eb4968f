import random

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
