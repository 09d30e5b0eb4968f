import importlib
import pkgutil

import pytest

from oracles import commuting_sets

import afftl
from afftl.config import CACHE_SIZE, GroupConfig


class TestGroupConfig:
    def test_neighbours(self):
        # the neighbours wrap at 1 and at n; at n = 3 they are the other two
        for n in range(3, 9):
            cfg = GroupConfig(n)
            for i in cfg.generators():
                assert cfg.neighbours_of(i) == tuple(sorted({i - 1 or n, i % n + 1}))
        assert GroupConfig(5).neighbours_of(1) == (2, 5)
        assert GroupConfig(3).neighbours_of(2) == (1, 3)

    def test_commuting_set_counts(self):
        # independent sets of a cycle are counted by the Lucas numbers
        lucas = {3: 4, 4: 7, 5: 11, 6: 18, 7: 29}
        for n, expect in lucas.items():
            cfg = GroupConfig(n)
            sets = commuting_sets(cfg)
            assert len(sets) == expect
            for t in sets:
                assert all(not cfg.adjacent(a, b) for a in t for b in t if a < b)

    def test_alternating_sets(self):
        odd, even = GroupConfig(6).alternating_sets()
        assert odd == {1, 3, 5} and even == {2, 4, 6}
        with pytest.raises(ValueError):
            GroupConfig(5).alternating_sets()

    def test_max_commuting_size(self):
        for n in (4, 5, 6, 7):
            cfg = GroupConfig(n)
            assert max(len(t) for t in commuting_sets(cfg)) == n // 2

    def test_rank_checked_once_and_a_plain_tuple(self):
        with pytest.raises(ValueError, match="need at least 3 generators, got n=2"):
            GroupConfig(2)
        cfg = GroupConfig(5)
        assert cfg == (5,) and hash(cfg) == hash((5,)) and cfg.n == 5
        assert not hasattr(cfg, "__dict__")


def test_every_lru_cache_holds_cache_size():
    caches = {}
    for info in pkgutil.iter_modules(afftl.__path__):
        module = importlib.import_module(f"afftl.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_parameters") and obj.__module__ == module.__name__:
                caches[f"{info.name}.{name}"] = obj.cache_parameters()["maxsize"]
    assert set(caches) >= {
        "diagrams._nu_vector",
        "straightening._stack_cached",
        "straightening.straighten",
        "algebra._rewrite_mul_cached",
        "words._perm_of",
    }
    assert caches == dict.fromkeys(caches, CACHE_SIZE)
