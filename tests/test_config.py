import pytest

from afftl.config import GroupConfig


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
            sets = cfg.commuting_sets()
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
            assert max(len(t) for t in cfg.commuting_sets()) == n // 2
