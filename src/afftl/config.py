"""Configuration for the cyclic generator graph on n nodes, and what every
engine shares: `InvariantError`, the JSON readers and the caching policy.

Generators are indexed 1..n and sit on a cycle: s_i and s_j satisfy the
braid relation exactly when i and j are consecutive modulo n, and commute
otherwise.  For n == 3 every pair is adjacent.  n >= 3 throughout.

Public methods validate their generator indices.  The heap loops of
`afftl.words` test adjacency by arithmetic on letters already checked at
the entry point that received them: the neighbours of x are x - 1 or n
and x % n + 1.

Caching policy: every `lru_cache` in the package holds `CACHE_SIZE`
entries.  A word's stack or permutation continues the cached value of its
first min(len - 1, PREFIX_REUSE) letters, and `straighten` reuses the
cached word of a rest no longer than `PREFIX_REUSE`, so costs stay linear
in the word and at most `PREFIX_REUSE` calls nest.
"""

from __future__ import annotations

from typing import NamedTuple

CACHE_SIZE = 1 << 18  # entries of each lru_cache
PREFIX_REUSE = 64  # the longest cached prefix or rest a value is built on


class InvariantError(Exception):
    """An internal self-check failed: a bug, never a property of the input."""


def json_int(value, field: str) -> int:
    """A JSON integer, read strictly at the input boundary: floats, strings
    and booleans raise ValueError naming the field instead of coercing."""
    if type(value) is not int:
        raise ValueError(f"{field} must be an integer, not {type(value).__name__}")
    return value


def json_list(value, field: str) -> list:
    """A JSON list, read strictly: a string or an object is not iterated."""
    if type(value) is not list:
        raise ValueError(f"{field} must be a list, not {type(value).__name__}")
    return value


class GroupConfig(NamedTuple("GroupConfig", [("n", int)])):
    """The rank n, checked once here; a NamedTuple, so it equals (n,)."""

    __slots__ = ()

    def __new__(cls, n: int):
        if n < 3:
            raise ValueError(f"need at least 3 generators, got n={n}")
        return tuple.__new__(cls, (n,))

    def generators(self) -> range:
        return range(1, self.n + 1)

    def check_generator(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise ValueError(f"generator index {i} out of range 1..{self.n}")
        return i

    def adjacent(self, i: int, j: int) -> bool:
        """True iff s_i and s_j do not commute (consecutive mod n)."""
        self.check_generator(i)
        self.check_generator(j)
        return (i - j) % self.n in (1, self.n - 1)

    def neighbours_of(self, i: int) -> tuple[int, int]:
        """The two generators not commuting with s_i, sorted."""
        self.check_generator(i)
        a, b = i - 1 or self.n, i % self.n + 1
        return (a, b) if a < b else (b, a)

    def alternating_sets(self) -> tuple[frozenset[int], frozenset[int]]:
        """For even n, the two maximal commuting sets (odd classes, even classes)."""
        if self.n % 2:
            raise ValueError("maximal alternating sets exist only for even n")
        odd = frozenset(range(1, self.n, 2))
        even = frozenset(range(2, self.n + 1, 2))
        return odd, even

