"""Word-level machinery for the affine Coxeter group of the cyclic graph.

Words are tuples of generator indices in 1..n.  The elements of interest
are the fully commutative ("FC") ones: those none of whose reduced
expressions contain a factor sts with s, t adjacent.  A reduced word of an
FC element has a single commutation class, so the element is its heap: the
positions of the word, ordered by the transitive closure of "i < j and the
letters are equal or adjacent" (Stembridge 1996, *On the fully commutative
elements of Coxeter groups*).  Letters are kept as counts, sets and
layers keyed by letter, so every heap question but the width (`heap_width`,
on reachability bitmasks over positions) is one pass over the word, in time
independent of n.  A letter is a left (right) descent, a minimal (maximal)
element, when no neighbour occurs before its first (after its last)
occurrence (`descends`, for one letter); removing the first s, a left
descent, makes a neighbour t a left descent exactly when the first t has
one lower neighbour occurrence, the first s (`absorbers`, for every
letter in one scan).  A word is a reduced word of an FC element exactly
when at least two neighbour occurrences lie between consecutive
occurrences of each letter (`heap_is_fc`).  It is the one check of such
a word wherever one is made (`braid_witness`, `algebra.rewrite_eval`, the
`cells` functions), and it also locates the obstruction that appending
a letter can produce (`_braid_split`).  `explore` applies the criterion
incrementally: each frontier word carries, per letter, the neighbour
occurrences since that letter's last occurrence, so deciding an
extension is one comparison.

The module also hosts an affine-permutation model of the group (window
notation), an independent oracle for reducedness, element identity,
involution tests and full commutativity: a word is reduced when each
letter ascends (`reduced_perm`), and an element is FC when its
permutation avoids 321, which `AffinePermutation.fc_ascents`
decides for every ascent at once off one extended window.  Its windows
are built only here, from the identity, so `AffinePermutation` is a
NamedTuple whose constructor checks nothing.
`perm_of` follows `config`'s caching policy, so words in record order
cost one generator step each.

Public functions check their words and generators.  The loops inside test
adjacency by arithmetic, as `config` and the prune in `explore` do: the
neighbours of x are x - 1 or n and x % n + 1.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .config import CACHE_SIZE, PREFIX_REUSE, GroupConfig, InvariantError

Word = tuple[int, ...]


def check_word(cfg: GroupConfig, word) -> Word:
    word = tuple(word)
    if word and not (1 <= min(word) and max(word) <= cfg.n):
        for s in word:
            cfg.check_generator(s)
    return word


def absorbers(cfg: GroupConfig, word: Word, left: bool) -> dict[int, int]:
    """Each left (right) descent s, ascending, mapped to the smallest
    neighbour of s that is a descent of the word without its first (last)
    s, or to 0 when there is none; the keys are the descent set.  A letter
    is a descent when no neighbour occurs before its first (after its last)
    occurrence.  The letters are not checked."""
    n = cfg.n
    count: dict[int, int] = {}  # occurrences of each letter scanned so far
    found: dict[int, int] = {}
    for x in word if left else reversed(word):
        if x not in count:
            a, b = x - 1 or n, x % n + 1
            below = count.get(a, 0) + count.get(b, 0)
            s = a if a in count else b  # the lower neighbour when below == 1
            if not below:
                found[x] = 0
            elif below == 1 and s in found and not 0 < found[s] < x:
                found[s] = x
        count[x] = count.get(x, 0) + 1
    return dict(sorted(found.items()))


def descends(cfg: GroupConfig, word: Word, s: int, left: bool) -> bool:
    """Whether s is a left (right) descent of the word: s occurs and no
    neighbour of s occurs before its first (after its last) occurrence,
    the test `absorbers` makes for every letter at once.  The letters are
    not checked."""
    scan = word if left else word[::-1]
    if s not in scan:
        return False
    head = scan[:scan.index(s)]
    n = cfg.n
    return (s - 1 or n) not in head and s % n + 1 not in head


def drop_letter(word: Word, s: int, left: bool) -> Word:
    """The word without the first (left) or last occurrence of s."""
    if left:
        p = word.index(s)
    else:
        p = len(word) - 1
        while word[p] != s:
            p -= 1
    return word[:p] + word[p + 1:]


def greedy_front(cfg: GroupConfig, word, s: int) -> Word | None:
    """Move an occurrence of s to the front by swapping commuting letters.

    Returns a word for the same element starting with s, or None when every
    occurrence of s is blocked by an earlier non-commuting letter.  For a
    reduced word of an FC element this decides s in the left descent set.
    """
    cfg.check_generator(s)
    word = check_word(cfg, word)
    if descends(cfg, word, s, True):
        return (s,) + drop_letter(word, s, True)
    return None


def greedy_back(cfg: GroupConfig, word, s: int) -> Word | None:
    """Mirror of greedy_front: a word for the same element ending with s."""
    cfg.check_generator(s)
    word = check_word(cfg, word)
    if descends(cfg, word, s, False):
        return drop_letter(word, s, False) + (s,)
    return None


def left_descents(cfg: GroupConfig, word) -> frozenset[int]:
    """Left descent set of an FC element given by a reduced word."""
    return frozenset(absorbers(cfg, check_word(cfg, word), True))


def right_descents(cfg: GroupConfig, word) -> frozenset[int]:
    return frozenset(absorbers(cfg, check_word(cfg, word), False))


def commutation_class(cfg: GroupConfig, word, cap: int = 500_000) -> frozenset[Word]:
    """All words obtainable by swapping adjacent commuting letters."""
    start = check_word(cfg, word)
    n = cfg.n
    seen = {start}
    stack = [start]
    while stack:
        w = stack.pop()
        for i in range(len(w) - 1):
            a, b = w[i], w[i + 1]
            if (a - b) % n not in (0, 1, n - 1):
                w2 = w[:i] + (b, a) + w[i + 2:]
                if w2 not in seen:
                    if len(seen) >= cap:
                        raise RuntimeError("commutation class exceeds cap")
                    seen.add(w2)
                    stack.append(w2)
    return frozenset(seen)


def _heap_reach(cfg: GroupConfig, word: Word) -> list[int]:
    """Reachability of the heap order as bitmasks: bit j of reach[i] is set
    when position i precedes j, that is i < j and the letters are equal or
    adjacent, closed transitively.

    Only the next occurrence of each letter equal or adjacent to word[i]
    needs a look, since every later occurrence of that letter lies above it.
    """
    n = cfg.n
    reach = [0] * len(word)
    after: dict[int, int] = {}  # after[y]: the next position holding y
    for i in range(len(word) - 1, -1, -1):
        x = word[i]
        r = 0
        for y in (x, x - 1 or n, x % n + 1):
            if y in after:
                j = after[y]
                r |= 1 << j | reach[j]
        reach[i] = r
        after[x] = i
    return reach


def heap_width(cfg: GroupConfig, word) -> int:
    """Width of the word's heap: the size of its largest antichain.

    An antichain is a set of pairwise commuting letters that some linear
    extension, that is some commutation-equivalent word, holds as a
    contiguous factor, so for a reduced FC word this is a(w).  By Dilworth
    the width is the least number of chains covering the heap, and since
    the reach rows are transitively closed that is m minus a maximum
    matching of i -> j whenever i precedes j (König).  Augmenting paths
    are searched with an explicit stack, so long words do not recurse, and
    each step takes an unmatched j when the row has one.
    """
    word = check_word(cfg, word)
    reach = _heap_reach(cfg, word)
    owner = [-1] * len(word)  # owner[j]: the position matched to j
    unowned = (1 << len(word)) - 1
    for root in range(len(word)):
        # path[k + 1] is owner[via[k]], reached from path[k] through via[k]
        path, via, seen = [root], [], 0
        while path:
            row = reach[path[-1]] & ~seen
            if not row:
                path.pop()
                if via:
                    via.pop()
                continue
            free = row & unowned or row
            j = (free & -free).bit_length() - 1
            seen |= 1 << j
            via.append(j)
            if owner[j] < 0:
                for u, v in zip(path, via):
                    owner[v] = u
                unowned ^= 1 << j
                break
            path.append(owner[j])
    return unowned.bit_count()


def heap_is_fc(cfg: GroupConfig, word) -> bool:
    """Whether the word is a reduced word of a fully commutative element:
    reducedness and full commutativity decided together, in one pass.

    A word is reduced FC exactly when its heap has no covering relation
    between equal letters and no convex chain s < t < s with s, t adjacent
    (Stembridge 1996, Prop. 3.3).  Every neighbour occurrence between
    consecutive occurrences of a letter s lies between them in the heap,
    and every chain from one s to the next leaves and enters through one,
    so with at most one of them the two s form such a covering or chain.
    """
    n = cfg.n
    since: dict[int, int] = {}  # neighbour occurrences since x last occurred
    for x in check_word(cfg, word):
        if since.get(x, 2) <= 1:
            return False
        since[x] = 0
        for y in (x - 1 or n, x % n + 1):
            if y in since:
                since[y] += 1
    return True


class BraidWitness(NamedTuple):
    """Factorization word = w1 + (t, s) + w2 with s adjacent to t and t
    commuting with every letter of w2."""
    w1: Word
    s: int
    w2: Word


def braid_witness(cfg: GroupConfig, word, t: int) -> BraidWitness:
    """Locate how appending t to a reduced FC word breaks full commutativity.

    Exists exactly when word + (t,) is a reduced word of a non-FC element
    while the word is one of an FC element; raises ValueError otherwise,
    with its own message when t is a right descent.  The adjacent letter s
    is unique across all valid factorizations.
    """
    word = check_word(cfg, word)
    cfg.check_generator(t)
    if not heap_is_fc(cfg, word):
        raise ValueError("word must be a reduced word of a fully commutative element")
    if descends(cfg, word, t, False):
        raise ValueError("the letter is a right descent: appending it shortens the element")
    wit = _braid_split(cfg, word, t)
    if wit is None:
        raise ValueError("appending the letter keeps the element fully commutative")
    return wit


def _braid_split(cfg: GroupConfig, word: Word, t: int) -> BraidWitness | None:
    """None when word + (t,) is FC, else its braid witness; the word is
    reduced FC and t is not one of its right descents.

    Let p be the last t of the word.  As in `heap_is_fc`, the extension is
    FC unless exactly one neighbour occurrence s of t comes after p.  The
    positions above p, U, come after p, each with a letter equal or
    adjacent to that of p or of an earlier position of U, so s is the first
    of them.  The rest, w1, is an order ideal, and no letter of
    w2 = U - {s} is adjacent to t, so word = w1 t s w2 up to commutations.
    """
    if t not in word:
        return None
    n = cfg.n
    p = len(word) - 1 - word[::-1].index(t)
    tail = word[p + 1:]
    hits = tail.count(t - 1 or n) + tail.count(t % n + 1)
    if not hits:
        raise InvariantError("the appended letter is a right descent")
    if hits > 1:
        return None
    w1, up = list(word[:p]), []
    above = {t}  # the letters of p and of U so far
    for x in tail:
        if above.isdisjoint((x, x - 1 or n, x % n + 1)):
            w1.append(x)
        else:
            above.add(x)
            up.append(x)
    return BraidWitness(tuple(w1), up[0], tuple(up[1:]))


class AffinePermutation(NamedTuple):
    """Window notation for a bijection of the integers with
    sigma(i + n) = sigma(i) + n and zero net displacement on 1..n.

    The group operations below map valid windows to valid windows, and no
    command reads a window from outside.  Equality and hashing are the
    tuple's: never compare a permutation with a bare (n, window) tuple."""
    n: int
    window: tuple[int, ...]

    @classmethod
    def identity(cls, n: int) -> AffinePermutation:
        return cls(n, tuple(range(1, n + 1)))

    def is_identity(self) -> bool:
        return self.window == tuple(range(1, self.n + 1))

    def image(self, i: int) -> int:
        c = (i - 1) % self.n + 1
        return self.window[c - 1] + (i - c)

    def times_generator(self, i: int) -> AffinePermutation:
        """Right multiplication by the adjacent transposition s_i."""
        n = self.n
        if not 1 <= i <= n:
            raise ValueError(f"generator index {i} out of range 1..{n}")
        w = list(self.window)
        if i < n:
            w[i - 1], w[i] = w[i], w[i - 1]
        else:
            w[0], w[n - 1] = w[n - 1] - n, w[0] + n
        return AffinePermutation(n, tuple(w))

    def compose(self, other: AffinePermutation) -> AffinePermutation:
        """self after other, i.e. the group product self * other."""
        if self.n != other.n:
            raise ValueError("mismatched n")
        win = []
        for i in range(1, self.n + 1):
            q = other.window[i - 1]
            c = (q - 1) % self.n + 1
            win.append(self.window[c - 1] + (q - c))
        return AffinePermutation(self.n, tuple(win))

    def ascends(self, i: int) -> bool:
        """Whether l(self * s_i) = l(self) + 1 (Bjorner-Brenti 8.3)."""
        return self.image(i) < self.image(i + 1)

    def fc_ascents(self) -> list[int]:
        """The ascents s of p = self, ascending, at which p s_s still avoids
        321, for p avoiding 321.

        An affine permutation is FC exactly when no i < j < k have
        p(i) > p(j) > p(k) (Green 2002).  Right multiplication by s_s swaps
        the values at s + kn and s + 1 + kn, so a triple holding no such pair
        keeps its order and was a 321 of p already; a new one is
        (i, s, s + 1) with p(i) > p(s + 1), or (s, s + 1, i + n) with
        p(i) + n < p(s).  By periodicity i ranges over s - n .. s - 1, where
        the classes of s and s + 1 never qualify: the n - 2 other classes,
        each at its lift just left of s, must lie strictly between the bounds.
        `ext` holds the images of 1 - n .. 2n, so p(i) is ext[i + n - 1] and
        those n - 2 values are one slice, never empty since n >= 3.
        """
        n, w = self.n, self.window
        ext = [v - n for v in w] + list(w) + [v + n for v in w]
        out = []
        for s in range(1, n + 1):
            lo, hi = ext[s + n - 1], ext[s + n]
            if lo < hi:
                mid = ext[s + 1:s + n - 1]
                if lo - n < min(mid) and max(mid) < hi:
                    out.append(s)
        return out

    def is_involution(self) -> bool:
        return self.compose(self).is_identity()


def perm_of(cfg: GroupConfig, word) -> AffinePermutation:
    """The affine permutation of a word, the product of its generators."""
    return _perm_of(cfg.n, check_word(cfg, word))


@lru_cache(maxsize=CACHE_SIZE)
def _perm_of(n: int, word: Word) -> AffinePermutation:
    if not word:
        return AffinePermutation.identity(n)
    cut = min(len(word) - 1, PREFIX_REUSE)
    p = _perm_of(n, word[:cut])
    for s in word[cut:]:
        p = p.times_generator(s)
    return p


def reduced_perm(cfg: GroupConfig, word) -> AffinePermutation | None:
    """The word's affine permutation, or None if the word is not reduced."""
    p = AffinePermutation.identity(cfg.n)
    for s in check_word(cfg, word):
        if not p.ascends(s):
            return None
        p = p.times_generator(s)
    return p


def left_decomposition(cfg: GroupConfig, word) -> tuple[frozenset[int], ...]:
    """Left decomposition of an FC element given by a reduced word: its
    factorization into blocks of pairwise commuting letters, the layers of
    the heap peeled from the bottom.  Block k is the left descent set of
    the element left after the first k blocks are peeled, and the blocks'
    letters, each block in any order, make a reduced word.

    Each letter goes one layer above the highest layer holding an equal or
    adjacent letter (so letters in one layer commute).  The layer of a
    letter's last occurrence is its highest, so one scan keeping those
    layers builds every layer."""
    n = cfg.n
    level: dict[int, int] = {}  # the layer of each letter's last occurrence
    layers: list[set[int]] = []
    for x in check_word(cfg, word):
        k = 1 + max(level.get(x, -1), level.get(x - 1 or n, -1), level.get(x % n + 1, -1))
        if k == len(layers):
            layers.append(set())
        layers[k].add(x)
        level[x] = k
    return tuple(map(frozenset, layers))
