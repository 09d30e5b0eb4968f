"""Word-level machinery for the affine Coxeter group of the cyclic graph.

Words are tuples of generator indices in 1..n.  The elements of interest
are the fully commutative ("FC") ones: those none of whose reduced
expressions contain a factor sts with s, t adjacent.  A reduced word of an
FC element has a single commutation class, so the element is its heap: the
positions of the word, ordered by the transitive closure of "i < j and the
letters are equal or adjacent" (Stembridge 1996, *On the fully commutative
elements of Coxeter groups*).  Left descents are the heap's minimal
elements and right descents its maximal ones, so one scan of the word
finds each descent set (`descent_mask`), and peeling minimal elements
layer by layer gives the left decomposition.  The obstruction produced by
appending a letter that breaks full commutativity is read off the heap of
the extended word (`_braid_split`).

The module also hosts an affine-permutation model of the group (window
notation), used throughout as an independent oracle for lengths, element
identity and involution tests.

Public functions check their words and generators; the loops inside test
adjacency with one lookup in the configuration's bitmasks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .config import GroupConfig
from .diagrams import InvariantError

Word = tuple[int, ...]


def check_word(cfg: GroupConfig, word) -> Word:
    word = tuple(word)
    if not cfg.letters.issuperset(word):
        for s in word:
            cfg.check_generator(s)
    return word


def support(word) -> frozenset[int]:
    """Set of generators appearing in the word."""
    return frozenset(word)


def descent_mask(masks: tuple[int, ...], word: Word, left: bool) -> int:
    """Left (or right) descent set of a word as a bitmask, in one scan.

    A letter is a descent when its first (last) occurrence has no earlier
    (later) adjacent letter, that is when it is a minimal (maximal) element
    of the heap.  `masks` is `GroupConfig.masks`; the letters are not
    checked.
    """
    blocked = found = 0
    for x in word if left else reversed(word):
        if not blocked >> x & 1:
            found |= 1 << x
        blocked |= masks[x]
    return found


def mask_letters(mask: int) -> list[int]:
    """The letters of a bitmask, ascending."""
    return [x for x in range(mask.bit_length()) if mask >> x & 1]


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
    if descent_mask(cfg.masks, word, True) >> s & 1:
        return (s,) + drop_letter(word, s, True)
    return None


def greedy_back(cfg: GroupConfig, word, s: int) -> Word | None:
    """Mirror of greedy_front: a word for the same element ending with s."""
    cfg.check_generator(s)
    word = check_word(cfg, word)
    if descent_mask(cfg.masks, word, False) >> s & 1:
        return drop_letter(word, s, False) + (s,)
    return None


def left_descents(cfg: GroupConfig, word) -> frozenset[int]:
    """Left descent set of an FC element given by a reduced word."""
    return frozenset(mask_letters(descent_mask(cfg.masks, check_word(cfg, word), True)))


def right_descents(cfg: GroupConfig, word) -> frozenset[int]:
    return frozenset(mask_letters(descent_mask(cfg.masks, check_word(cfg, word), False)))


def commutation_class(cfg: GroupConfig, word, cap: int = 500_000) -> frozenset[Word]:
    """All words obtainable by swapping adjacent commuting letters."""
    start = check_word(cfg, word)
    masks = cfg.masks
    seen = {start}
    stack = [start]
    while stack:
        w = stack.pop()
        for i in range(len(w) - 1):
            a, b = w[i], w[i + 1]
            if a != b and not masks[a] >> b & 1:
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
    adjacent, closed transitively."""
    masks = cfg.masks
    m = len(word)
    reach = [0] * m
    for i in range(m - 1, -1, -1):
        near = masks[word[i]] | 1 << word[i]
        r = 0
        for j in range(i + 1, m):
            if near >> word[j] & 1:
                r |= 1 << j | reach[j]
        reach[i] = r
    return reach


def _between(reach: list[int], x: int, z: int) -> int:
    """The heap positions strictly between positions x < z, as a bitmask."""
    return sum(1 << u for u in range(x + 1, z) if reach[x] >> u & 1 and reach[u] >> z & 1)


def heap_is_fc(cfg: GroupConfig, word) -> bool:
    """FC test for a word already known to be reduced.

    Between two consecutive occurrences of a letter s in the heap order
    there must lie at least two other elements; exactly one means some
    commutation-equivalent word contains a braid factor sts.
    """
    word = check_word(cfg, word)
    reach = _heap_reach(cfg, word)
    last: dict[int, int] = {}
    for z, s in enumerate(word):
        if s in last and _between(reach, last[s], z).bit_count() <= 1:
            return False
        last[s] = z
    return True


def is_fc_reduced(cfg: GroupConfig, word) -> bool:
    """Whether the word is a reduced expression of a fully commutative
    element.  Reducedness comes from the affine-permutation oracle."""
    word = check_word(cfg, word)
    if to_affine_permutation(cfg, word).length() != len(word):
        return False
    return heap_is_fc(cfg, word)


@dataclass(frozen=True)
class BraidWitness:
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
    if not is_fc_reduced(cfg, word):
        raise ValueError("word must be a reduced word of a fully commutative element")
    if descent_mask(cfg.masks, word, False) >> t & 1:
        raise ValueError("the letter is a right descent: appending it shortens the element")
    wit = _braid_split(cfg, word, t)
    if wit is None:
        raise ValueError("appending the letter keeps the element fully commutative")
    return wit


def _braid_split(cfg: GroupConfig, word: Word, t: int) -> BraidWitness | None:
    """None when word + (t,) is FC, else its braid witness; the word is
    reduced FC and t is not one of its right descents.

    Let p be the last t of the word.  The positions above p in the heap of
    word + (t,) all come after p, so the heap of word[p:] + (t,) has them:
    call them U.  The extension is FC unless exactly one position s of U
    lies below the appended t; then the rest, w1, is an order ideal, s is
    minimal in U, and no letter of w2 = U - {s} is adjacent to t, so
    word = w1 t s w2 up to commutations.
    """
    if t not in word:
        return None
    p = len(word) - 1 - word[::-1].index(t)
    tail = word[p:] + (t,)
    reach = _heap_reach(cfg, tail)
    between = _between(reach, 0, len(tail) - 1)
    if not between:
        raise InvariantError("the appended letter is a right descent")
    if between & (between - 1):
        return None
    s = between.bit_length() - 1
    up, inner = reach[0], range(1, len(tail) - 1)
    w1 = word[:p] + tuple(tail[i] for i in inner if not up >> i & 1)
    w2 = tuple(tail[i] for i in inner if up >> i & 1 and i != s)
    return BraidWitness(w1, tail[s], w2)


@dataclass(frozen=True)
class AffinePermutation:
    """Window notation for a bijection of the integers with
    sigma(i + n) = sigma(i) + n and zero net displacement on 1..n.

    The public constructor validates the window; the group operations
    below build their results through `_trusted`, which does not, since
    they map valid windows to valid windows."""
    n: int
    window: tuple[int, ...]

    def __post_init__(self):
        n = self.n
        if len(self.window) != n:
            raise ValueError("window must have n entries")
        if sum(self.window) != n * (n + 1) // 2:
            raise ValueError("window displacements must sum to zero")
        if len({v % n for v in self.window}) != n:
            raise ValueError("window entries must be distinct modulo n")

    @classmethod
    def _trusted(cls, n: int, window: tuple[int, ...]) -> AffinePermutation:
        p = object.__new__(cls)
        object.__setattr__(p, "n", n)
        object.__setattr__(p, "window", window)
        return p

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
        return AffinePermutation._trusted(n, tuple(w))

    def compose(self, other: AffinePermutation) -> AffinePermutation:
        """self after other, i.e. the group product self * other."""
        if self.n != other.n:
            raise ValueError("mismatched n")
        win = []
        for i in range(1, self.n + 1):
            q = other.window[i - 1]
            c = (q - 1) % self.n + 1
            win.append(self.window[c - 1] + (q - c))
        return AffinePermutation._trusted(self.n, tuple(win))

    def inverse(self) -> AffinePermutation:
        out = [0] * self.n
        for i in range(1, self.n + 1):
            v = self.window[i - 1]
            c = (v - 1) % self.n + 1
            out[c - 1] = i - (v - c)
        return AffinePermutation._trusted(self.n, tuple(out))

    def length(self) -> int:
        """Coxeter length (periodic inversion count)."""
        w = self.window
        n = self.n
        total = 0
        for i in range(n):
            for j in range(i + 1, n):
                total += abs((w[j] - w[i]) // n)
        return total

    def is_involution(self) -> bool:
        return self.compose(self).is_identity()


def to_affine_permutation(cfg: GroupConfig, word) -> AffinePermutation:
    word = check_word(cfg, word)
    p = AffinePermutation.identity(cfg.n)
    for s in word:
        p = p.times_generator(s)
    return p


@lru_cache(maxsize=1 << 16)
def _perm_of(n: int, word: Word) -> AffinePermutation:
    return to_affine_permutation(GroupConfig(n), word)


def perm_of(cfg: GroupConfig, word) -> AffinePermutation:
    """Cached variant of to_affine_permutation."""
    return _perm_of(cfg.n, tuple(word))


@dataclass(frozen=True)
class LeftDecomposition:
    """Factorization into blocks of pairwise commuting letters: the layers
    of the heap, peeled from the bottom.

    groups[k] is the left descent set of the element remaining after the
    first k blocks are peeled; concatenating the blocks reproduces a
    reduced word.
    """
    groups: tuple[frozenset[int], ...]

    def word(self) -> Word:
        out: list[int] = []
        for g in self.groups:
            out.extend(sorted(g))
        return tuple(out)


def left_decomposition(cfg: GroupConfig, word) -> LeftDecomposition:
    """Left decomposition of an FC element given by a reduced word: each
    letter goes one layer above the highest layer holding an equal or
    adjacent letter (so letters in one layer commute), and one scan builds
    every layer as a bitmask."""
    masks = cfg.masks
    layers: list[int] = []
    for x in check_word(cfg, word):
        near = masks[x] | 1 << x
        k = len(layers)
        while k and not layers[k - 1] & near:
            k -= 1
        if k == len(layers):
            layers.append(0)
        layers[k] |= 1 << x
    return LeftDecomposition(tuple(frozenset(mask_letters(g)) for g in layers))


def right_groups(cfg: GroupConfig, word) -> tuple[frozenset[int], ...]:
    """Blocks of the right decomposition, in left-to-right word order (the
    last block is the right descent set of the element)."""
    ld = left_decomposition(cfg, tuple(reversed(tuple(word))))
    return tuple(reversed(ld.groups))
