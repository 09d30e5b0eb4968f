"""Exact arithmetic over the diagram basis.

Elements are finite linear combinations of admissible diagrams with
Laurent-polynomial coefficients.  A product of two basis diagrams is a
single basis diagram up to a power of delta = v + 1/v, so multiplication
is bilinear diagram stacking with delta bookkeeping.

`rewrite_mul` is an independent engine computing basis-times-generator
products purely at word level, using only the defining relations and the
descents and braid witness that `words` reads off the heap, one pass each;
it never touches diagrams, affine permutations or the oracle's FC test,
and exists so the engines can be played against each other.  Its start
word is checked by the heap criterion (`words.heap_is_fc`).
"""

from __future__ import annotations

from collections import defaultdict
from functools import lru_cache

from .config import CACHE_SIZE, GroupConfig, InvariantError, json_int, json_list
from .diagrams import AffineDiagram, canonical_key, identity, multiply
from .laurent import ONE, ZERO, LaurentPoly, delta_power, norm1, pack, product_bits, unpack
from .straightening import stack, straighten
from .words import Word, _braid_split, check_word, descends, heap_is_fc


class AlgebraElement:
    """Finite map from basis diagrams to Laurent coefficients."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict[AffineDiagram, LaurentPoly] | None = None):
        self.n = n
        clean: dict[AffineDiagram, LaurentPoly] = {}
        for d, coeff in (terms or {}).items():
            if d.n != n:
                raise ValueError("diagram size does not match the element")
            if coeff:
                clean[d] = coeff
        self.terms = clean

    @classmethod
    def zero(cls, n: int) -> AlgebraElement:
        return cls(n)

    @classmethod
    def one(cls, n: int) -> AlgebraElement:
        return cls(n, {identity(n): ONE})

    @classmethod
    def from_word(cls, cfg: GroupConfig, word) -> AlgebraElement:
        """The monomial of the word, including any contracted-loop scalars."""
        r = stack(cfg, word)
        return cls(cfg.n, {r.diagram: delta_power(r.contractible)})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AlgebraElement)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: AlgebraElement) -> AlgebraElement:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("mismatched sizes")
        out = dict(self.terms)
        for d, c in other.terms.items():
            out[d] = out.get(d, ZERO) + c
        return AlgebraElement(self.n, out)

    def __sub__(self, other: AlgebraElement) -> AlgebraElement:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self + other.scale(-1)

    def scale(self, coeff: LaurentPoly | int) -> AlgebraElement:
        return AlgebraElement(self.n, {d: c * coeff for d, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, LaurentPoly)):
            return self.scale(other)
        if isinstance(other, AlgebraElement):
            return mul(self, other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, LaurentPoly)):
            return self.scale(other)
        return NotImplemented

    def items_sorted(self):
        return sorted(self.terms.items(), key=lambda kv: canonical_key(kv[0]))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for d, c in self.items_sorted():
            word = straighten(d).letters
            bits.append(f"({c})*E{list(word)}")
        return " + ".join(bits)


# Packing pays when coefficients are dense; a sparse coefficient such as
# 1 + v**E would pack into an integer of about E * bits bits.
DENSE_SPAN = 8


def mul(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Bilinear extension of diagram stacking.

    Each basis pair costs one diagram product and one coefficient
    multiply-add into the total of its (product diagram, loop count).  Each
    total is then multiplied by its power of delta and added into its
    diagram's total.

    When both operands are dense (`_dense`), coefficients are packed into
    integers (see `afftl.laurent`), so the multiply-adds are single big-int
    operations and each diagram's total is unpacked once.  A product of two
    diagrams contracts at most n // 2 loops, since every contractible loop
    meets at least two of the n middle node classes.  So no coefficient of
    the result exceeds norm1(a) * norm1(b) * 2**(n // 2) in absolute value
    (the 1-norm of delta**k is 2**k), and packing at the width for that
    bound is exact.  Otherwise the coefficients stay Laurent polynomials,
    whose cost depends on their number of terms, not on their exponents.
    """
    if a.n != b.n:
        raise ValueError("mismatched sizes")
    if not a.terms or not b.terms:
        return AlgebraElement(a.n)
    most = a.n // 2
    packed = _dense(a) and _dense(b)
    if packed:
        bits = product_bits(_norm1(a) * _norm1(b) << most)
        lo_a, lo_b = _lowest_exponent(a), _lowest_exponent(b)
        xs_a = [(da, pack(ca, lo_a, bits)) for da, ca in a.terms.items()]
        xs_b = [(db, pack(cb, lo_b, bits)) for db, cb in b.terms.items()]
    else:
        xs_a, xs_b = list(a.terms.items()), list(b.terms.items())
    totals: defaultdict[tuple[AffineDiagram, int], int | LaurentPoly] = defaultdict(int)
    for da, xa in xs_a:
        for db, xb in xs_b:
            r = multiply(da, db)
            totals[r.diagram, r.contractible] += xa * xb
    deltas: dict[int, int | LaurentPoly] = {}
    out: defaultdict[AffineDiagram, int | LaurentPoly] = defaultdict(int)
    for (d, k), x in totals.items():
        if not 0 <= k <= most:
            raise InvariantError(f"loop count {k} in a product, outside 0..{most}")
        if k not in deltas:
            deltas[k] = pack(delta_power(k), -most, bits) if packed else delta_power(k)
        out[d] += x * deltas[k]
    if packed:
        lo = lo_a + lo_b - most
        out = {d: unpack(x, lo, bits) for d, x in out.items()}
    return AlgebraElement(a.n, out)


def _dense(a: AlgebraElement) -> bool:
    """Whether the exponent span of a's coefficients is at most DENSE_SPAN
    times their mean number of terms.  Packed integers then take memory
    linear in the size of the input, whatever its exponents."""
    coeffs = a.terms.values()
    span = max(c.terms[-1][0] for c in coeffs) - _lowest_exponent(a) + 1
    return span * len(coeffs) <= DENSE_SPAN * sum(len(c.terms) for c in coeffs)


def _norm1(a: AlgebraElement) -> int:
    return sum(norm1(c) for c in a.terms.values())


def _lowest_exponent(a: AlgebraElement) -> int:
    # stored coefficients are nonzero, with terms sorted by exponent
    return min(c.terms[0][0] for c in a.terms.values())


def rewrite_mul(cfg: GroupConfig, word, s: int) -> tuple[int, Word]:
    """E_word * E_s computed by word rewriting alone.

    Returns (delta exponent, reduced word of the product's basis element).
    The input must be a reduced word of a fully commutative element; the
    result is commutation-equivalent to the canonical word of the product.
    """
    return rewrite_eval(cfg, (s,), start=word)


@lru_cache(maxsize=CACHE_SIZE)
def _rewrite_mul_cached(cfg: GroupConfig, word: Word, s: int) -> tuple[int, Word]:
    if descends(cfg, word, s, False):
        # s is a right descent: the square relation contributes one delta
        return 1, word
    wit = _braid_split(cfg, word, s)
    if wit is None:
        return 0, word + (s,)
    # appending s collapses: word = w1 + (s, t) + w2 with s commuting past
    # w2 and t adjacent to s, so the product contracts to w1 + (s,) + w2
    return _fold(cfg, wit.w1 + (s,), wit.w2)


def _fold(cfg: GroupConfig, cur: Word, letters: Word) -> tuple[int, Word]:
    """E_cur times the letters' generators in turn: (delta exponent, word)."""
    exponent = 0
    for s in letters:
        e, cur = _rewrite_mul_cached(cfg, cur, s)
        exponent += e
    return exponent, cur


def rewrite_eval(cfg: GroupConfig, letters, start=()) -> tuple[int, Word]:
    """Fold rewrite_mul over a generator sequence, starting from a reduced
    word of a fully commutative element (default: the identity)."""
    start = check_word(cfg, start)
    if not heap_is_fc(cfg, start):
        raise ValueError("word must be a reduced word of a fully commutative element")
    return _fold(cfg, start, check_word(cfg, letters))


def element_to_json(a: AlgebraElement) -> dict:
    return {
        "n": a.n,
        "terms": [
            {"coeff": c.to_json(), "word": list(straighten(d).letters)}
            for d, c in a.items_sorted()
        ],
    }


def element_from_json(obj: dict) -> AlgebraElement:
    """Load an element; term words are re-evaluated, so non-canonical words
    fold their loop scalars into the coefficient."""
    try:
        n = json_int(obj["n"], "n")
        raw = [(LaurentPoly.from_json(t["coeff"]),
                [json_int(x, "word letter") for x in json_list(t["word"], "word")])
               for t in json_list(obj["terms"], "terms")]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed element JSON: {exc}") from exc
    cfg = GroupConfig(n)
    out: dict[AffineDiagram, LaurentPoly] = {}
    for coeff, word in raw:
        r = stack(cfg, word)
        out[r.diagram] = out.get(r.diagram, ZERO) + coeff * delta_power(r.contractible)
    return AlgebraElement(n, out)
