"""Integer Laurent polynomials in one variable v.

Stored as a sorted tuple of (exponent, coefficient) pairs with no zero
coefficients, so values are hashable and equality is exact.  The loop
scalar is delta = v + 1/v.

`LaurentPoly` is a NamedTuple whose constructor checks nothing: every
operation here builds the normal form, and input enters through
`from_json`, which, like `from_dict`, sorts, merges and drops zeros
(`algebra.element_to_json` writes coefficients back out).  Its
equality, hash, length and iteration are the tuple's, so never compare a
polynomial with a bare tuple, and read `terms`.

`LaurentPoly` is the public coefficient type.  For bulk products of
operands with dense coefficients, `algebra.mul` works on packed integers
internally (Kronecker substitution): `pack(p, lo, bits)` is the integer sum of
c_e * 2**(bits * (e - lo)), so adding and multiplying packed values is one
Python big-int operation, and the product of two packed values is the
packed product of the polynomials (offset lo_p + lo_q).  Coefficients may
be negative; `unpack` reads the slots back as balanced digits (take the
low `bits` bits, subtract 2**bits when they are at least 2**(bits - 1),
shift, repeat).  This is exact as long as every coefficient of the result
lies strictly inside +-2**(bits - 1).  For a sum of products of
coefficients of A and B, each result coefficient is at most
norm1(A) * norm1(B) in absolute value, where norm1 is the sum of the
absolute values of all coefficients, so bits = product_bits(norm1(A) *
norm1(B)), that is the bound's bit length plus one, is always wide enough.
`algebra.mul` also multiplies by powers of delta in packed form, and
widens the bound by their largest 1-norm.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

from .config import json_int, json_list


class LaurentPoly(NamedTuple):
    terms: tuple[tuple[int, int], ...] = ()

    @classmethod
    def from_dict(cls, coeffs: dict[int, int]) -> LaurentPoly:
        return cls(tuple(sorted((e, c) for e, c in coeffs.items() if c)))

    def as_dict(self) -> dict[int, int]:
        return dict(self.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other) -> LaurentPoly:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = self.as_dict()
        for e, c in other.terms:
            out[e] = out.get(e, 0) + c
        return LaurentPoly.from_dict(out)

    def __radd__(self, other) -> LaurentPoly:
        # NotImplemented here would let a tuple on the left concatenate
        if _coerce(other) is NotImplemented:
            raise TypeError(f"cannot add {type(other).__name__!r} and 'LaurentPoly'")
        return self + other

    def __neg__(self) -> LaurentPoly:
        return LaurentPoly(tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other) -> LaurentPoly:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> LaurentPoly:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other) -> LaurentPoly:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[int, int] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly.from_dict(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> LaurentPoly:
        if not isinstance(k, int) or k < 0:
            raise ValueError("only nonnegative integer powers")
        acc = ONE
        base = self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base
            k >>= 1
        return acc

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in reversed(self.terms):
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                var = "v" if e == 1 else f"v^{e}"
                body = var if mag == 1 else f"{mag}*{var}"
            sign = "-" if c < 0 else "+"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    @classmethod
    def from_json(cls, obj) -> LaurentPoly:
        out: dict[int, int] = {}
        for entry in json_list(obj, "coeff"):
            e = json_int(entry["exp"], "exp")
            out[e] = out.get(e, 0) + json_int(entry["c"], "c")
        return cls.from_dict(out)


def _coerce(x) -> LaurentPoly:
    if isinstance(x, LaurentPoly):
        return x
    if isinstance(x, int):
        return LaurentPoly(((0, x),)) if x else ZERO
    return NotImplemented


ZERO = LaurentPoly()
ONE = LaurentPoly(((0, 1),))
V = LaurentPoly(((1, 1),))
DELTA = LaurentPoly(((-1, 1), (1, 1)))


def delta_power(x: int) -> LaurentPoly:
    """(v + 1/v) ** x, by the binomial theorem: C(x, i) v^(2i - x) for
    i = 0..x."""
    if x < 0:
        raise ValueError("negative loop exponent")
    return LaurentPoly(tuple((2 * i - x, comb(x, i)) for i in range(x + 1)))


def norm1(p: LaurentPoly) -> int:
    """Sum of the absolute values of the coefficients."""
    return sum(abs(c) for _, c in p.terms)


def product_bits(bound: int) -> int:
    """Slot width that packs, exactly, every coefficient of absolute value
    at most `bound` (a nonnegative integer); at least 2."""
    return max(bound, 1).bit_length() + 1


def pack(p: LaurentPoly, lo: int, bits: int) -> int:
    """The integer sum of c_e * 2**(bits * (e - lo)); every exponent of p
    must be at least lo."""
    x = 0
    for e, c in p.terms:
        x += c << bits * (e - lo)
    return x


def unpack(x: int, lo: int, bits: int) -> LaurentPoly:
    """Inverse of `pack` for coefficients strictly inside +-2**(bits - 1)."""
    if bits < 2:
        raise ValueError("slots must be at least 2 bits wide")
    mask = (1 << bits) - 1
    half = 1 << (bits - 1)
    terms = []
    e = lo
    while x:
        c = x & mask
        if c >= half:
            c -= 1 << bits
        if c:
            terms.append((e, c))
        x = (x - c) >> bits
        e += 1
    return LaurentPoly(tuple(terms))
