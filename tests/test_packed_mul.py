"""Packed-integer coefficient arithmetic.

`algebra.mul` packs every coefficient of dense operands into one integer
(Kronecker substitution, see `afftl.laurent`) and sums big-int products
per product diagram; sparse operands keep Laurent coefficients.  It is
played against `mul_pairwise`, one Laurent product per basis pair, on
random elements, cancelling terms, huge coefficients, wide exponent spans,
exponents up to +-10**9 and empty or one-term operands; the pack/unpack
helpers are checked by property tests, including a width bound met
exactly.
"""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import mul_pairwise

from afftl import algebra
from afftl.algebra import AlgebraElement, element_from_json, element_to_json, mul
from afftl.config import GroupConfig
from afftl.diagrams import InvariantError, ProductResult
from afftl.laurent import DELTA, ONE, LaurentPoly, norm1, pack, product_bits, unpack

ROOT = Path(__file__).resolve().parents[1]
PROPERTY = settings(max_examples=300, deadline=None, database=None)


def random_poly(rng, lo, hi, magnitude, terms=4):
    exps = rng.sample(range(lo, hi + 1), min(terms, hi - lo + 1))
    return LaurentPoly.from_dict(
        {e: rng.choice((-1, 1)) * rng.randint(1, magnitude) for e in exps}
    )


def random_element(rng, n, terms, lo=-6, hi=6, magnitude=3):
    """Sum of monomials of random words (reduced or not, so loop scalars
    fold in) with random signed coefficients."""
    cfg = GroupConfig(n)
    out = AlgebraElement.zero(n)
    for _ in range(terms):
        word = [rng.randint(1, n) for _ in range(rng.randint(0, 8))]
        coeff = random_poly(rng, lo, hi, magnitude)
        out = out + AlgebraElement.from_word(cfg, word).scale(coeff)
    return out


def monomial(n, word, coeff=1):
    return AlgebraElement.from_word(GroupConfig(n), word).scale(coeff)


def assert_same_product(a, b):
    got = mul(a, b)
    want = mul_pairwise(a, b)
    assert got == want
    assert element_to_json(got) == element_to_json(want)
    return got


class TestAgainstPairwise:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_random_elements(self, n):
        rng = random.Random(1000 + n)
        for _ in range(6):
            a = random_element(rng, n, rng.randint(1, 12))
            b = random_element(rng, n, rng.randint(1, 12))
            assert_same_product(a, b)

    @pytest.mark.parametrize("n", [3, 5])
    def test_coefficients_above_two_to_the_64(self, n):
        rng = random.Random(2000 + n)
        for _ in range(4):
            a = random_element(rng, n, 8, magnitude=1 << 100)
            b = random_element(rng, n, 8, magnitude=1 << 90)
            product = assert_same_product(a, b)
            assert max(abs(c) for p in product.terms.values() for _, c in p.terms) > 1 << 64

    @pytest.mark.parametrize("n", [4, 6])
    def test_exponent_span_minus_50_to_50(self, n):
        rng = random.Random(3000 + n)
        for _ in range(4):
            a = random_element(rng, n, 6, lo=-50, hi=50, magnitude=50)
            b = random_element(rng, n, 6, lo=-50, hi=50, magnitude=50)
            assert_same_product(a, b)

    def test_terms_cancelling_within_one_loop_count(self):
        # (E1 - 1)(E2 + E1E2) = E1E2 + delta E1E2 - E2 - E1E2: the two E1E2
        # pairs without a loop cancel
        a = monomial(4, [1]) - AlgebraElement.one(4)
        b = monomial(4, [2]) + monomial(4, [1, 2])
        assert assert_same_product(a, b) == monomial(4, [1, 2], DELTA) - monomial(4, [2])

    def test_terms_cancelling_across_loop_counts(self):
        # (E1 - delta) E1 = delta E1 - delta E1
        a = monomial(4, [1]) - AlgebraElement.one(4).scale(DELTA)
        assert assert_same_product(a, monomial(4, [1])).is_zero()
        assert mul(a, monomial(4, [1])).terms == {}

    def test_empty_and_one_term_operands(self):
        zero = AlgebraElement.zero(5)
        x = random_element(random.Random(4), 5, 5)
        assert assert_same_product(zero, x).is_zero()
        assert assert_same_product(x, zero).is_zero()
        assert assert_same_product(zero, zero).is_zero()
        one_term = monomial(5, [1, 3], LaurentPoly.from_dict({-2: 7}))
        assert assert_same_product(one_term, one_term) == monomial(
            5, [1, 3], LaurentPoly.from_dict({-4: 49}) * DELTA * DELTA
        )
        assert assert_same_product(one_term, x) == mul_pairwise(one_term, x)

    def test_most_loops_a_product_can_close(self):
        # E1E3 * E1E3 = delta**2 E1E3: n // 2 = 2 loops close at n = 4
        c = LaurentPoly.from_dict({0: -(1 << 70), 3: 5})
        e13 = monomial(4, [1, 3], c)
        assert assert_same_product(e13, e13) == monomial(4, [1, 3], c * c * DELTA * DELTA)


class TestSparseOperands:
    @PROPERTY
    @given(st.data())
    def test_exponents_up_to_a_billion(self, data):
        n = data.draw(st.integers(3, 6))
        exps = st.integers(-(10**9), 10**9)
        coeffs = st.dictionaries(exps, st.integers(-5, 5).filter(bool), min_size=1, max_size=4)
        terms = st.lists(
            st.tuples(st.lists(st.integers(1, n), max_size=5), coeffs), min_size=1, max_size=4
        )
        a, b = (
            sum(
                (monomial(n, w, LaurentPoly.from_dict(c)) for w, c in data.draw(terms)),
                AlgebraElement.zero(n),
            )
            for _ in range(2)
        )
        assert_same_product(a, b)

    def test_path_follows_density(self, monkeypatch):
        # the products benchmark's operands (exponents -6..6, with loop
        # scalars folded in) pack; 1 + v**E with a large E does not
        monkeypatch.syspath_prepend(str(ROOT))
        from perfbench.workloads import HELD_OUT_SEED, random_element as benchmark_element

        for seed in (0, HELD_OUT_SEED):
            rng = random.Random(seed)
            for _ in range(2):
                assert algebra._dense(element_from_json(benchmark_element(rng, 5, 300)))
        packed = []
        monkeypatch.setattr(algebra, "pack", lambda *args: packed.append(1) or pack(*args))
        dense = random_element(random.Random(5), 5, 40)
        assert_same_product(dense, dense)
        assert packed
        packed.clear()
        sparse = monomial(4, [1], LaurentPoly.from_dict({0: 1, 10**9: 1}))
        assert not algebra._dense(sparse)
        assert assert_same_product(sparse, sparse) == monomial(
            4, [1], LaurentPoly.from_dict({0: 1, 10**9: 2, 2 * 10**9: 1}) * DELTA
        )
        assert not packed


class TestErrors:
    def test_mismatched_sizes(self):
        with pytest.raises(ValueError, match="mismatched sizes"):
            mul(AlgebraElement.one(4), AlgebraElement.one(5))
        with pytest.raises(ValueError, match="mismatched sizes"):
            mul(AlgebraElement.zero(4), AlgebraElement.zero(5))

    @pytest.mark.parametrize("loops", [-1, 3])
    def test_loop_count_outside_range(self, monkeypatch, loops):
        def bad_multiply(a, b):
            return ProductResult(a, loops)

        monkeypatch.setattr(algebra, "multiply", bad_multiply)
        with pytest.raises(InvariantError):
            mul(monomial(4, [1]), monomial(4, [2]))


# --- pack / unpack ---------------------------------------------------------

coefficients = st.one_of(
    st.integers(-5, 5), st.integers(-(1 << 80), 1 << 80)
).filter(bool)
polys = st.dictionaries(st.integers(-50, 50), coefficients, max_size=8).map(
    LaurentPoly.from_dict
)


def lowest(p):
    return p.terms[0][0] if p.terms else 0


@st.composite
def norm_power_of_two(draw):
    """A polynomial whose 1-norm is exactly 2**t: 2**t split into signed
    parts at distinct exponents."""
    t = draw(st.integers(0, 70))
    exps = draw(st.lists(st.integers(-20, 20), min_size=1, max_size=4, unique=True))
    cuts = sorted(draw(st.lists(st.integers(1, (1 << t) - 1), max_size=len(exps) - 1,
                                unique=True))) if t else []
    edges = [0] + cuts + [1 << t]
    parts = [hi - lo for lo, hi in zip(edges, edges[1:])]
    signs = draw(st.lists(st.sampled_from((-1, 1)), min_size=len(parts), max_size=len(parts)))
    p = LaurentPoly.from_dict({e: s * c for e, s, c in zip(exps, signs, parts)})
    assert norm1(p) == 1 << t
    return p


class TestPacking:
    @PROPERTY
    @given(polys, st.integers(0, 5))
    def test_roundtrip(self, p, slack):
        lo = lowest(p) - slack
        bits = product_bits(norm1(p))
        assert unpack(pack(p, lo, bits), lo, bits) == p

    @PROPERTY
    @given(polys, polys)
    def test_product(self, p, q):
        lo_p, lo_q = lowest(p), lowest(q)
        bits = product_bits(norm1(p) * norm1(q))
        x = pack(p, lo_p, bits) * pack(q, lo_q, bits)
        assert unpack(x, lo_p + lo_q, bits) == p * q

    @PROPERTY
    @given(norm_power_of_two(), norm_power_of_two())
    def test_product_when_the_bound_is_a_power_of_two(self, p, q):
        bound = norm1(p) * norm1(q)
        assert bound & (bound - 1) == 0
        lo_p, lo_q = lowest(p), lowest(q)
        bits = product_bits(bound)
        x = pack(p, lo_p, bits) * pack(q, lo_q, bits)
        assert unpack(x, lo_p + lo_q, bits) == p * q

    def test_width_is_tight(self):
        # the product 2**t * 2**u reaches the bound itself; one bit fewer
        # reads it back as a negative digit
        p = LaurentPoly.from_dict({3: 1 << 40})
        q = LaurentPoly.from_dict({-1: 1 << 23})
        bits = product_bits(norm1(p) * norm1(q))
        assert bits == 65
        x = pack(p, 3, bits) * pack(q, -1, bits)
        assert unpack(x, 2, bits) == p * q
        narrow = bits - 1
        y = pack(p, 3, narrow) * pack(q, -1, narrow)
        assert unpack(y, 2, narrow) != p * q
        assert unpack(-y, 2, narrow) == -(p * q)

    def test_zero_and_constants(self):
        assert pack(LaurentPoly(), 0, 3) == 0
        assert unpack(0, -4, 3) == LaurentPoly()
        assert pack(ONE, 0, 3) == 1
        assert unpack(-1, 7, 2) == LaurentPoly.from_dict({7: -1})
        assert product_bits(0) == product_bits(1) == 2
        with pytest.raises(ValueError):
            unpack(1, 0, 1)
