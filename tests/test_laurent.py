import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import coeff_json

from afftl.laurent import (
    DELTA, ONE, V, ZERO, LaurentPoly, delta_power, norm1, pack, product_bits, unpack
)

V_INV = LaurentPoly(((-1, 1),))

PROPERTY = settings(max_examples=300, deadline=None, database=None)
coeff_dicts = st.dictionaries(st.integers(-8, 8), st.integers(-4, 4), max_size=6)
polys = coeff_dicts.map(LaurentPoly.from_dict)
# raw JSON coefficient lists: exponents may repeat and coefficients be zero
raw_json = st.lists(
    st.fixed_dictionaries({"exp": st.integers(-8, 8), "c": st.integers(-4, 4)}), max_size=8
)


def assert_normal(p):
    """Exponents strictly increasing, no zero coefficient: the form every
    LaurentPoly is built in, which its constructor does not check."""
    assert type(p) is LaurentPoly
    exps = [e for e, _ in p.terms]
    assert all(a < b for a, b in zip(exps, exps[1:])), p
    assert all(c for _, c in p.terms), p


class TestRingOps:
    def test_delta_powers(self):
        assert delta_power(0) == ONE
        assert delta_power(1) == DELTA
        assert delta_power(2) == LaurentPoly.from_dict({2: 1, 0: 2, -2: 1})
        # the binomial closed form against repeated squaring
        for k in range(41):
            assert_normal(delta_power(k))
            assert delta_power(k) == DELTA**k, k

    def test_difference_of_squares(self):
        assert (V + V_INV) * (V - V_INV) == LaurentPoly.from_dict({2: 1, -2: -1})

    def test_add_cancels(self):
        assert V + (-V) == ZERO
        assert not (V - V)

    def test_int_coercion(self):
        assert 2 * DELTA == DELTA + DELTA
        assert DELTA + 0 == DELTA
        assert 1 - V * V_INV == ZERO

    def test_pow(self):
        assert V**3 == LaurentPoly.from_dict({3: 1})
        assert DELTA**0 == ONE
        with pytest.raises(ValueError):
            DELTA ** (-1)

    def test_negative_exponent_rejected_in_delta_power(self):
        with pytest.raises(ValueError):
            delta_power(-1)

    @pytest.mark.parametrize(
        "other", ["x", None, 1.5, pytest.param(((0, 1),), id="tuple"), pytest.param((), id="empty")]
    )
    def test_foreign_operands_raise_type_error(self, other):
        # a LaurentPoly is a tuple, so a tuple on the left must not concatenate
        with pytest.raises(TypeError):
            other + V
        with pytest.raises(TypeError):
            V + other
        with pytest.raises(TypeError):
            other - V
        with pytest.raises(TypeError):
            V - other
        with pytest.raises(TypeError):
            other * V


class TestNormalization:
    def test_no_zero_terms_stored(self):
        assert LaurentPoly.from_dict({5: 0, 1: 2}).terms == ((1, 2),)

    @PROPERTY
    @given(polys, polys, st.integers(-3, 3), st.integers(0, 4))
    def test_operations_build_the_normal_form(self, p, q, k, power):
        for r in (p + q, p - q, p * q, p + k, k - p, k * p, p**power, -p):
            assert_normal(r)

    @PROPERTY
    @given(coeff_dicts, raw_json)
    def test_input_is_normalised(self, coeffs, entries):
        assert_normal(LaurentPoly.from_dict(coeffs))
        assert_normal(LaurentPoly.from_json(entries))

    @PROPERTY
    @given(polys, st.integers(0, 3))
    def test_unpack_builds_the_normal_form(self, p, slack):
        lo = (p.terms[0][0] if p.terms else 0) - slack
        bits = product_bits(norm1(p))
        r = unpack(pack(p, lo, bits), lo, bits)
        assert_normal(r)
        assert r == p

    def test_hashable_and_equal(self):
        assert hash(V + V_INV) == hash(DELTA)
        assert {DELTA: 1}[V_INV + V] == 1


class TestFormatting:
    def test_str(self):
        assert str(ZERO) == "0"
        assert str(DELTA) == "v + v^-1"
        assert str(delta_power(2)) == "v^2 + 2 + v^-2"
        assert str(-V) == "-v"


class TestJson:
    def test_roundtrip(self):
        p = delta_power(3) - 2 * V
        assert coeff_json(p) == [{"exp": e, "c": c} for e, c in p.terms]
        assert LaurentPoly.from_json(coeff_json(p)) == p
