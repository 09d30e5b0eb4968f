import itertools

import pytest

from conftest import random_fc_word
from oracles import (
    alternating_word,
    commuting_sets,
    is_fc_reduced,
    is_reduced_word,
    perm_inverse,
    perm_length,
)

from afftl.algebra import (
    AlgebraElement,
    element_from_json,
    element_to_json,
    mul,
    rewrite_eval,
    rewrite_mul,
)
from afftl.cells import a_value
from afftl.config import GroupConfig
from afftl.diagrams import generator, length, multiply
from afftl.laurent import DELTA, delta_power
from afftl.straightening import stack, straighten
from afftl.words import commutation_class, heap_is_fc, perm_of


def fc_evaluate(cfg, word):
    """The normal form of a word, (exponent, diagram, canonical word):
    stack(word) is delta**exponent times the diagram, whose straightened
    word comes last."""
    r = stack(cfg, word)
    return r.contractible, r.diagram, straighten(r.diagram).letters


class TestFcEvaluate:
    def test_examples(self):
        cfg = GroupConfig(4)
        exponent, _, word = fc_evaluate(cfg, (1, 2, 1))
        assert (exponent, word) == (0, (1,))
        exponent, _, word = fc_evaluate(cfg, (1, 1))
        assert (exponent, word) == (1, (1,))
        exponent, diagram, _ = fc_evaluate(GroupConfig(5), (1, 3))
        assert exponent == 0 and length(diagram) == 2

    def test_reduced_word_detection(self):
        cfg = GroupConfig(4)
        assert is_reduced_word(cfg, (2, 1, 3, 2))
        assert not is_reduced_word(cfg, (1, 2, 1))
        assert not is_reduced_word(cfg, (1, 1))
        assert is_reduced_word(cfg, ())

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_matches_word_level_test(self, n):
        # the heap criterion decides reducedness too: every word, reduced
        # or not, up to the length, against stacking and against the
        # permutation's length and 321-avoidance (21,978 words in all)
        cfg = GroupConfig(n)
        max_len = {3: 7, 4: 6, 5: 5, 6: 5}[n]
        fc = 0
        for k in range(max_len + 1):
            for w in itertools.product(range(1, n + 1), repeat=k):
                got = heap_is_fc(cfg, w)
                assert got == is_reduced_word(cfg, w) == is_fc_reduced(cfg, w), w
                fc += got
        assert 0 < fc < sum(n**k for k in range(max_len + 1))


class TestElementArithmetic:
    def test_square_relation(self):
        cfg = GroupConfig(4)
        e1 = AlgebraElement.from_word(cfg, (1,))
        assert mul(e1, e1) == e1.scale(DELTA)

    def test_bilinearity_example(self):
        cfg = GroupConfig(4)
        e1 = AlgebraElement.from_word(cfg, (1,))
        e2 = AlgebraElement.from_word(cfg, (2,))
        product = mul(e1 + e2, e1)
        expected = e1.scale(DELTA) + AlgebraElement.from_word(cfg, (2, 1))
        assert product == expected

    def test_unit(self):
        cfg = GroupConfig(5)
        a = AlgebraElement.from_word(cfg, (1, 3)) + AlgebraElement.from_word(cfg, (2,)).scale(DELTA)
        assert mul(AlgebraElement.one(5), a) == a
        assert mul(a, AlgebraElement.one(5)) == a

    def test_foreign_operands_raise_type_error(self):
        one = AlgebraElement.one(4)
        for other in (3, DELTA, "x", None):
            with pytest.raises(TypeError):
                one - other
            with pytest.raises(TypeError):
                one + other

    def test_from_word_folds_loops(self):
        cfg = GroupConfig(4)
        assert AlgebraElement.from_word(cfg, (1, 1)) == AlgebraElement.from_word(cfg, (1,)).scale(DELTA)

    def test_distributivity_and_associativity(self, cfg, rng):
        def rand_elt():
            out = AlgebraElement.zero(cfg.n)
            for _ in range(rng.randrange(1, 4)):
                coeff = delta_power(rng.randrange(0, 2)) - rng.randrange(0, 2)
                out = out + AlgebraElement.from_word(cfg, random_fc_word(cfg, rng, 5)).scale(coeff)
            return out

        for _ in range(12):
            a, b, c = rand_elt(), rand_elt(), rand_elt()
            assert mul(a, b + c) == mul(a, b) + mul(a, c)
            assert mul(mul(a, b), c) == mul(a, mul(b, c))

    def test_structure_constants_single_delta_power(self, cfg, rng):
        for _ in range(25):
            x = AlgebraElement.from_word(cfg, random_fc_word(cfg, rng, 6))
            y = AlgebraElement.from_word(cfg, random_fc_word(cfg, rng, 6))
            product = mul(x, y)
            assert len(product.terms) == 1
            (coeff,) = product.terms.values()
            assert any(coeff == delta_power(k) for k in range(8))


class TestRewriteEngine:
    def test_examples(self):
        cfg = GroupConfig(4)
        assert rewrite_mul(cfg, (1,), 1) == (1, (1,))
        exp, word = rewrite_mul(cfg, (1, 2), 1)
        assert exp == 0 and perm_of(cfg, word) == perm_of(cfg, (1,))
        cfg5 = GroupConfig(5)
        assert rewrite_mul(cfg5, (1, 3), 2) == (0, (1, 3, 2))

    def test_agrees_with_fc_evaluate(self, cfg, rng):
        for _ in range(40):
            w = random_fc_word(cfg, rng, 7)
            s = rng.choice(range(1, cfg.n + 1))
            exp, word = rewrite_mul(cfg, w, s)
            exponent, _, canonical = fc_evaluate(cfg, w + (s,))
            assert exp == exponent
            assert perm_of(cfg, word) == perm_of(cfg, canonical)

    def test_engine_agreement_basis_pairs(self):
        # both engines on all basis pairs at a small horizon
        from afftl.explore import enumerate_elements

        cfg = GroupConfig(4)
        recs = list(enumerate_elements(cfg, 3))
        for ra in recs:
            for rb in recs:
                exp, word = rewrite_eval(cfg, rb.word, start=ra.word)
                prod = multiply(ra.diagram, rb.diagram)
                assert exp == prod.contractible
                assert stack(cfg, word).diagram == prod.diagram
                assert perm_of(cfg, word) == perm_of(
                    cfg, fc_evaluate(cfg, ra.word + rb.word)[2]
                )


class TestAlgebraCellFacts:
    def test_core_factor_appears_in_products(self, cfg, rng):
        # multiplying a commuting-block monomial by generators keeps a
        # translate of an equally-sized block as a contiguous factor
        cores = [t for t in commuting_sets(cfg) if t]
        for _ in range(15):
            q = tuple(sorted(rng.choice(cores)))
            word = q
            for _ in range(rng.randrange(0, 8 - len(q))):
                _, word = rewrite_mul(cfg, word, rng.choice(range(1, cfg.n + 1)))
            blocks = set()
            for u in commutation_class(cfg, word):
                for a in range(len(u) - len(q) + 1):
                    block = frozenset(u[a: a + len(q)])
                    if len(block) == len(q) and all(
                        not cfg.adjacent(x, y) for x in block for y in block if x < y
                    ):
                        blocks.add(block)
            if 2 * len(q) < cfg.n:
                # the neighbour class of q is all blocks of the same size
                assert blocks
            else:
                # maximal blocks form singleton classes: q itself must recur
                assert frozenset(q) in blocks

    def test_alternating_core_recurs_in_products(self, rng):
        # singleton-class cores of several factors recur verbatim (up to
        # commutations) inside any product they generate
        cfg = GroupConfig(4)
        for factors in (2, 3):
            q = alternating_word(cfg, "odd", factors)
            pq = perm_of(cfg, q)
            for _ in range(10):
                word = q
                for _ in range(rng.randrange(0, 8 - len(q))):
                    _, word = rewrite_mul(cfg, word, rng.choice(range(1, 5)))
                assert any(
                    perm_of(cfg, u[a: a + len(q)]) == pq
                    for u in commutation_class(cfg, word)
                    for a in range(len(u) - len(q) + 1)
                )

    def test_right_products_keep_core_prefix(self, cfg, rng):
        # E_q E_{s_1} ... E_{s_m} lands on an element of the form q.x
        cores = [t for t in commuting_sets(cfg)]
        for _ in range(20):
            q = tuple(sorted(rng.choice(cores)))
            word = q
            for _ in range(rng.randrange(0, 6)):
                _, word = rewrite_mul(cfg, word, rng.choice(range(1, cfg.n + 1)))
            pq = perm_of(cfg, q)
            pw = perm_of(cfg, word)
            assert perm_length(perm_inverse(pq).compose(pw)) == perm_length(pw) - perm_length(pq)

    def test_a_monotone_under_right_multiplication(self, cfg, rng):
        for _ in range(60):
            w = random_fc_word(cfg, rng, 8)
            s = rng.choice(range(1, cfg.n + 1))
            w2 = fc_evaluate(cfg, w + (s,))[2]
            assert a_value(cfg, w2) >= a_value(cfg, w)


class TestElementJson:
    def test_roundtrip(self, cfg, rng):
        elt = AlgebraElement.zero(cfg.n)
        for _ in range(3):
            elt = elt + AlgebraElement.from_word(cfg, random_fc_word(cfg, rng, 6)).scale(
                delta_power(rng.randrange(0, 2))
            )
        assert element_from_json(element_to_json(elt)) == elt

    def test_schema(self):
        cfg = GroupConfig(4)
        obj = element_to_json(AlgebraElement.from_word(cfg, (2, 1)))
        assert obj == {"n": 4, "terms": [{"coeff": [{"exp": 0, "c": 1}], "word": [2, 1]}]}

    def test_loader_recanonicalizes(self):
        # a non-reduced stored word folds its loop scalar into the coefficient
        cfg = GroupConfig(4)
        obj = {"n": 4, "terms": [{"coeff": [{"exp": 0, "c": 1}], "word": [1, 1]}]}
        assert element_from_json(obj) == AlgebraElement.from_word(cfg, (1,)).scale(DELTA)

    def test_malformed(self):
        with pytest.raises(ValueError):
            element_from_json({"n": 4})
