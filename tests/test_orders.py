import random
from collections import Counter
from itertools import combinations, product

import pytest

from extlift.algebra import (
    MAX_VARS,
    AlgebraContext,
    ExtMonomial,
    ExtPolynomial,
    FreePolynomial,
    ext_monomials_of_degree,
)
from extlift.exterior import ExtIdeal, groebner_ext
from extlift.orders import ExtOrderSpec, FreeOrderSpec, leading_term_ext, leading_term_free

from helpers import cmp_ext, cmp_lex, cmp_t, random_ext_polynomial
from oracles import tuple_ext_key, tuple_word_key

DEGLEX = ExtOrderSpec("deglex")
DEGREVLEX = ExtOrderSpec("degrevlex")
T_DEGLEX = FreeOrderSpec(DEGLEX)


def deglex_oracle(m: ExtMonomial, u: ExtMonomial, n: int) -> int:
    """Compare exponent vectors: degree first, then from the top variable."""
    if m.degree != u.degree:
        return -1 if m.degree < u.degree else 1
    em = [1 if i in m.support else 0 for i in range(1, n + 1)]
    eu = [1 if i in u.support else 0 for i in range(1, n + 1)]
    for a, b in zip(reversed(em), reversed(eu)):
        if a != b:
            return 1 if a > b else -1
    return 0


def degrevlex_oracle(m: ExtMonomial, u: ExtMonomial, n: int) -> int:
    if m.degree != u.degree:
        return -1 if m.degree < u.degree else 1
    em = [1 if i in m.support else 0 for i in range(1, n + 1)]
    eu = [1 if i in u.support else 0 for i in range(1, n + 1)]
    for a, b in zip(em, eu):
        if a != b:
            # smaller exponent at the smallest differing variable wins
            return 1 if a < b else -1
    return 0


class TestCmpLex:
    def test_examples(self):
        assert cmp_lex((1, 2), (2, 1)) < 0
        assert cmp_lex((2, 1), (2, 1)) == 0
        assert cmp_lex((1, 3), (1, 2)) > 0

    def test_unequal_degrees_rejected(self):
        with pytest.raises(ValueError):
            cmp_lex((1,), (1, 2))


class TestCmpExt:
    def test_examples(self):
        assert cmp_ext(ExtMonomial([2, 3]), ExtMonomial([1, 2]), DEGLEX) > 0
        m = ExtMonomial([1, 3])
        assert cmp_ext(m, m, DEGLEX) == 0
        assert cmp_ext(ExtMonomial(), ExtMonomial([1]), DEGLEX) < 0

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_exponent_vector_oracles(self, n):
        ctx = AlgebraContext(n)
        monos = [m for d in range(n + 1) for m in ext_monomials_of_degree(ctx, d)]
        for m in monos:
            for u in monos:
                assert cmp_ext(m, u, DEGLEX) == deglex_oracle(m, u, n)
                assert cmp_ext(m, u, DEGREVLEX) == degrevlex_oracle(m, u, n)

    @pytest.mark.parametrize("spec", [DEGLEX, DEGREVLEX])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_yorder_multiplicativity(self, spec, n):
        # m < n implies mt < nt whenever both products are nonzero
        ctx = AlgebraContext(n)
        monos = [m for d in range(n + 1) for m in ext_monomials_of_degree(ctx, d)]
        for m in monos:
            for u in monos:
                if cmp_ext(m, u, spec) >= 0:
                    continue
                for t in monos:
                    if m.disjoint(t) and u.disjoint(t):
                        assert cmp_ext(m * t, u * t, spec) < 0

    def test_varorder_ranking(self):
        # ranking x2 < x1 < x3 flips the quadric comparison
        spec = ExtOrderSpec("deglex", ranking=(2, 1, 3))
        assert cmp_ext(ExtMonomial([1, 3]), ExtMonomial([2, 3]), spec) > 0


class TestCmpT:
    def test_examples(self):
        assert cmp_t((1, 2), (2, 1), T_DEGLEX) < 0
        assert cmp_t((1, 1), (2, 1), T_DEGLEX) < 0
        assert cmp_t((3,), (1, 2), T_DEGLEX) < 0

    def test_total_order(self):
        # keys induce a genuine total order on every degree slice
        for spec in (FreeOrderSpec(DEGLEX), FreeOrderSpec(DEGREVLEX)):
            for n in (3, 4):
                for d in (2, 3):
                    words = [tuple(w) for w in product(range(1, n + 1), repeat=d)]
                    keys = [spec.word_key(w) for w in words]
                    assert len(set(keys)) == len(words)

    @pytest.mark.parametrize("seed", range(30))
    def test_multiplicative(self, seed):
        rng = random.Random(seed)
        n = 4
        spec = FreeOrderSpec(rng.choice([DEGLEX, DEGREVLEX]))
        d = rng.randint(1, 5)
        M = tuple(rng.randint(1, n) for _ in range(d))
        N = tuple(rng.randint(1, n) for _ in range(d))
        A = tuple(rng.randint(1, n) for _ in range(rng.randint(0, 2)))
        B = tuple(rng.randint(1, n) for _ in range(rng.randint(0, 2)))
        c = cmp_t(M, N, spec)
        assert cmp_t(A + M + B, A + N + B, spec) == c

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_agrees_with_ext_order_via_delta(self, n):
        spec = FreeOrderSpec(DEGLEX)
        for d in range(1, n + 1):
            for a in combinations(range(1, n + 1), d):
                for b in combinations(range(1, n + 1), d):
                    c_ext = cmp_ext(ExtMonomial(a), ExtMonomial(b), DEGLEX)
                    assert cmp_t(tuple(a), tuple(b), spec) == (
                        c_ext if c_ext != 0 else 0
                    )

    def test_degree_compatible(self):
        spec = FreeOrderSpec(DEGLEX)
        assert cmp_t((3, 3, 3), (1, 1, 1, 1), spec) < 0


def rankings(n: int) -> list[tuple[int, ...] | None]:
    """The natural ranking and two others: reversed, and rotated by one."""
    return [None, tuple(range(n, 0, -1)), tuple(range(2, n + 1)) + (1,)]


def assert_same_order(items, int_key, tuple_key):
    # sorting by the integer key must sort strictly by the tuple key
    keys = [tuple_key(x) for x in sorted(items, key=int_key)]
    assert all(a < b for a, b in zip(keys, keys[1:]))


class TestIntegerKeys:
    @pytest.mark.parametrize("kind", ["deglex", "degrevlex"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_word_key_orders_like_tuple_key(self, n, kind):
        words = [w for d in range(5) for w in product(range(1, n + 1), repeat=d)]
        for ranking in rankings(n):
            spec = FreeOrderSpec(ExtOrderSpec(kind, ranking))
            assert_same_order(words, spec.word_key, lambda w: tuple_word_key(spec, w))

    @pytest.mark.parametrize("kind", ["deglex", "degrevlex"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_ext_key_orders_like_tuple_key(self, n, kind):
        ctx = AlgebraContext(n)
        monos = [m for d in range(n + 1) for m in ext_monomials_of_degree(ctx, d)]
        for ranking in rankings(n):
            spec = ExtOrderSpec(kind, ranking)
            assert_same_order(monos, spec.ext_key, lambda m: tuple_ext_key(spec, m))

    @pytest.mark.parametrize("kind", ["deglex", "degrevlex"])
    def test_largest_ranks_stay_degree_first(self, kind):
        # ranks up to MAX_VARS fill a digit without carrying into the next
        n = MAX_VARS
        spec = FreeOrderSpec(ExtOrderSpec(kind, tuple(range(n, 0, -1))))
        rng = random.Random(64)
        words = [(), (1,), (n,), (n, n), (1, 1, 1), (n, n, n)]
        words += [tuple(rng.randint(1, n) for _ in range(rng.randint(1, 4))) for _ in range(300)]
        assert_same_order(set(words), spec.word_key, lambda w: tuple_word_key(spec, w))
        monos = [ExtMonomial(rng.sample(range(1, n + 1), rng.randint(0, 5))) for _ in range(300)]
        assert_same_order(set(monos), spec.base.ext_key, lambda m: tuple_ext_key(spec.base, m))

    def test_groebner_ext_computes_each_key_once(self, monkeypatch):
        # rref, the leading terms and the minimal-generator test all look
        # the key of a monomial up in the order's memo
        rng = random.Random("key-memo")
        ctx = AlgebraContext(8)
        order = ExtOrderSpec("deglex")
        I = ExtIdeal(ctx, [random_ext_polynomial(rng, ctx, 2) for _ in range(3)], order)
        computed: Counter = Counter()
        multiset_key = ExtOrderSpec.multiset_key

        def counted(self, letters):
            computed[letters] += 1
            return multiset_key(self, letters)

        monkeypatch.setattr(ExtOrderSpec, "multiset_key", counted)
        groebner_ext(I)
        assert computed and max(computed.values()) == 1


class TestLeadingTerms:
    def test_ext_leading(self):
        f = ExtPolynomial([(ExtMonomial([1, 2]), 1), (ExtMonomial([2, 3]), 1)])
        m, c = leading_term_ext(f, DEGLEX)
        assert m == ExtMonomial([2, 3]) and c == 1

    def test_single_monomial(self):
        f = ExtPolynomial.monomial(ExtMonomial([1, 3]), 7)
        assert leading_term_ext(f, DEGLEX) == (ExtMonomial([1, 3]), 7)

    def test_anti_commutator_lead(self):
        F = FreePolynomial([((1, 2), 1), ((2, 1), 1)])
        w, c = leading_term_free(F, T_DEGLEX)
        assert w == (2, 1) and c == 1

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            leading_term_ext(ExtPolynomial(), DEGLEX)
        with pytest.raises(ValueError):
            leading_term_free(FreePolynomial(), T_DEGLEX)


class TestSpecValidation:
    def test_bad_kind(self):
        with pytest.raises(ValueError):
            ExtOrderSpec("lex")

    def test_bad_ranking(self):
        with pytest.raises(ValueError):
            ExtOrderSpec("deglex", ranking=(1, 1, 2))

    def test_key_memos_are_per_instance(self):
        # a spec memoises its keys; two specs, also two default ones, never share a memo
        a, b = ExtOrderSpec(), ExtOrderSpec()
        assert a._keys is not b._keys
        a.ext_key(ExtMonomial([1, 2]))
        assert len(a._keys) == 1 and b._keys == {}
        ta, tb = FreeOrderSpec(a), FreeOrderSpec(a)
        assert ta._keys is not tb._keys
        ta.word_key((2, 1))
        assert len(ta._keys) == 1 and tb._keys == {}
