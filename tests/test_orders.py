import json
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest

from extlift.algebra import (
    MAX_VARS,
    AlgebraContext,
    ExtMonomial,
    ExtPolynomial,
    FreePolynomial,
)
from extlift.cli import EXIT_OK, main
from extlift.exterior import ExtIdeal, MonomialIdealExt
from extlift.freealg import FreeGroebnerCandidate, MonomialIdealFree
from extlift.gin import gin_free
from extlift.lifting import anti_commutators
from extlift.orders import ExtOrderSpec, FreeOrderSpec, leading_term_ext, leading_term_free, monic_free
from extlift.parsing import ext_poly_str, parse_ideal

from helpers import cmp_ext, cmp_lex, cmp_t, ext_monomials_of_degree, random_ext_polynomial
from oracles import digit_ext_key, digit_word_key, tuple_ext_key, tuple_word_key

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
                    if not m.bits & t.bits and not u.bits & t.bits:
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

    @pytest.mark.parametrize("kind", ["deglex", "degrevlex"])
    def test_byte_keys_order_like_tuple_and_digit_keys_at_n64(self, kind):
        # every word of length up to 4 over X1, X2, X63 and X64, and random
        # words over all 64 letters, under the natural ranking and 3 random
        # ones: one byte per rank sorts them as the tuple key and as the
        # 7-bit digit keys it replaced
        rng = random.Random(f"byte-keys/{kind}")
        n = MAX_VARS
        words = {w for d in range(5) for w in product((1, 2, n - 1, n), repeat=d)}
        words |= {tuple(rng.randint(1, n) for _ in range(rng.randint(1, 6))) for _ in range(400)}
        for ranking in [None] + [tuple(rng.sample(range(1, n + 1), n)) for _ in range(3)]:
            spec = FreeOrderSpec(ExtOrderSpec(kind, ranking))
            assert_same_order(words, spec.word_key, lambda w: tuple_word_key(spec, w))
            assert sorted(words, key=spec.word_key) == sorted(words, key=lambda w: digit_word_key(spec, w))

    def test_byte_key_layout(self):
        # the sorted ranks, then the ranks as written, one byte each
        deglex, degrevlex = FreeOrderSpec(DEGLEX), FreeOrderSpec(DEGREVLEX)
        assert deglex.word_key(()) == degrevlex.word_key(()) == 0
        assert deglex.word_key((2, 64, 1)) == int.from_bytes(bytes([64, 2, 1, 2, 64, 1]), "big")
        assert degrevlex.word_key((2, 64, 1)) == int.from_bytes(bytes([1, 2, 64, 2, 64, 1]), "big")
        ranked = FreeOrderSpec(ExtOrderSpec("deglex", (3, 1, 2)))
        assert ranked.word_key((1, 2)) == int.from_bytes(bytes([3, 1, 3, 1]), "big")

    @pytest.mark.parametrize("kind", ["deglex", "degrevlex"])
    def test_ext_memo_maps_back_and_orders_like_tuple_key(self, kind):
        # every bitmask of x1..x7: the memo's way back inverts it, and its
        # keys order like the tuple key, under the natural ranking and 3 random ones
        rng = random.Random(f"ext-memo/{kind}")
        for n in range(1, 8):
            for ranking in [None] + [tuple(rng.sample(range(1, n + 1), n)) for _ in range(3)]:
                spec = ExtOrderSpec(kind, ranking)
                bitmasks = range(0, 1 << n + 1, 2)  # bit 0 is no variable
                assert all(spec.keys.column[spec.keys[b]] == b for b in bitmasks)
                assert len(spec.keys.column) == len(spec.keys) == 1 << n
                monos = {b: ExtMonomial.from_bits(b) for b in bitmasks}
                assert_same_order(bitmasks, spec.keys.__getitem__, lambda b: tuple_ext_key(spec, monos[b]))
                assert all(spec.ext_key(m) == spec.keys[b] for b, m in monos.items())

    @pytest.mark.parametrize("kind", ["deglex", "degrevlex"])
    def test_bits_key_orders_like_digit_key(self, kind):
        # every bitmask of x1..x7, under the natural ranking and 4 random
        # ones: the bitmask keys sort the monomials as the digit keys of
        # their supports did, and the memo maps each key back
        rng = random.Random(f"bits-key/{kind}")
        for n in range(1, 8):
            for ranking in [None] + [tuple(rng.sample(range(1, n + 1), n)) for _ in range(4)]:
                spec = ExtOrderSpec(kind, ranking)
                bitmasks = range(0, 1 << n + 1, 2)  # bit 0 is no variable
                assert sorted(bitmasks, key=spec.keys.__getitem__) == sorted(bitmasks, key=lambda b: digit_ext_key(spec, b))
                assert [spec.keys.column[spec.keys[b]] for b in bitmasks] == list(bitmasks)

    @pytest.mark.parametrize("kind", ["deglex", "degrevlex"])
    def test_word_memo_maps_back_and_orders_like_tuple_key(self, kind):
        # every word of length up to 4 in X1..X3, as above
        rng = random.Random(f"word-memo/{kind}")
        words = [w for d in range(5) for w in product(range(1, 4), repeat=d)]
        for ranking in [None] + [tuple(rng.sample(range(1, 4), 3)) for _ in range(3)]:
            spec = FreeOrderSpec(ExtOrderSpec(kind, ranking))
            assert all(spec.keys.column[spec.keys[w]] == w for w in words)
            assert len(spec.keys.column) == len(spec.keys) == len(words)
            assert_same_order(words, spec.keys.__getitem__, lambda w: tuple_word_key(spec, w))
            assert all(spec.word_key(w) == spec.keys[w] for w in words)

    def test_groebner_ext_computes_each_key_once(self, monkeypatch, capsys, tmp_path):
        # one gb at n=8: the slice loop, the minimal-lead test and the
        # output sorting all look the key of a monomial up in the order's
        # memo, which computes it at most once per distinct monomial
        rng = random.Random("key-memo")
        gens = [random_ext_polynomial(rng, AlgebraContext(8), 2) for _ in range(3)]
        path = tmp_path / "q8.ideal"
        path.write_text("vars: 8\ngenerators:\n" + "\n".join(ext_poly_str(f, DEGLEX) for f in gens) + "\n")
        computed: Counter = Counter()
        bits_key = ExtOrderSpec.bits_key

        def counted(self, bits):
            computed[bits] += 1
            return bits_key(self, bits)

        monkeypatch.setattr(ExtOrderSpec, "bits_key", counted)
        assert main(["gb", str(path), "--json"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["groebner_basis"]
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
        assert a.keys is not b.keys
        a.ext_key(ExtMonomial([1, 2]))
        assert len(a.keys) == len(a.keys.column) == 1 and b.keys == b.keys.column == {}
        ta, tb = FreeOrderSpec(a), FreeOrderSpec(a)
        assert ta.keys is not tb.keys
        ta.word_key((2, 1))
        assert len(ta.keys) == len(ta.keys.column) == 1 and tb.keys == tb.keys.column == {}

    def test_default_specs_are_fresh(self):
        # an object built without an order makes its own spec, so library
        # callers never share one key memo
        ctx = AlgebraContext(3)
        a, b = ExtIdeal(ctx, []), ExtIdeal(ctx, [])
        assert a.order.keys is not b.order.keys
        assert FreeOrderSpec().base.keys is not FreeOrderSpec().base.keys
        c, d = (FreeGroebnerCandidate(ctx, anti_commutators(ctx)) for _ in range(2))
        assert c.order.keys is not d.order.keys and c.order.base.keys is not d.order.base.keys
        for fn in (ExtIdeal, MonomialIdealExt, MonomialIdealFree, FreeGroebnerCandidate, gin_free, FreeOrderSpec):
            assert (fn.__init__ if isinstance(fn, type) else fn).__defaults__ == (None,), fn.__name__


def test_monic_free_divides_an_int_lead_exactly():
    # a parsed integral coefficient is an int: 1 / 3 would be a float
    F = parse_ideal("vars: 2\nalgebra: free\ngenerators:\n3*X2*X1 + X1*X2\n").generators[0]
    assert type(F.terms[(2, 1)]) is int
    M = monic_free(F, T_DEGLEX)
    assert M.terms == {(2, 1): 1, (1, 2): Fraction(1, 3)}
    assert all(type(c) is Fraction for c in M.terms.values())
