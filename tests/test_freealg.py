import random
from fractions import Fraction

import pytest

from extlift.algebra import (
    AlgebraContext,
    ExtMonomial,
    ExtPolynomial,
    FreePolynomial,
    delta,
    pi,
    words_of_degree,
)
from extlift.exterior import ExtIdeal, groebner_ext, hilbert_ext
from extlift.freealg import (
    FreeGroebnerCandidate,
    MonomialIdealFree,
    PatternAutomaton,
    enumerate_obstructions,
    free_initial_ideal,
    hilbert_rational,
    ideal_slice_rows,
    normal_word_counts,
    obstructions_resolve,
)
from extlift.lifting import anti_commutators, lift_groebner
from extlift.orders import ExtOrderSpec, FreeOrderSpec

from extlift.linalg import primitive
from helpers import dense_rank, gap_binomials, initial_ideal_free, keyed_rows, random_ext_ideal_gens, random_free_polynomial
from oracles import (
    automaton_free_initial,
    fraction_normal_form,
    fraction_obstructions,
    fraction_slice_rows,
    naive_first_match,
    normal_form,
    pairwise_obstructions,
    rref,
    scan_minimal_words,
    subword_divides,
    subword_offsets,
)

ORDER = FreeOrderSpec(ExtOrderSpec("deglex"))


def word(*letters):
    return FreePolynomial.monomial(tuple(letters))


def mono(*idx):
    return ExtPolynomial.monomial(ExtMonomial(idx))


def anticomm_candidate(n: int) -> FreeGroebnerCandidate:
    ctx = AlgebraContext(n)
    return FreeGroebnerCandidate(ctx, anti_commutators(ctx), ORDER)


def series_expand(num, den, upto):
    """Power-series coefficients of num/den, for cross-checking."""
    coeffs = []
    for e in range(upto + 1):
        acc = num[e] if e < len(num) else 0
        for i in range(1, min(e, len(den) - 1) + 1):
            acc -= den[i] * coeffs[e - i]
        assert acc % den[0] == 0
        coeffs.append(acc // den[0])
    return coeffs


class TestSubwords:
    def test_examples(self):
        assert subword_divides((1, 2), (3, 1, 2, 4)) is True
        assert subword_offsets((1, 2), (3, 1, 2, 4)) == [1]
        assert subword_divides((1, 1), (1, 1, 1)) is True
        assert subword_offsets((1, 1), (1, 1, 1)) == [0, 1]
        assert subword_divides((2, 1), (1, 2)) is False
        assert subword_offsets((2, 1), (1, 2)) == []

    def test_whole_word(self):
        assert subword_divides((1, 2), (1, 2)) is True
        assert subword_offsets((1, 2), (1, 2)) == [0]

    @pytest.mark.parametrize("seed", range(30))
    def test_automaton_agrees_with_naive(self, seed):
        # the reducer choice normal_form rewrites with, and so the
        # remainders verify prints: pattern sets with a duplicate and a
        # nested pattern, so that both tie rules are exercised
        rng = random.Random(seed)
        n = rng.choice([2, 3])
        pats = [tuple(rng.randint(1, n) for _ in range(rng.randint(1, 3))) for _ in range(rng.randint(1, 4))]
        outer = rng.choice(pats)
        start = rng.randrange(len(outer))
        pats += [rng.choice(pats), outer[start:rng.randint(start + 1, len(outer))]]
        rng.shuffle(pats)
        auto = PatternAutomaton(pats, n)
        for _ in range(40):
            w = tuple(rng.randint(1, n) for _ in range(rng.randint(0, 8)))
            if rng.random() < 0.5:
                w += rng.choice(pats) + w
            assert auto.first_match(w) == naive_first_match(pats, w)

    def test_no_patterns_match_nothing(self):
        auto = PatternAutomaton([], 2)
        assert len(auto.goto) == 1 and auto.first_match((1, 2, 1)) is None


class TestMonomialIdealFree:
    def test_minimalization(self):
        B = MonomialIdealFree([(1, 2), (3, 1, 2), (2, 2)], 3)
        assert set(B.gens) == {(1, 2), (2, 2)}

    @pytest.mark.parametrize("seed", range(40))
    def test_minimalization_matches_scan(self, seed):
        """Looking up each word's factors among the generators kept so far
        gives the scan's generators in the scan's order: random words with
        repeats, factors of each other and sometimes the empty word, and
        the leading words of lifted bases, as verify and gin build them."""
        rng = random.Random(f"minimal-words/{seed}")
        n = rng.randint(1, 4)
        order = FreeOrderSpec(ExtOrderSpec(rng.choice(["deglex", "degrevlex"]), tuple(rng.sample(range(1, n + 1), n))))
        words = [tuple(rng.randint(1, n) for _ in range(rng.randint(1, 6))) for _ in range(rng.randint(0, 30))]
        words += [w[i:j] for w in rng.sample(words, min(5, len(words))) for i, j in [sorted(rng.sample(range(len(w) + 1), 2))]]
        if seed % 5 == 0:
            words.append(())
        assert MonomialIdealFree(words, n, order).gens == scan_minimal_words(words, order)
        if n >= 3:
            lifted = lift_groebner(groebner_ext(ExtIdeal(AlgebraContext(n + 3), random_ext_ideal_gens(rng, AlgebraContext(n + 3), 2, 2))))
            words = list(lifted.initial_mingens) + [w + w for w in lifted.initial_mingens]
            assert MonomialIdealFree(words, n + 3, ORDER).gens == scan_minimal_words(words, ORDER)

    def test_membership(self):
        B = MonomialIdealFree([(2, 1)], 2)
        assert B.member((1, 2, 1))
        assert not B.member((1, 2))

    def test_empty(self):
        B = MonomialIdealFree([], 2)
        assert not B.member((1, 1, 1))


class TestNormalForm:
    def test_descent_rewrites_with_sign(self):
        G = anticomm_candidate(2)
        assert normal_form(word(2, 1), G) == word(1, 2).scale(-1)

    def test_square_vanishes(self):
        G = anticomm_candidate(2)
        assert not normal_form(word(1, 1), G)

    def test_normal_words_are_increasing(self):
        G = anticomm_candidate(3)
        nf = normal_form(word(3, 1, 2), G)
        for w in nf.terms:
            assert all(a < b for a, b in zip(w, w[1:]))

    @pytest.mark.parametrize("seed", range(20))
    def test_agrees_with_exterior_projection(self, seed):
        # modulo the defining relations the normal form is delta(pi(F))
        rng = random.Random(seed)
        n = rng.choice([2, 3, 4])
        G = anticomm_candidate(n)
        d = rng.randint(1, n + 1)
        terms = [
            (tuple(rng.randint(1, n) for _ in range(d)), rng.randint(-4, 4))
            for _ in range(4)
        ]
        F = FreePolynomial(terms)
        assert normal_form(F, G) == delta(pi(F))

    def test_idempotent(self):
        rng = random.Random(3)
        ctx = AlgebraContext(3)
        gens = random_ext_ideal_gens(rng, ctx)
        lifted = lift_groebner(groebner_ext(ExtIdeal(ctx, gens)))
        G = FreeGroebnerCandidate(ctx, lifted.elements(), ORDER)
        for _ in range(15):
            d = rng.randint(1, 4)
            terms = [
                (tuple(rng.randint(1, 3) for _ in range(d)), rng.randint(-4, 4))
                for _ in range(3)
            ]
            nf = normal_form(FreePolynomial(terms), G)
            assert normal_form(nf, G) == nf

    def test_basis_elements_reduce_to_zero(self):
        G = anticomm_candidate(4)
        for F in G.elements:
            assert not normal_form(F, G)


class TestObstructions:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_defining_relations_resolve(self, n):
        ok, failures = obstructions_resolve(anticomm_candidate(n))
        assert ok and not failures

    def test_single_relation_without_self_overlap_is_basis(self):
        # a lone element whose leading word has no self-overlap has no
        # obstructions at all
        ctx = AlgebraContext(2)
        G = FreeGroebnerCandidate(
            ctx, [FreePolynomial([((1, 2), 1), ((2, 1), 1)])], ORDER
        )
        assert enumerate_obstructions(G) == []
        assert obstructions_resolve(G) == (True, [])

    def test_braid_relation_fails(self):
        # X2X1X2 - X1X2X1 overlaps itself and the S-polynomial is already
        # in normal form, so the singleton is not a basis
        ctx = AlgebraContext(2)
        G = FreeGroebnerCandidate(
            ctx, [FreePolynomial([((2, 1, 2), 1), ((1, 2, 1), -1)])], ORDER
        )
        ok, failures = obstructions_resolve(G)
        assert not ok
        assert all(f.remainder for f in failures)

    @pytest.mark.parametrize("seed", range(6))
    def test_obstructions_match_the_pairwise_scan(self, seed):
        """Lifted bases, and random words of lengths 1-5 over 1-3 letters
        with repeats and duplicated leading words, under both orders."""
        rng = random.Random(f"obstructions/{seed}")
        order = FreeOrderSpec(ExtOrderSpec(["deglex", "degrevlex"][seed % 2]))
        for _ in range(15):
            ctx = AlgebraContext(rng.randint(1, 3))
            words = [tuple(rng.randint(1, ctx.n) for _ in range(rng.randint(1, 5))) for _ in range(rng.randint(1, 8))]
            words += rng.sample(words, rng.randint(0, len(words)))
            G = FreeGroebnerCandidate(ctx, [FreePolynomial.monomial(w) for w in words], order)
            assert sorted(enumerate_obstructions(G)) == sorted(pairwise_obstructions(G)), words
        ctx = AlgebraContext(rng.randint(3, 5))
        lifted = lift_groebner(groebner_ext(ExtIdeal(ctx, random_ext_ideal_gens(rng, ctx), order.base)))
        G = FreeGroebnerCandidate(ctx, lifted.elements(), order)
        assert sorted(enumerate_obstructions(G)) == sorted(pairwise_obstructions(G))

    @pytest.mark.parametrize("kind", ["deglex", "degrevlex"])
    def test_failures_in_the_order_of_the_sorted_oracle(self, kind):
        """The failures, in order, are the entries of the pairwise scan's
        list, sorted by word, whose S-polynomial the Fraction reducer
        leaves nonzero.  The candidates are lifted bases with one lifted
        element dropped or one coefficient changed, and random binomials
        of degrees 2, 2 and 4 in two letters, whose failures often share
        their word."""
        order = FreeOrderSpec(ExtOrderSpec(kind))
        rng = random.Random(f"failure-order/{kind}")
        candidates = []
        for n in (4, 5):
            for family in ("quadrics", "gaps"):
                ctx = AlgebraContext(n)
                gens = random_ext_ideal_gens(rng, ctx, max_deg=2) if family == "quadrics" else gap_binomials(rng, ctx)
                lifted = lift_groebner(groebner_ext(ExtIdeal(ctx, gens, order.base)))
                elements, k = lifted.elements(), len(lifted.anti_commutators)
                for _ in range(3):
                    drop = rng.randrange(k, len(elements))
                    changed = list(elements)
                    idx = rng.randrange(len(elements))
                    terms = dict(elements[idx].terms)
                    terms[rng.choice(sorted(terms))] *= rng.choice([-3, 2, 5])
                    changed[idx] = FreePolynomial(terms)
                    candidates += [(ctx, elements[:drop] + elements[drop + 1:]), (ctx, changed)]
        for _ in range(40):
            ctx = AlgebraContext(2)
            gens = [random_free_polynomial(rng, ctx, d, nterms=2) for d in (2, 2, 4)]
            candidates.append((ctx, gens))
        failing = tied = 0
        for ctx, E in candidates:
            G = FreeGroebnerCandidate(ctx, E, order)
            found = [(f.i, f.j, f.word) for f in obstructions_resolve(G)[1]]
            assert found == [(i, j, w) for i, j, w, s in fraction_obstructions(G) if fraction_normal_form(s, G)]
            failing += len(found)
            tied += sum(1 for a, b in zip(found, found[1:]) if a[2] == b[2])
        # enough failures, some sharing their word, for the order to show
        assert failing >= 100 and tied >= 20, (failing, tied)

    def test_obstruction_words_contain_both_leads(self):
        G = anticomm_candidate(3)
        for i, j, right1, left2, right2 in enumerate_obstructions(G):
            assert G.leading_words[i] + right1 == left2 + G.leading_words[j] + right2
        for i, j, w, s in fraction_obstructions(G):
            assert subword_divides(G.leading_words[i], w)
            assert subword_divides(G.leading_words[j], w)
            # the leading terms cancelled in the S-polynomial
            if s:
                assert max(s.terms, key=ORDER.word_key) != w

    def test_initial_ideal_requires_resolution(self):
        ctx = AlgebraContext(2)
        G = FreeGroebnerCandidate(
            ctx, [FreePolynomial([((2, 1, 2), 1), ((1, 2, 1), -1)])], ORDER
        )
        with pytest.raises(ValueError):
            initial_ideal_free(G)

    def test_lifted_quadric_resolves(self):
        ctx = AlgebraContext(3)
        q = mono(1, 2) + mono(1, 3).scale(2) + mono(2, 3).scale(5)
        lifted = lift_groebner(groebner_ext(ExtIdeal(ctx, [q])))
        G = FreeGroebnerCandidate(ctx, lifted.elements(), ORDER)
        ok, _ = obstructions_resolve(G)
        assert ok
        assert initial_ideal_free(G) == MonomialIdealFree(
            lifted.initial_mingens, 3, ORDER
        )


class TestNormalWordCount:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_exhaustion(self, seed):
        rng = random.Random(seed)
        n = rng.choice([2, 3])
        ctx = AlgebraContext(n)
        pats = [
            tuple(rng.randint(1, n) for _ in range(rng.randint(1, 3)))
            for _ in range(rng.randint(0, 4))
        ]
        B = MonomialIdealFree(pats, n)
        counts = normal_word_counts(B.automaton(), 6)
        for d in range(7):
            brute = sum(1 for w in words_of_degree(ctx, d) if not B.member(w))
            assert counts[d] == brute
        # the patterns as listed, repeats and non-minimal words included,
        # avoid the same words, as a candidate's leading words do
        assert normal_word_counts(PatternAutomaton(pats, n), 6) == counts

    def test_defining_relations_count_binomials(self):
        # normal words of the exterior relations are strictly increasing
        from math import comb

        n = 4
        ctx = AlgebraContext(n)
        B = MonomialIdealFree(
            [(j, i) for i in range(1, n + 1) for j in range(i, n + 1)], n
        )
        counts = normal_word_counts(B.automaton(), n + 1)
        for d in range(n + 2):
            assert counts[d] == comb(n, d)

    def test_lifted_basis_counts_match_exterior_hilbert(self):
        rng = random.Random(11)
        for _ in range(8):
            n = rng.choice([3, 4])
            ctx = AlgebraContext(n)
            gens = random_ext_ideal_gens(rng, ctx)
            gb = groebner_ext(ExtIdeal(ctx, gens))
            lifted = lift_groebner(gb)
            B = MonomialIdealFree(lifted.initial_mingens, n, ORDER)
            dims = hilbert_ext(gb)
            counts = normal_word_counts(B.automaton(), n + 1)
            for d in range(n + 2):
                expected = dims[d] if d <= n else 0
                assert counts[d] == expected


class TestHilbertRational:
    def test_free_algebra(self):
        B = MonomialIdealFree([], 2)
        assert hilbert_rational(B) == ([1], [1, -2])

    def test_single_descent_word(self):
        # avoiding X2X1 leaves the weakly increasing words: 1/(1-t)^2
        B = MonomialIdealFree([(2, 1)], 2)
        assert hilbert_rational(B) == ([1], [1, -2, 1])

    def test_polynomial_series(self):
        B = MonomialIdealFree([(j, i) for i in (1, 2) for j in (i, 2)], 2)
        assert hilbert_rational(B) == ([1, 2, 1], [1])

    @pytest.mark.parametrize("seed", range(15))
    def test_expansion_matches_counts(self, seed):
        rng = random.Random(100 + seed)
        n = rng.choice([2, 3])
        pats = [
            tuple(rng.randint(1, n) for _ in range(rng.randint(1, 3)))
            for _ in range(rng.randint(0, 4))
        ]
        B = MonomialIdealFree(pats, n)
        num, den = hilbert_rational(B)
        assert den[0] == 1
        expanded = series_expand(num, den, 10)
        assert expanded == normal_word_counts(B.automaton(), 10)


class TestSliceElimination:
    def test_slice_rows_rank_matches_dense_oracle(self):
        # the integer rows are the Fraction rows scaled and keyed, in the
        # same order, and their rank is the dense rank of the Fraction rows
        ctx = AlgebraContext(3)
        gens = anti_commutators(ctx) + [delta(mono(1, 2) + mono(2, 3).scale(Fraction(-4, 6)))]
        prims = [(g.degree, list(primitive(g.terms).items())) for g in gens]
        keys = ORDER.keys
        for d in range(2, 5):
            rows = ideal_slice_rows(prims, ctx, d, keys)
            slow = fraction_slice_rows(gens, ctx, d)
            assert rows == keyed_rows(slow, ORDER.word_key)[0]
            columns = sorted(words_of_degree(ctx, d), key=ORDER.word_key, reverse=True)
            assert dense_rank(slow, columns) == len(rref(rows, keys.column))

    def test_linear_generator_minimal_basis(self):
        # with a linear generator two defining relations become redundant
        ctx = AlgebraContext(2)
        gens = [word(1)] + anti_commutators(ctx)
        data = free_initial_ideal(gens, ctx, ORDER, max_degree=3)
        assert set(data.initial.gens) == {(1,), (2, 2)}
        assert len(data.initial) == 2

    def test_dimensions_complement_normal_counts(self):
        ctx = AlgebraContext(3)
        q = mono(1, 2) + mono(1, 3).scale(2) + mono(2, 3).scale(5)
        lifted = lift_groebner(groebner_ext(ExtIdeal(ctx, [q])))
        data = free_initial_ideal(lifted.elements(), ctx, ORDER, max_degree=4)
        counts = normal_word_counts(data.initial.automaton(), 4)
        for d, dim in data.slice_dims.items():
            assert dim == 3 ** d - counts[d]

    def test_recovers_lifted_initial_ideal(self):
        rng = random.Random(31)
        for _ in range(5):
            n = rng.choice([3, 4])
            ctx = AlgebraContext(n)
            gens = random_ext_ideal_gens(rng, ctx)
            lifted = lift_groebner(groebner_ext(ExtIdeal(ctx, gens)))
            data = free_initial_ideal(lifted.elements(), ctx, ORDER, max_degree=n + 1)
            assert data.initial == MonomialIdealFree(lifted.initial_mingens, n, ORDER)

    @pytest.mark.parametrize("seed", range(12))
    def test_minimal_generators_match_automaton_oracle(self, seed):
        # the pivot-set minimality rule finds the same minimal generators
        # as testing every pivot against the lower-degree automaton
        rng = random.Random(f"free-initial/{seed}")
        n = rng.choice([2, 3])
        ctx = AlgebraContext(n)
        kind = rng.choice(["deglex", "degrevlex"])
        order = FreeOrderSpec(ExtOrderSpec(kind, tuple(rng.sample(range(1, n + 1), n))))
        gens = [random_free_polynomial(rng, ctx, rng.randint(1, 3), nterms=3) for _ in range(3)]
        if seed % 2:
            gens += anti_commutators(ctx)
        data = free_initial_ideal(gens, ctx, order, max_degree=4)
        assert data.initial == MonomialIdealFree(automaton_free_initial(gens, ctx, order, 4), n, order)
