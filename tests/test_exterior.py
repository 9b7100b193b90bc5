import random
from fractions import Fraction
from itertools import combinations, permutations
from math import comb

import pytest

from extlift import exterior
from extlift.algebra import (
    MAX_VARS,
    AlgebraContext,
    ExtMonomial,
    ExtPolynomial,
    _odd_below,
    apply_gl_ext,
    word_sort_sign,
)
from extlift.exterior import (
    ExtIdeal,
    MonomialIdealExt,
    groebner_ext,
    hilbert_ext,
)
from extlift.gin import random_gl
from extlift.orders import ExtOrderSpec, leading_term_ext

from helpers import dense_rank, ext_monomials_of_degree, exterior_corpus, random_ext_ideal_gens
from oracles import ideal_degree_basis, scan_groebner_elements, slice_groebner_ext

DEGLEX = ExtOrderSpec("deglex")


def mono(*idx):
    return ExtPolynomial.monomial(ExtMonomial(idx))


def slice_rank_oracle(I: ExtIdeal, d: int) -> int:
    """Dimension of I_d by independent dense elimination over all
    two-sided monomial multiples."""
    rows = []
    for g in I.generators:
        if g.degree > d:
            continue
        for u in ext_monomials_of_degree(I.ctx, d - g.degree):
            for prod in (ExtPolynomial.monomial(u) * g, g * ExtPolynomial.monomial(u)):
                if prod:
                    rows.append(prod.terms)
    columns = ext_monomials_of_degree(I.ctx, d)
    return dense_rank(rows, columns)


class TestIdealDegreeBasis:
    def test_principal_monomial(self):
        ctx = AlgebraContext(3)
        I = ExtIdeal(ctx, [mono(1, 2)])
        basis = ideal_degree_basis(I, 3)
        assert len(basis) == 1
        assert basis[0] == mono(1, 2, 3)

    def test_below_generator_degree_empty(self):
        ctx = AlgebraContext(3)
        I = ExtIdeal(ctx, [mono(1, 2)])
        assert ideal_degree_basis(I, 1) == []

    def test_whole_slice_n2(self):
        ctx = AlgebraContext(2)
        I = ExtIdeal(ctx, [mono(1, 2)])
        assert ideal_degree_basis(I, 2) == [mono(1, 2)]

    @pytest.mark.parametrize("seed", range(25))
    def test_rank_matches_dense_two_sided_oracle(self, seed):
        rng = random.Random(seed)
        n = rng.choice([3, 4, 5])
        ctx = AlgebraContext(n)
        I = ExtIdeal(ctx, random_ext_ideal_gens(rng, ctx, min_deg=1))
        dims = groebner_ext(I).slice_dims
        for d in range(n + 1):
            oracle = slice_rank_oracle(I, d)
            assert len(ideal_degree_basis(I, d)) == oracle
            assert dims[d] == oracle


class TestGroebnerExt:
    def test_monomial_ideal(self):
        ctx = AlgebraContext(3)
        gb = groebner_ext(ExtIdeal(ctx, [mono(2, 3)]))
        assert list(gb.elements) == [mono(2, 3)]

    def test_generic_quadric_initial(self):
        ctx = AlgebraContext(3)
        q = mono(1, 2).scale(4) + mono(1, 3).scale(-7) + mono(2, 3).scale(2)
        gb = groebner_ext(ExtIdeal(ctx, [q]))
        assert len(gb.elements) == 1
        lead, c = leading_term_ext(gb.elements[0], DEGLEX)
        assert lead == ExtMonomial([2, 3]) and c == 1
        assert gb.initial == MonomialIdealExt([ExtMonomial([2, 3])])

    def test_two_generator_example_dimensions(self):
        # oracle: per-degree span dimension equals the monomial cone of the
        # initial ideal
        ctx = AlgebraContext(4)
        I = ExtIdeal(ctx, [mono(1, 2) + mono(3, 4), mono(1, 3)])
        init = groebner_ext(I).initial
        for d in range(5):
            assert len(ideal_degree_basis(I, d)) == init.degree_count(ctx, d)

    def test_minimal_gb_leads_form_antichain(self):
        ctx = AlgebraContext(4)
        I = ExtIdeal(ctx, [mono(1, 2) + mono(3, 4), mono(1, 3)])
        gb = groebner_ext(I)
        leads = [leading_term_ext(f, DEGLEX)[0] for f in gb.elements]
        assert leads == sorted(gb.initial, key=lambda m: (m.degree, -DEGLEX.ext_key(m)))
        for a in leads:
            for b in leads:
                if a != b:
                    assert not a.divides(b)

    def test_reduced_tails_outside_initial_ideal(self):
        ctx = AlgebraContext(4)
        I = ExtIdeal(ctx, [mono(1, 2) + mono(3, 4), mono(1, 3), mono(2, 4) + mono(1, 4)])
        gb = groebner_ext(I)
        init = gb.initial
        for f in gb.elements:
            lead, _ = leading_term_ext(f, DEGLEX)
            for m in f.terms:
                if m != lead:
                    assert not init.member(m)

    @pytest.mark.parametrize("seed", range(10))
    def test_invariant_under_generator_permutation(self, seed):
        rng = random.Random(500 + seed)
        ctx = AlgebraContext(4)
        gens = random_ext_ideal_gens(rng, ctx, min_deg=2, max_gens=3)
        reference = set(groebner_ext(ExtIdeal(ctx, gens)).elements)
        for perm in permutations(gens):
            assert set(groebner_ext(ExtIdeal(ctx, list(perm))).elements) == reference

    @pytest.mark.parametrize("seed", range(20))
    def test_elements_match_scan_oracle(self, seed):
        # the pivot-set minimality rule keeps the same rows, in the same
        # order, as testing every pivot against all earlier leads
        rng = random.Random(f"gb-scan/{seed}")
        n = rng.randint(2, 6)
        ctx = AlgebraContext(n)
        order = ExtOrderSpec(rng.choice(["deglex", "degrevlex"]), tuple(rng.sample(range(1, n + 1), n)))
        I = ExtIdeal(ctx, random_ext_ideal_gens(rng, ctx, min_deg=1), order)
        assert list(groebner_ext(I).elements) == scan_groebner_elements(I)

    def test_normal_form_oracle_s_obstructions(self):
        # every S-obstruction between GB elements reduces to zero under
        # plain leading-term rewriting
        rng = random.Random(42)
        for _ in range(10):
            n = rng.choice([3, 4, 5])
            ctx = AlgebraContext(n)
            I = ExtIdeal(ctx, random_ext_ideal_gens(rng, ctx))
            gb = groebner_ext(I)
            elems = gb.elements
            assert all(leading_term_ext(f, DEGLEX)[1] == 1 for f in elems)
            leads = [leading_term_ext(f, DEGLEX)[0] for f in elems]

            def reduce_full(p):
                while p:
                    lead, c = leading_term_ext(p, DEGLEX)
                    hit = next((k for k, lm in enumerate(leads) if lm.divides(lead)), None)
                    if hit is None:
                        return p
                    cof = lead / leads[hit]
                    scaled = ExtPolynomial.monomial(cof) * elems[hit]
                    _, sc = leading_term_ext(scaled, DEGLEX)
                    p = p - scaled.scale(c / sc)
                return p

            for i, f in enumerate(elems):
                for j, g in enumerate(elems):
                    lcm_bits = leads[i].bits | leads[j].bits
                    lcm = ExtMonomial.from_bits(lcm_bits)
                    if lcm.degree > n:
                        continue
                    cf = ExtPolynomial.monomial(lcm / leads[i]) * f
                    cg = ExtPolynomial.monomial(lcm / leads[j]) * g
                    if not cf or not cg:
                        continue
                    _, a = leading_term_ext(cf, DEGLEX)
                    _, b = leading_term_ext(cg, DEGLEX)
                    s = cf.scale(1 / a) - cg.scale(1 / b)
                    assert not reduce_full(s)


def slice_oracle_corpus(n: int, kind: str):
    """The seeded corpus, plain and under a height-100 coordinate change;
    n independent linear forms, which fill the slice at d=1; a monomial,
    which fills only at d=n; and the zero ideal, which never fills."""
    yield from exterior_corpus(n, kind)
    ctx = AlgebraContext(n)
    order = ExtOrderSpec(kind)
    g = random_gl(ctx, n, 100)
    yield ExtIdeal(ctx, [apply_gl_ext(g, mono(i)) for i in range(1, n + 1)], order)
    yield ExtIdeal(ctx, [mono(1, 2)], order)
    yield ExtIdeal(ctx, [], order)


@pytest.mark.parametrize("kind", ["deglex", "degrevlex"])
@pytest.mark.parametrize("n", range(2, 9))
def test_slices_match_full_slice_oracle(n, kind):
    """The slice loop, which stops at the first full slice, against the
    loop that reduces every slice to n: the same elements in the same
    order, all Fraction, the same initial ideal, in the same order, and
    the same dimensions, whether or not the elements are read."""
    early = 0
    for I in slice_oracle_corpus(n, kind):
        oracle = slice_groebner_ext(I)
        early += any(dim == comb(n, d) for d, dim in enumerate(oracle.slice_dims[:n]))
        unread = groebner_ext(I)
        assert unread.initial.gens == oracle.initial.gens
        assert unread.slice_dims == oracle.slice_dims
        gb = groebner_ext(I)
        assert gb.elements == oracle.elements
        assert all(type(c) is Fraction for f in gb.elements for _, c in f)
        assert gb.slice_dims == oracle.slice_dims
        assert gb.initial.gens == oracle.initial.gens
    assert early > 0


@pytest.mark.parametrize("kind", ["deglex", "degrevlex"])
@pytest.mark.parametrize("n", range(2, 9))
def test_capped_basis_is_the_uncapped_one_cut_off(n, kind):
    """For every cap from 0 to n+1, the capped loop gives the uncapped
    answer cut off at the cap: its dimensions are a prefix, its initial
    ideal holds the uncapped leads of degree <= cap, and its elements are
    the uncapped elements of degree <= cap, in the same order."""
    for I in slice_oracle_corpus(n, kind):
        whole = groebner_ext(I)
        for cap in range(n + 2):
            capped = groebner_ext(I, cap)
            assert capped.slice_dims == whole.slice_dims[: cap + 1]
            assert capped.initial.gens == tuple(m for m in whole.initial.gens if m.degree <= cap)
            assert capped.elements == tuple(f for f in whole.elements if f.degree <= cap)


def test_elements_are_made_once_on_first_read(monkeypatch):
    """Reading ``elements`` twice gives the same tuple, and each row is
    back-substituted once, on the first read.  With the certificate off,
    every element is a back-substituted row."""
    calls = []

    def counted(pivots, lead, _fn=exterior.back_substitute):
        calls.append(lead)
        return _fn(pivots, lead)

    monkeypatch.setattr(exterior, "back_substitute", counted)
    monkeypatch.setattr(exterior, "full_rank", lambda rows, ncols: False)
    for I in slice_oracle_corpus(6, "deglex"):
        calls.clear()
        G = groebner_ext(I)
        assert calls == []
        first = G.elements
        assert len(calls) == len(set(calls)) == len(first)
        assert G.elements is first
        assert len(calls) == len(first)
        assert first == slice_groebner_ext(I).elements


@pytest.mark.parametrize("n", range(1, 11))
def test_bitmasks_in_index_order(n):
    # each degree built from the one below, on first use, whatever the
    # order of the lookups, lists the monomials as combinations does
    shared = exterior._Bitmasks(n)
    for d in [n + 1, *range(n + 1)]:
        oracle = [sum(1 << i for i in c) for c in combinations(range(1, n + 1), d)]
        assert exterior._Bitmasks(n)[d] == shared[d] == oracle


@pytest.mark.parametrize("kind", ["deglex", "degrevlex"])
@pytest.mark.parametrize("n", range(3, 9))
def test_redundant_generators_change_no_slice(n, kind):
    """The loop drops a generator that adds no pivot where it enters; with
    the reduced basis, products of the generators and a combination of
    two of them listed too, every reader still gets the oracle's answer
    on the ideal of the generators alone."""
    for I in slice_oracle_corpus(n, kind):
        if len(I.generators) < 2:
            continue
        oracle = slice_groebner_ext(I)
        g, h = I.generators[:2]
        products = [ExtPolynomial.monomial(ExtMonomial([i])) * g for i in range(1, n + 1)]
        redundant = [*oracle.elements, *products, g + h.scale(3), *I.generators]
        J = ExtIdeal(I.ctx, redundant, I.order)
        gb = groebner_ext(J)
        assert (gb.initial.gens, gb.slice_dims) == (oracle.initial.gens, oracle.slice_dims)
        assert gb.elements == oracle.elements


@pytest.mark.parametrize("n", range(3, 8))
def test_sparse_mixed_degree_generators_match_the_oracle(n):
    """Monomials and binomials of mixed degrees, listed in random order:
    multiples of the lower ones often coincide, and a higher one may or
    may not lie in the ideal of those before it."""
    rng = random.Random(f"sparse-mixed/{n}")
    ctx = AlgebraContext(n)
    for _ in range(60):
        gens = []
        for _ in range(rng.randint(2, 6)):
            monos = rng.sample(ext_monomials_of_degree(ctx, rng.randint(1, n - 1)), 2)
            gens.append(ExtPolynomial([(m, rng.choice([-2, -1, 1, 3])) for m in monos[: rng.randint(1, 2)]]))
        I = ExtIdeal(ctx, gens, ExtOrderSpec(rng.choice(["deglex", "degrevlex"])))
        oracle = slice_groebner_ext(I)
        gb = groebner_ext(I)
        assert (gb.initial.gens, gb.slice_dims) == (oracle.initial.gens, oracle.slice_dims), gens
        assert gb.elements == oracle.elements


def inversions(word) -> int:
    """Brute force: the pairs of positions whose letters are out of order."""
    return sum(1 for a, b in combinations(word, 2) if a > b)


def subsets(letters) -> list[ExtMonomial]:
    return [ExtMonomial(c) for d in range(len(letters) + 1) for c in combinations(letters, d)]


def assert_sign_rule(letters) -> int:
    """``mul_sign`` and the mask rule x_u * x_m = (-1)^popcount(u &
    _odd_below(m)) x_{u|m} against the inversions of u's letters followed by
    m's, on every disjoint pair over the letters; returns the pair count."""
    monomials = subsets(letters)
    pairs = 0
    for u in monomials:
        for m in monomials:
            if not u.bits & m.bits:
                expected = (-1) ** inversions(u.support + m.support)
                assert u.mul_sign(m) == expected
                assert (-1) ** (u.bits & _odd_below(m.bits)).bit_count() == expected
                pairs += 1
    return pairs


@pytest.mark.parametrize("n", range(1, 7))
def test_popcount_sign_matches_mul_sign(n):
    """The slice rows' sign rule and ``mul_sign``, both against the brute
    force, on all 3^n disjoint pairs in n variables."""
    assert assert_sign_rule(range(1, n + 1)) == 3**n


def test_sign_rule_on_the_top_letters():
    """Letters up to MAX_VARS, where a monomial with an odd number of
    letters has a negative mask; ``word_sort_sign`` on shuffled words of
    the same letters, with and without a repeat."""
    letters = (1, 2) + tuple(range(MAX_VARS - 6, MAX_VARS + 1))
    assert assert_sign_rule(letters) == 3 ** len(letters)
    assert _odd_below(ExtMonomial([MAX_VARS]).bits) < 0
    assert _odd_below(ExtMonomial([MAX_VARS - 1, MAX_VARS]).bits) >= 0
    rng = random.Random("top-letters")
    for m in subsets(letters):
        w = list(m.support)
        rng.shuffle(w)
        assert word_sort_sign(tuple(w)) == ((-1) ** inversions(w), m.support)
        if w:
            repeated = tuple(w + [rng.choice(w)])
            assert word_sort_sign(repeated) == (0, tuple(sorted(repeated)))


class TestMonomialIdeal:
    def test_divides(self):
        assert ExtMonomial([1]).divides(ExtMonomial([1, 3]))
        assert not ExtMonomial([2]).divides(ExtMonomial([1, 3]))

    def test_membership(self):
        L = MonomialIdealExt([ExtMonomial([1, 4])])
        assert not L.member(ExtMonomial([2, 4]))
        assert L.member(ExtMonomial([1, 2, 4]))

    def test_minimalization(self):
        L = MonomialIdealExt([ExtMonomial([1, 2, 3]), ExtMonomial([1, 2]), ExtMonomial([3])])
        assert set(L.gens) == {ExtMonomial([1, 2]), ExtMonomial([3])}


class TestHilbert:
    def test_zero_ideal(self):
        ctx = AlgebraContext(3)
        assert hilbert_ext(groebner_ext(ExtIdeal(ctx, []))) == [1, 3, 3, 1]

    def test_principal_quadric_monomial(self):
        # oracle: count square-free monomials outside the ideal
        ctx = AlgebraContext(3)
        I = ExtIdeal(ctx, [mono(2, 3)])
        L = MonomialIdealExt([ExtMonomial([2, 3])])
        expected = [
            sum(1 for m in ext_monomials_of_degree(ctx, d) if not L.member(m))
            for d in range(4)
        ]
        assert hilbert_ext(groebner_ext(I)) == expected == [1, 3, 2, 0]

    def test_maximal_ideal_squared(self):
        ctx = AlgebraContext(2)
        assert hilbert_ext(groebner_ext(ExtIdeal(ctx, [mono(1, 2)]))) == [1, 2, 0]

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_macaulay_consistency_exhaustive(self, n):
        rng = random.Random(n)
        ctx = AlgebraContext(n)
        for _ in range(5):
            I = ExtIdeal(ctx, random_ext_ideal_gens(rng, ctx))
            gb = groebner_ext(I)
            init = gb.initial
            dims = hilbert_ext(gb)
            for d in range(n + 1):
                outside = sum(
                    1 for m in ext_monomials_of_degree(ctx, d) if not init.member(m)
                )
                assert dims[d] == outside


class TestValidation:
    def test_nonhomogeneous_rejected(self):
        ctx = AlgebraContext(3)
        with pytest.raises(ValueError):
            ExtIdeal(ctx, [mono(1) + mono(1, 2)])

    def test_left_right_spans_agree(self):
        # homogeneous elements commute up to sign, so left multiples span
        # the two-sided slice; asserted against the two-sided oracle
        ctx = AlgebraContext(4)
        rng = random.Random(9)
        I = ExtIdeal(ctx, random_ext_ideal_gens(rng, ctx, min_deg=1))
        dims = groebner_ext(I).slice_dims
        for d in range(5):
            oracle = slice_rank_oracle(I, d)
            assert len(ideal_degree_basis(I, d)) == oracle
            assert dims[d] == oracle
