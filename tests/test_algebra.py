import random
from fractions import Fraction

import pytest

from extlift.algebra import (
    MAX_VARS,
    AlgebraContext,
    ExtMonomial,
    ExtPolynomial,
    FreePolynomial,
    GLMatrix,
    apply_gl,
    apply_gl_ext,
    delta,
    pi,
    word_sort_sign,
)
from extlift.gin import random_gl
from extlift.linalg import primitive

from helpers import (
    dense_rank,
    elementary,
    ext_monomials_of_degree,
    gl_product,
    mul_ext,
    random_ext_polynomial,
    random_free_polynomial,
    sign_by_sorting,
)
from oracles import fraction_apply_gl, fraction_apply_gl_ext, letterwise_apply_gl_ext


def mono(*idx):
    return ExtPolynomial.monomial(ExtMonomial(idx))


def word(*letters):
    return FreePolynomial.monomial(tuple(letters))


class TestMulExt:
    def test_sorted_product(self):
        assert mono(1) * mono(2) == mono(1, 2)

    def test_transposition_sign(self):
        assert mono(2) * mono(1) == mono(1, 2).scale(-1)

    def test_inversion_count(self):
        # oracle: sort the concatenated index list, counting adjacent swaps
        assert sign_by_sorting([1, 3, 2]) == -1
        assert mono(1, 3) * mono(2) == mono(1, 2, 3).scale(-1)

    def test_overlap_vanishes(self):
        assert not mono(1, 2) * mono(2, 3)

    @pytest.mark.parametrize("seed", range(20))
    def test_sign_matches_bruteforce(self, seed):
        rng = random.Random(seed)
        n = 6
        a = ExtMonomial(rng.sample(range(1, n + 1), rng.randint(1, 3)))
        b = ExtMonomial(rng.sample(range(1, n + 1), rng.randint(1, 3)))
        expected = sign_by_sorting(a.support + b.support)
        assert a.mul_sign(b) == expected

    @pytest.mark.parametrize("seed", range(10))
    def test_associative_and_sign_commutative(self, seed):
        rng = random.Random(100 + seed)
        ctx = AlgebraContext(5)
        f = random_ext_polynomial(rng, ctx, rng.randint(1, 2))
        g = random_ext_polynomial(rng, ctx, rng.randint(1, 2))
        h = random_ext_polynomial(rng, ctx, 1)
        assert (f * g) * h == f * (g * h)
        # on monomials: x_I x_J = (-1)^{|I||J|} x_J x_I
        for a in ext_monomials_of_degree(ctx, 2):
            for b in ext_monomials_of_degree(ctx, 1):
                lhs = mul_ext(ExtPolynomial.monomial(a), ExtPolynomial.monomial(b))
                rhs = mul_ext(ExtPolynomial.monomial(b), ExtPolynomial.monomial(a))
                assert lhs == rhs.scale((-1) ** (a.degree * b.degree))


class TestPiDelta:
    def test_sorted_word(self):
        assert pi(word(1, 2)) == mono(1, 2)

    def test_reversed_word_sign(self):
        assert pi(word(2, 1)) == mono(1, 2).scale(-1)

    def test_repeated_letter_vanishes(self):
        assert not pi(word(1, 1))

    def test_delta_examples(self):
        assert delta(mono(1, 2)) == word(1, 2)
        assert delta(mono()) == word()
        f = mono(1, 3).scale(3) - mono(2)
        assert delta(f) == word(1, 3).scale(3) - word(2)

    @pytest.mark.parametrize("seed", range(15))
    def test_pi_delta_identity(self, seed):
        rng = random.Random(200 + seed)
        ctx = AlgebraContext(5)
        f = random_ext_polynomial(rng, ctx, rng.randint(0, 4))
        assert pi(delta(f)) == f

    @pytest.mark.parametrize("seed", range(15))
    def test_pi_is_ring_hom(self, seed):
        rng = random.Random(300 + seed)
        ctx = AlgebraContext(4)
        F = random_free_polynomial(rng, ctx, rng.randint(1, 3))
        G = random_free_polynomial(rng, ctx, rng.randint(1, 2))
        assert pi(F * G) == mul_ext(pi(F), pi(G))


class TestWordSortSign:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_sorting_by_swaps(self, seed):
        rng = random.Random(400 + seed)
        for _ in range(50):
            w = tuple(rng.randint(1, 6) for _ in range(rng.randint(0, 6)))
            assert word_sort_sign(w) == (sign_by_sorting(w), tuple(sorted(w)))

    def test_repeat_found_before_sorting(self):
        # an insertion sort of this word takes 64 million swaps
        assert word_sort_sign((2,) * 8000 + (1,) * 8000)[0] == 0


class TestGLAction:
    def test_identity(self):
        g = GLMatrix([[1, 0], [0, 1]])
        assert apply_gl(g, word(1, 2)) == word(1, 2)
        assert apply_gl_ext(g, mono(1, 2)) == mono(1, 2)

    def test_elementary_on_square(self):
        # X1 -> X1 + X2 applied to X1^2 expands to all four words
        b = elementary(2, 1, 2)
        expected = word(1, 1) + word(1, 2) + word(2, 1) + word(2, 2)
        assert apply_gl(b, word(1, 1)) == expected

    def test_swap_on_ext(self):
        g = GLMatrix([[0, 1], [1, 0]])
        # oracle: pi . apply_gl . delta
        f = mono(1, 2)
        assert apply_gl_ext(g, f) == pi(apply_gl(g, delta(f)))
        assert apply_gl_ext(g, f) == mono(1, 2).scale(-1)

    def test_scaling(self):
        g = GLMatrix([[2, 0], [0, 1]])
        assert apply_gl_ext(g, mono(1, 2)) == mono(1, 2).scale(2)

    def test_degree_preserved(self):
        g = GLMatrix([[1, 2], [3, 4]])
        image = apply_gl(g, word(1, 2, 1))
        assert image.degrees() == {3}

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            GLMatrix([[1, 2], [2, 4]])
        # rank 2: the third row is the sum of the first two
        with pytest.raises(ValueError):
            GLMatrix([
                [Fraction(1, 2), Fraction(2, 3), 1],
                [Fraction(-1, 4), 0, Fraction(5, 7)],
                [Fraction(1, 4), Fraction(2, 3), Fraction(12, 7)],
            ])

    def test_accepted_iff_full_rank(self):
        """Small entries make many of these matrices singular."""
        rng = random.Random(1729)
        accepted = 0
        for _ in range(500):
            n = rng.randint(1, 4)
            entries = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            full = dense_rank([dict(enumerate(row)) for row in entries], range(n)) == n
            try:
                GLMatrix(entries)
            except ValueError:
                assert not full, entries
            else:
                assert full, entries
                accepted += 1
        assert 50 < 500 - accepted and 50 < accepted

    @pytest.mark.parametrize("seed", range(10))
    def test_multiplicative_and_composition(self, seed):
        rng = random.Random(400 + seed)
        ctx = AlgebraContext(3)

        def random_gl():
            while True:
                try:
                    return GLMatrix([[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)])
                except ValueError:
                    continue

        g, h = random_gl(), random_gl()
        F = random_free_polynomial(rng, ctx, 2, nterms=3)
        G = random_free_polynomial(rng, ctx, 1, nterms=2)
        assert apply_gl(g, F * G) == apply_gl(g, F) * apply_gl(g, G)
        assert apply_gl(g, apply_gl(h, F)) == apply_gl(gl_product(g, h), F)
        # induced action commutes with pi
        assert pi(apply_gl(g, F)) == apply_gl_ext(g, pi(F))


def rational_gl(rng: random.Random, n: int) -> GLMatrix:
    """A seeded invertible matrix with at least one non-integral entry."""
    while True:
        entries = [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
        if all(e.denominator == 1 for row in entries for e in row):
            continue
        try:
            return GLMatrix(entries)
        except ValueError:
            continue


class TestGLActionOracle:
    """The column-wise expansions against the Fraction products they
    replaced (``tests/oracles.py``), in n = 1..8 and degrees 1..4."""

    @pytest.mark.parametrize("kind", ["random_gl", "rational"])
    @pytest.mark.parametrize("seed", range(16))
    def test_matches_fraction_expansion(self, seed, kind):
        rng = random.Random(900 + seed)
        n = 1 + seed % 8
        ctx = AlgebraContext(n)
        g = random_gl(ctx, rng.getrandbits(63), 100) if kind == "random_gl" else rational_gl(rng, n)
        for degree in range(1, 5):
            c = Fraction(rng.randint(1, 9), rng.randint(2, 9))
            F = random_free_polynomial(rng, ctx, degree, nterms=3).scale(c)
            assert apply_gl(g, F) == fraction_apply_gl(g, F)
            if degree <= n:
                f = random_ext_polynomial(rng, ctx, degree).scale(c)
                assert apply_gl_ext(g, f) == fraction_apply_gl_ext(g, f)

    @pytest.mark.parametrize("kind", ["random_gl", "rational"])
    @pytest.mark.parametrize("seed", range(16))
    def test_ext_matches_letterwise_expansion(self, seed, kind):
        """The images by shared lowest letters against the letter-by-letter
        expansion they replaced, in n = 1..8 and every degree from 0 to n:
        dense and sparse, with Fraction and with integer coefficients (as
        gin_ext maps them), and their non-homogeneous sum."""
        rng = random.Random(f"letterwise/{seed}/{kind}")
        n = 1 + seed % 8
        ctx = AlgebraContext(n)
        g = random_gl(ctx, rng.getrandbits(63), 100) if kind == "random_gl" else rational_gl(rng, n)
        total = ExtPolynomial()
        for degree in range(n + 1):
            dense = random_ext_polynomial(rng, ctx, degree).scale(Fraction(rng.randint(1, 9), rng.randint(2, 9)))
            sparse = ExtPolynomial(rng.sample(list(dense), rng.randint(1, len(dense))))
            for f in (dense, sparse, ExtPolynomial._raw(primitive(dense.terms))):
                assert apply_gl_ext(g, f) == letterwise_apply_gl_ext(g, f)
            total = total + sparse
        assert apply_gl_ext(g, total) == letterwise_apply_gl_ext(g, total)

    def test_integral_entries_kept_as_int(self):
        g = GLMatrix([[Fraction(4, 2), Fraction(1, 3)], [1, 0]])
        assert [[type(e) for e in row] for row in g.entries] == [[int, Fraction], [int, int]]


class TestContext:
    def test_bounds(self):
        with pytest.raises(ValueError):
            AlgebraContext(0)
        with pytest.raises(ValueError):
            AlgebraContext(MAX_VARS + 1)
        AlgebraContext(MAX_VARS).check_index(MAX_VARS)
        with pytest.raises(ValueError):
            AlgebraContext(3).check_index(4)

    def test_value_equality(self):
        # a context is a value: equal n means equal contexts and equal hashes
        assert AlgebraContext(3) == AlgebraContext(3)
        assert hash(AlgebraContext(3)) == hash(AlgebraContext(3))
        assert AlgebraContext(3) != AlgebraContext(4)
        assert AlgebraContext(3) != 3
        assert len({AlgebraContext(3), AlgebraContext(3), AlgebraContext(4)}) == 2


class TestPolynomials:
    def test_no_zero_coefficients_stored(self):
        p = ExtPolynomial([(ExtMonomial([1]), 1), (ExtMonomial([1]), -1)])
        assert not p
        q = FreePolynomial([((1,), Fraction(1, 2)), ((1,), Fraction(-1, 2))])
        assert not q

    def test_degree_of_nonhomogeneous(self):
        p = mono(1) + mono(1, 2)
        assert not p.is_homogeneous()
        with pytest.raises(ValueError):
            p.degree
