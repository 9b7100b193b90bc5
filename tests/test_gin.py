import random
from itertools import product

import pytest

from extlift.algebra import (
    AlgebraContext,
    ExtMonomial,
    ExtPolynomial,
    FreePolynomial,
    apply_gl_ext,
    delta,
)
from extlift.exterior import ExtIdeal, MonomialIdealExt, groebner_ext, initial_ideal_ext
from extlift.freealg import MonomialIdealFree
from extlift.gin import (
    GinRequest,
    gin_ext,
    gin_free,
    gin_lifted,
    hilbert_compare,
    hilbert_compare_ext,
    is_borel_fixed,
    random_gl,
)
from extlift.lifting import anti_commutators
from extlift.orders import ExtOrderSpec, FreeOrderSpec

from helpers import dense_rank, is_strongly_stable, random_ext_ideal_gens
from oracles import matrix_is_borel_fixed

ORDER = FreeOrderSpec(ExtOrderSpec("deglex"))


def mono(*idx):
    return ExtPolynomial.monomial(ExtMonomial(idx))


def word(*letters):
    return FreePolynomial.monomial(tuple(letters))


class TestRandomGL:
    def test_deterministic(self):
        ctx = AlgebraContext(4)
        a = random_gl(ctx, seed=123, height=50)
        b = random_gl(ctx, seed=123, height=50)
        assert a.entries == b.entries

    def test_entries_bounded_and_invertible(self):
        ctx = AlgebraContext(3)
        for seed in range(20):
            g = random_gl(ctx, seed=seed, height=5)
            assert all(abs(v) <= 5 for row in g.entries for v in row)
            assert dense_rank([dict(enumerate(row)) for row in g.entries], range(3)) == 3

    def test_height_validated(self):
        with pytest.raises(ValueError):
            random_gl(AlgebraContext(2), seed=0, height=0)


class TestGinRequest:
    def test_validation(self):
        with pytest.raises(ValueError, match="degree cap"):
            GinRequest(max_degree=1, seed=0)
        with pytest.raises(ValueError, match="2 trials"):
            GinRequest(max_degree=2, seed=0, trials=1)
        with pytest.raises(ValueError, match="height"):
            GinRequest(max_degree=2, seed=0, height=0)

    def test_fields_and_defaults(self):
        r = GinRequest(3, 5)
        assert (r.max_degree, r.seed, r.trials, r.height) == (3, 5, 2, 100)
        r = GinRequest(max_degree=4, seed=6, trials=3, height=7)
        assert (r.max_degree, r.seed, r.trials, r.height) == (4, 6, 3, 7)

    def test_trial_seeds_deterministic(self):
        r = GinRequest(max_degree=3, seed=99, trials=4)
        assert r.trial_seeds() == r.trial_seeds()
        assert len(set(r.trial_seeds())) == 4


class TestGinFree:
    def test_commutator_ideal(self):
        # the ideal of [X1, X2] has generic initial ideal (X2X1) in degree 2
        ctx = AlgebraContext(2)
        comm = word(1, 2) - word(2, 1)
        req = GinRequest(max_degree=3, seed=7)
        res = gin_free([comm], ctx, req, ORDER)
        assert res.agreement
        deg2 = {w for w in res.gin.gens if len(w) == 2}
        assert deg2 == {(2, 1)}
        ok, witness = is_borel_fixed(res.gin, ctx)
        assert not ok and witness is not None

    def test_deterministic_given_seed(self):
        ctx = AlgebraContext(2)
        comm = word(1, 2) - word(2, 1)
        req = GinRequest(max_degree=3, seed=11)
        a = gin_free([comm], ctx, req, ORDER)
        b = gin_free([comm], ctx, req, ORDER)
        assert a.gin == b.gin and a.trial_seeds == b.trial_seeds

    def test_quadric_preimage(self):
        # preimage of a generic exterior quadric in three variables
        ctx = AlgebraContext(3)
        q = mono(1, 2) + mono(1, 3).scale(2) + mono(2, 3).scale(5)
        gens = anti_commutators(ctx) + [delta(q)]
        req = GinRequest(max_degree=3, seed=5)
        res = gin_free(gens, ctx, req, ORDER)
        assert res.agreement
        expected = {(2, 3), (1, 1), (2, 2), (3, 3), (2, 1), (3, 1), (3, 2)}
        assert set(res.gin.gens) == expected

    def test_monomial_cone_is_its_own_gin_dimensionwise(self):
        ctx = AlgebraContext(2)
        gens = [word(1, 1)]
        req = GinRequest(max_degree=4, seed=3)
        res = gin_free(gens, ctx, req, ORDER)
        assert res.agreement
        # the transformed slice has the same dimensions as the original
        assert hilbert_compare(gens, ctx, res.gin, max_degree=4, order=ORDER)

    def test_rejects_nonhomogeneous(self):
        ctx = AlgebraContext(2)
        with pytest.raises(ValueError):
            gin_free([word(1) + word(1, 2)], ctx, GinRequest(max_degree=2, seed=1), ORDER)


class TestGinExt:
    def test_generic_quadric(self):
        ctx = AlgebraContext(3)
        q = mono(1, 2) + mono(1, 3).scale(2) + mono(2, 3).scale(5)
        I = ExtIdeal(ctx, [q])
        res = gin_ext(I, GinRequest(max_degree=3, seed=17))
        assert res.agreement
        assert res.gin == MonomialIdealExt([ExtMonomial([2, 3])])
        # gins are stable in the exchange direction matching the order
        # (x1 smallest -> exchanges toward larger indices), not in the
        # default direction
        assert is_strongly_stable(res.gin, toward_larger=True, n=3)
        assert not is_strongly_stable(res.gin)
        assert hilbert_compare_ext(I, res.gin)

    def test_gl_invariant_power_ideal(self):
        # the d-th power of the maximal ideal is GL-invariant: gin = in
        ctx = AlgebraContext(4)
        from extlift.algebra import ext_monomials_of_degree

        gens = [ExtPolynomial.monomial(m) for m in ext_monomials_of_degree(ctx, 3)]
        I = ExtIdeal(ctx, gens)
        res = gin_ext(I, GinRequest(max_degree=4, seed=23))
        assert res.agreement
        assert res.gin == initial_ideal_ext(groebner_ext(I))

    @pytest.mark.parametrize("seed", range(10))
    def test_gin_strongly_stable_random(self, seed):
        rng = random.Random(700 + seed)
        n = rng.choice([3, 4, 5])
        ctx = AlgebraContext(n)
        I = ExtIdeal(ctx, random_ext_ideal_gens(rng, ctx))
        res = gin_ext(I, GinRequest(max_degree=n, seed=seed))
        if res.agreement:
            assert is_strongly_stable(res.gin, toward_larger=True, n=n)
            assert hilbert_compare_ext(I, res.gin)

    def test_invariant_under_change_of_coordinates(self):
        # gin(g I) = gin(I) for any invertible g
        ctx = AlgebraContext(3)
        q = mono(1, 2) + mono(1, 3).scale(2) + mono(2, 3).scale(5)
        I = ExtIdeal(ctx, [q])
        g = random_gl(ctx, seed=404, height=10)
        J = ExtIdeal(ctx, [apply_gl_ext(g, f) for f in I.generators])
        a = gin_ext(I, GinRequest(max_degree=3, seed=31))
        b = gin_ext(J, GinRequest(max_degree=3, seed=77))
        assert a.agreement and b.agreement
        assert a.gin == b.gin


class TestGinLifted:
    def test_quadric_matches_free_computation(self):
        ctx = AlgebraContext(3)
        q = mono(1, 2) + mono(1, 3).scale(2) + mono(2, 3).scale(5)
        I = ExtIdeal(ctx, [q])
        req = GinRequest(max_degree=3, seed=5)
        res = gin_ext(I, req)
        lifted = gin_lifted(I, res.gin)
        direct = gin_free(anti_commutators(ctx) + [delta(q)], ctx, req, ORDER)
        assert res.agreement and direct.agreement
        assert set(lifted.gens) == set(direct.gin.gens)

    def test_degree_one_rejected(self):
        ctx = AlgebraContext(2)
        I = ExtIdeal(ctx, [mono(1)])
        res = gin_ext(I, GinRequest(max_degree=2, seed=1))
        with pytest.raises(ValueError):
            gin_lifted(I, res.gin)


class TestBorelFixed:
    def test_all_degree_two_words_fixed(self):
        ctx = AlgebraContext(3)
        B = MonomialIdealFree(list(product((1, 2, 3), repeat=2)), 3, ORDER)
        ok, witness = is_borel_fixed(B, ctx)
        assert ok and witness is None

    def test_quadric_gin_not_fixed(self):
        # X1 -> X1 + X2 sends X1^2 to a polynomial with the word X1X2,
        # which escapes the lifted gin of the generic quadric
        ctx = AlgebraContext(3)
        gens = [(2, 3), (1, 1), (2, 2), (3, 3), (2, 1), (3, 1), (3, 2)]
        B = MonomialIdealFree(gens, 3, ORDER)
        ok, witness = is_borel_fixed(B, ctx)
        assert not ok
        gen, (i, j), bad = witness
        assert gen == (1, 1) and (i, j) == (1, 2) and bad == (1, 2)

    def test_whole_maximal_ideal_fixed(self):
        ctx = AlgebraContext(2)
        B = MonomialIdealFree([(1,), (2,)], 2, ORDER)
        assert is_borel_fixed(B, ctx) == (True, None)

    @pytest.mark.parametrize("seed", range(6))
    def test_agrees_with_matrix_oracle(self, seed):
        # witnesses included: both list an image's words in the same order
        rng = random.Random(seed)
        fixed = 0
        for _ in range(100):
            n = rng.randint(1, 5)
            words = [
                tuple(rng.randint(1, n) for _ in range(rng.randint(1, 3)))
                for _ in range(rng.randint(1, 4))
            ]
            if rng.random() < 0.5:
                words = borel_closure(words, n)
            B = MonomialIdealFree(words, n, ORDER)
            ctx = AlgebraContext(n)
            result = is_borel_fixed(B, ctx)
            assert result == matrix_is_borel_fixed(B, ctx)
            fixed += result[0]
        assert 20 <= fixed <= 80


def borel_closure(words, n: int) -> list:
    """The words and every word reached from one by raising letters."""
    seen, stack = set(words), list(words)
    while stack:
        w = stack.pop()
        for pos, a in enumerate(w):
            for b in range(a + 1, n + 1):
                v = w[:pos] + (b,) + w[pos + 1:]
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
    return sorted(seen)


class TestHilbertCompare:
    def test_detects_wrong_gin(self):
        ctx = AlgebraContext(2)
        comm = word(1, 2) - word(2, 1)
        req = GinRequest(max_degree=3, seed=7)
        res = gin_free([comm], ctx, req, ORDER)
        assert hilbert_compare([comm], ctx, res.gin, max_degree=3, order=ORDER)
        wrong = MonomialIdealFree([(1, 1)], 2, ORDER)
        assert not hilbert_compare([comm], ctx, wrong, max_degree=3, order=ORDER)
