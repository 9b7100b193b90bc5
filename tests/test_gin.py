import random
from itertools import product
from math import comb

import pytest

from extlift.algebra import (
    AlgebraContext,
    ExtMonomial,
    ExtPolynomial,
    FreePolynomial,
    apply_gl_ext,
    delta,
)
from extlift.exterior import ExtIdeal, MonomialIdealExt, groebner_ext
from extlift.freealg import MonomialIdealFree, dimension_check, free_initial_ideal
from extlift.gin import (
    GinRequest,
    gin_ext,
    gin_free,
    gin_lifted,
    hilbert_compare_ext,
    is_borel_fixed,
    random_gl,
)
from extlift.lifting import anti_commutators
from extlift.orders import ExtOrderSpec, FreeOrderSpec

from helpers import cone_counts_slices, dense_rank, ext_monomials_of_degree, gap_binomials, is_strongly_stable, random_ext_ideal_gens
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
        dims = free_initial_ideal(gens, ctx, ORDER, 4).slice_dims
        assert cone_counts_slices(dims, ctx, res.gin, max_degree=4)

    def test_rejects_nonhomogeneous(self):
        ctx = AlgebraContext(2)
        with pytest.raises(ValueError):
            gin_free([word(1) + word(1, 2)], ctx, GinRequest(max_degree=2, seed=1), ORDER)


class TestGinExt:
    def test_generic_quadric(self):
        ctx = AlgebraContext(3)
        q = mono(1, 2) + mono(1, 3).scale(2) + mono(2, 3).scale(5)
        I = ExtIdeal(ctx, [q])
        res = gin_ext(I, GinRequest(max_degree=3, seed=17), groebner_ext(I).slice_dims)
        assert res.agreement
        assert res.gin == MonomialIdealExt([ExtMonomial([2, 3])])
        # gins are stable in the exchange direction matching the order
        # (x1 smallest -> exchanges toward larger indices), not in the
        # default direction
        assert is_strongly_stable(res.gin, toward_larger=True, n=3)
        assert not is_strongly_stable(res.gin)
        assert hilbert_compare_ext(dict(enumerate(groebner_ext(I).slice_dims)), ctx, res.gin)

    def test_gl_invariant_power_ideal(self):
        # the d-th power of the maximal ideal is GL-invariant: gin = in
        ctx = AlgebraContext(4)
        gens = [ExtPolynomial.monomial(m) for m in ext_monomials_of_degree(ctx, 3)]
        I = ExtIdeal(ctx, gens)
        res = gin_ext(I, GinRequest(max_degree=4, seed=23), groebner_ext(I).slice_dims)
        assert res.agreement
        assert res.gin == groebner_ext(I).initial

    @pytest.mark.parametrize("seed", range(10))
    def test_gin_strongly_stable_random(self, seed):
        rng = random.Random(700 + seed)
        n = rng.choice([3, 4, 5])
        ctx = AlgebraContext(n)
        I = ExtIdeal(ctx, random_ext_ideal_gens(rng, ctx))
        res = gin_ext(I, GinRequest(max_degree=n, seed=seed), groebner_ext(I).slice_dims)
        if res.agreement:
            assert is_strongly_stable(res.gin, toward_larger=True, n=n)
            assert hilbert_compare_ext(dict(enumerate(groebner_ext(I).slice_dims)), ctx, res.gin)

    def test_invariant_under_change_of_coordinates(self):
        # gin(g I) = gin(I) for any invertible g
        ctx = AlgebraContext(3)
        q = mono(1, 2) + mono(1, 3).scale(2) + mono(2, 3).scale(5)
        I = ExtIdeal(ctx, [q])
        g = random_gl(ctx, seed=404, height=10)
        J = ExtIdeal(ctx, [apply_gl_ext(g, f) for f in I.generators])
        a = gin_ext(I, GinRequest(max_degree=3, seed=31), groebner_ext(I).slice_dims)
        b = gin_ext(J, GinRequest(max_degree=3, seed=77), groebner_ext(J).slice_dims)
        assert a.agreement and b.agreement
        assert a.gin == b.gin


def target_corpus(n: int):
    """13 seeded ideals in n variables, each with an order: random
    generators of mixed degrees (degree 1 included), gap binomials, and
    redundant lists, whose later generators lie in the ideal of the
    earlier ones, so that a trial drops them or never draws their rows."""
    rng = random.Random(f"gin-targets/{n}")
    ctx = AlgebraContext(n)
    for k in range(13):
        ranking = tuple(rng.sample(range(1, n + 1), n)) if k % 4 == 3 else None
        order = ExtOrderSpec(rng.choice(["deglex", "degrevlex"]), ranking)
        if k % 3 == 0:
            gens = random_ext_ideal_gens(rng, ctx, min_deg=1 + k % 2, max_gens=4)
        elif k % 3 == 1:
            gens = gap_binomials(rng, ctx) if n >= 4 else random_ext_ideal_gens(rng, ctx, max_gens=2)
        else:
            base = random_ext_ideal_gens(rng, ctx, max_deg=min(3, n - 1), max_gens=2)
            a, b = rng.sample(range(1, n + 1), 2)
            gens = base + [mono(a) * base[0], (mono(a) + mono(b).scale(2)) * base[-1]] + base
        yield ExtIdeal(ctx, gens, order)


@pytest.mark.parametrize("n", range(3, 8))
def test_trial_with_targets_gives_the_cone_without(n):
    """A gin trial's groebner_ext with the untransformed slice dimensions as
    targets gives the cone and the dimensions it gives without them: 65
    ideals, 3 coordinate changes each."""
    rng = random.Random(f"gin-target-seeds/{n}")
    for I in target_corpus(n):
        dims = groebner_ext(I).slice_dims
        for _ in range(3):
            g = random_gl(I.ctx, rng.getrandbits(63), 100)
            J = ExtIdeal(I.ctx, [apply_gl_ext(g, f) for f in I.generators], I.order)
            free, stopped = groebner_ext(J), groebner_ext(J, targets=dims)
            assert stopped.initial.gens == free.initial.gens
            assert stopped.slice_dims == free.slice_dims == dims


def test_short_slice_raises():
    """A slice that ends short of its target is an error, not a
    non-generic trial: tampered targets ask one slice for one pivot more."""
    ctx = AlgebraContext(6)
    I = ExtIdeal(ctx, random_ext_ideal_gens(random.Random("short-slice"), ctx, max_deg=2, max_gens=3))
    dims = groebner_ext(I).slice_dims
    d = next(d for d, dim in enumerate(dims) if 0 < dim < comb(6, d) - 1)
    tampered = dims[:d] + (dims[d] + 1,) + dims[d + 1:]
    with pytest.raises(RuntimeError, match=f"slice {d} has rank {dims[d]}, short of its target {dims[d] + 1}"):
        gin_ext(I, GinRequest(max_degree=6, seed=1), tampered)


class TestGinLifted:
    def test_quadric_matches_free_computation(self):
        ctx = AlgebraContext(3)
        q = mono(1, 2) + mono(1, 3).scale(2) + mono(2, 3).scale(5)
        I = ExtIdeal(ctx, [q])
        req = GinRequest(max_degree=3, seed=5)
        res = gin_ext(I, req, groebner_ext(I).slice_dims)
        lifted = gin_lifted(I, res.gin)
        direct = gin_free(anti_commutators(ctx) + [delta(q)], ctx, req, ORDER)
        assert res.agreement and direct.agreement
        assert set(lifted.gens) == set(direct.gin.gens)

    def test_degree_one_rejected(self):
        ctx = AlgebraContext(2)
        I = ExtIdeal(ctx, [mono(1)])
        res = gin_ext(I, GinRequest(max_degree=2, seed=1), groebner_ext(I).slice_dims)
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
        dims = free_initial_ideal([comm], ctx, ORDER, 3).slice_dims
        assert cone_counts_slices(dims, ctx, res.gin, max_degree=3)
        wrong = MonomialIdealFree([(1, 1)], 2, ORDER)
        assert not cone_counts_slices(dims, ctx, wrong, max_degree=3)
        # 3 of the 4 words of degree 2 avoid X1X1, and 5 of the 8 of degree 3
        assert dimension_check(dims, wrong.automaton(), 2, 3) == [(0, 0, 0), (1, 0, 0), (2, 1, 1), (3, 4, 3)]
