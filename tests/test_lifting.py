import random

import pytest

from extlift.algebra import (
    AlgebraContext,
    ExtMonomial,
    ExtPolynomial,
    FreePolynomial,
    pi,
)
from extlift import lifting
from extlift.exterior import ExtIdeal, MonomialIdealExt, groebner_ext
from extlift.lifting import (
    anti_commutator_leading_words,
    anti_commutators,
    compute_U,
    lift_groebner,
    squeezed_witness,
    stable_witness,
    strongly_stable_witness,
)
from extlift.orders import ExtOrderSpec, FreeOrderSpec, leading_term_ext, leading_term_free

from helpers import (
    all_monomials_in,
    brute_force_U,
    is_squeezed,
    is_stable,
    is_strongly_stable,
    naive_lift,
    random_ext_ideal_gens,
    random_monomial_ideal,
    stable_closure,
)
from oracles import enumerating_squeezed_witness, ideal_degree_basis, monomial_exchange_ok

DEGLEX = ExtOrderSpec("deglex")
ONE = ExtMonomial()


def mono(*idx):
    return ExtPolynomial.monomial(ExtMonomial(idx))


class TestAntiCommutators:
    def test_n1(self):
        assert anti_commutators(AlgebraContext(1)) == [FreePolynomial.monomial((1, 1))]

    def test_n2_leading_words(self):
        ctx = AlgebraContext(2)
        acs = anti_commutators(ctx)
        spec = FreeOrderSpec(DEGLEX)
        leads = {leading_term_free(F, spec)[0] for F in acs}
        assert leads == {(1, 1), (2, 2), (2, 1)}
        assert set(anti_commutator_leading_words(ctx)) == leads
        # for n = 1, 2, 3 and 5, under both base orders with the natural
        # ranking, the i-th word is the lead of the i-th relation
        for n in (1, 2, 3, 5):
            ctx = AlgebraContext(n)
            words = anti_commutator_leading_words(ctx)
            assert sorted(words) == sorted((j, i) for i in range(1, n + 1) for j in range(i, n + 1))
            for kind in ("deglex", "degrevlex"):
                spec = FreeOrderSpec(ExtOrderSpec(kind))
                assert [leading_term_free(F, spec)[0] for F in anti_commutators(ctx)] == words

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_count(self, n):
        assert len(anti_commutators(AlgebraContext(n))) == n * (n + 1) // 2

    def test_all_in_kernel_of_pi(self):
        for F in anti_commutators(AlgebraContext(4)):
            assert not pi(F)


class TestComputeU:
    def test_adjacent_extremes_trivial(self):
        L = MonomialIdealExt([ExtMonomial([2, 3])])
        assert compute_U(L, ExtMonomial([2, 3])) == {ONE}

    def test_gap_example(self):
        L = MonomialIdealExt([ExtMonomial([1, 4])])
        expected = {ONE, ExtMonomial([2]), ExtMonomial([3]), ExtMonomial([2, 3])}
        assert compute_U(L, ExtMonomial([1, 4])) == expected

    def test_candidate_filtered_by_membership(self):
        L = MonomialIdealExt([ExtMonomial([1, 3]), ExtMonomial([2, 3]), ExtMonomial([1, 2])])
        assert compute_U(L, ExtMonomial([1, 3])) == {ONE}

    def test_nonmember_rejected(self):
        L = MonomialIdealExt([ExtMonomial([1, 2])])
        with pytest.raises(ValueError):
            compute_U(L, ExtMonomial([3, 4]))

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_matches_bruteforce_exhaustive(self, n):
        rng = random.Random(n)
        ctx = AlgebraContext(n)
        for _ in range(20):
            L = random_monomial_ideal(rng, ctx)
            for m in all_monomials_in(L, ctx):
                if m.degree < 2:
                    continue
                assert compute_U(L, m) == brute_force_U(L, m)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_trivial_when_extremes_adjacent(self, n):
        rng = random.Random(10 + n)
        ctx = AlgebraContext(n)
        for _ in range(20):
            L = random_monomial_ideal(rng, ctx)
            for m in all_monomials_in(L, ctx):
                sup = m.support
                if len(sup) >= 2 and sup[-1] - sup[0] <= 1:
                    assert compute_U(L, m) == {ONE}


class TestPredicates:
    def test_squeezed_examples(self):
        assert not is_squeezed(MonomialIdealExt([ExtMonomial([1, 4])]))
        assert is_squeezed(MonomialIdealExt([ExtMonomial([2, 3])]))

    def test_squeezed_witness(self):
        ok, wit = squeezed_witness(MonomialIdealExt([ExtMonomial([1, 4])]))
        assert not ok
        m, u = wit
        assert m == ExtMonomial([1, 4]) and u == ExtMonomial([2])

    @pytest.mark.parametrize("seed", range(4))
    def test_squeezed_witness_matches_enumeration(self, seed):
        rng = random.Random(500 + seed)
        squeezed = 0
        for _ in range(100):
            ctx = AlgebraContext(rng.randint(2, 8))
            L = random_monomial_ideal(rng, ctx, max_gens=rng.randint(1, 6))
            result = squeezed_witness(L)
            assert result == enumerating_squeezed_witness(L)
            squeezed += result[0]
        assert 10 <= squeezed <= 90

    def test_squeezed_witness_tests_only_variables(self, monkeypatch):
        # the gap of x1*x64 has 62 variables: 2^62 multipliers, 62 tested
        calls = []
        member = MonomialIdealExt.member
        monkeypatch.setattr(MonomialIdealExt, "member", lambda L, m: calls.append(m) or member(L, m))
        L = MonomialIdealExt([ExtMonomial([1, 64])])
        assert squeezed_witness(L) == (False, (ExtMonomial([1, 64]), ExtMonomial([2])))
        assert len(calls) <= 2 * 62

    def test_stable_examples(self):
        assert is_stable(MonomialIdealExt([ExtMonomial([1, 2])]))
        assert not is_stable(MonomialIdealExt([ExtMonomial([2, 3])]))

    def test_stable_matches_exhaustive_oracle(self):
        rng = random.Random(77)
        for _ in range(40):
            n = rng.choice([3, 4, 5, 6])
            ctx = AlgebraContext(n)
            L = random_monomial_ideal(rng, ctx, min_deg=1)

            def oracle(strongly):
                for m in all_monomials_in(L, ctx):
                    sup = m.support
                    if not sup:
                        continue
                    js = sup if strongly else sup[-1:]
                    for j in js:
                        base = m / ExtMonomial([j])
                        for i in range(1, j):
                            xi = ExtMonomial([i])
                            if xi.bits & base.bits:
                                continue
                            if not L.member(xi * base):
                                return False
                return True

            assert is_stable(L) == oracle(strongly=False)
            assert is_strongly_stable(L) == oracle(strongly=True)

    def test_witnesses_equal_those_of_monomial_exchanges(self, monkeypatch):
        # the exchanges on bitmasks name the same (generator, i, j) as the
        # ExtMonomial products they replaced, in both directions
        rng = random.Random("exchange-witnesses")
        cases = []
        for _ in range(40):
            ctx = AlgebraContext(rng.choice([3, 4, 5, 6, 7]))
            cases.append((random_monomial_ideal(rng, ctx, min_deg=1), ctx.n))
            cases.append((stable_closure(rng, ctx, strongly=rng.random() < 0.5), ctx.n))

        def witnesses():
            return [
                witness(L, toward, n)
                for L, n in cases
                for witness in (stable_witness, strongly_stable_witness)
                for toward in (False, True)
            ]

        fast = witnesses()
        monkeypatch.setattr(lifting, "_exchange_ok", monomial_exchange_ok)
        assert witnesses() == fast
        assert sum(ok for ok, _ in fast) >= 40 and sum(not ok for ok, _ in fast) >= 40

    def test_strongly_stable_implies_stable(self):
        rng = random.Random(5)
        for _ in range(50):
            ctx = AlgebraContext(rng.choice([3, 4, 5, 6]))
            L = stable_closure(rng, ctx, strongly=True)
            assert is_strongly_stable(L)
            assert is_stable(L)

    def test_directions_are_mirror_images(self):
        rng = random.Random(88)
        for _ in range(40):
            n = rng.choice([3, 4, 5])
            ctx = AlgebraContext(n)
            L = random_monomial_ideal(rng, ctx, min_deg=1)
            mirrored = MonomialIdealExt(
                [ExtMonomial([n + 1 - i for i in m.support]) for m in L.gens]
            )
            assert is_stable(L) == is_stable(mirrored, toward_larger=True, n=n)
            assert is_strongly_stable(L) == is_strongly_stable(
                mirrored, toward_larger=True, n=n
            )

    def test_toward_larger_requires_n(self):
        L = MonomialIdealExt([ExtMonomial([1, 2])])
        with pytest.raises(ValueError):
            is_stable(L, toward_larger=True)

    def test_mirrored_stable_implies_squeezed(self):
        # squeezedness is invariant under reversing the variable indices,
        # so it follows from stability in either exchange direction
        rng = random.Random(89)
        for _ in range(30):
            n = rng.choice([3, 4, 5])
            ctx = AlgebraContext(n)
            L = stable_closure(rng, ctx, strongly=False)
            mirrored = MonomialIdealExt(
                [ExtMonomial([n + 1 - i for i in m.support]) for m in L.gens]
            )
            assert is_stable(mirrored, toward_larger=True, n=n)
            assert is_squeezed(mirrored)

    def test_stable_implies_squeezed(self):
        rng = random.Random(6)
        for _ in range(50):
            ctx = AlgebraContext(rng.choice([3, 4, 5, 6]))
            L = stable_closure(rng, ctx, strongly=False)
            assert is_stable(L)
            assert is_squeezed(L)


class TestLiftGroebner:
    def test_quadric_example(self):
        ctx = AlgebraContext(3)
        q = mono(1, 2) + mono(1, 3).scale(2) + mono(2, 3).scale(5)
        gb = groebner_ext(ExtIdeal(ctx, [q]))
        lifted = lift_groebner(gb)
        expected = {(2, 3), (1, 1), (2, 2), (3, 3), (2, 1), (3, 1), (3, 2)}
        assert set(lifted.initial_mingens) == expected
        assert len(lifted.lifted) == 1
        assert lifted.lifted[0][1] == ONE

    def test_gap_monomial_ideal(self):
        ctx = AlgebraContext(4)
        gb = groebner_ext(ExtIdeal(ctx, [mono(1, 4)]))
        lifted = lift_groebner(gb)
        lifted_words = {leading_term_free(F, lifted.order)[0] for _, _, F in lifted.lifted}
        assert lifted_words == {(1, 4), (1, 2, 4), (1, 3, 4), (1, 2, 3, 4)}
        assert set(lifted.initial_mingens) == lifted_words | set(
            anti_commutator_leading_words(ctx)
        )

    def test_adjacent_leads_give_naive_lift(self):
        ctx = AlgebraContext(3)
        gb = groebner_ext(ExtIdeal(ctx, [mono(2, 3), mono(1, 2)]))
        lifted = lift_groebner(gb)
        assert [u for _, u, _ in lifted.lifted] == [ONE, ONE]
        naive = naive_lift(gb)
        assert all(F in naive for _, _, F in lifted.lifted)

    def test_degree_one_rejected(self):
        ctx = AlgebraContext(2)
        gb = groebner_ext(ExtIdeal(ctx, [mono(1)]))
        with pytest.raises(ValueError, match="degree-1"):
            lift_groebner(gb)
        with pytest.raises(ValueError, match="degree-1"):
            naive_lift(gb)

    def test_ranking_must_be_natural(self):
        ctx = AlgebraContext(3)
        q = mono(1, 2) + mono(1, 3).scale(2) + mono(2, 3).scale(5)
        gb = groebner_ext(ExtIdeal(ctx, [q], ExtOrderSpec("deglex", (2, 3, 1))))
        with pytest.raises(ValueError, match="varorder 3,1,2"):
            lift_groebner(gb)
        with pytest.raises(ValueError, match="varorder 3,1,2"):
            naive_lift(gb)
        # the identity ranking is the natural one
        identity = lift_groebner(groebner_ext(ExtIdeal(ctx, [q], ExtOrderSpec("deglex", (1, 2, 3)))))
        assert identity.lifted == lift_groebner(groebner_ext(ExtIdeal(ctx, [q]))).lifted

    def test_lifted_elements_project_into_ideal(self):
        rng = random.Random(8)
        for _ in range(10):
            n = rng.choice([3, 4, 5])
            ctx = AlgebraContext(n)
            I = ExtIdeal(ctx, random_ext_ideal_gens(rng, ctx))
            gb = groebner_ext(I)
            lifted = lift_groebner(gb)
            init = gb.initial
            for f, u, F in lifted.lifted:
                image = pi(F)
                # pi of the lifted element lies in I: its normal form
                # against the GB must vanish (dimension argument: reduce by
                # re-running elimination on I + (image))
                enlarged = ExtIdeal(ctx, list(I.generators) + [image], I.order)
                d = image.degree
                assert len(ideal_degree_basis(enlarged, d)) == len(ideal_degree_basis(I, d))
                lead_w, _ = leading_term_free(F, lifted.order)
                m, _ = leading_term_ext(image, I.order)
                assert set(lead_w) == set(m.support) and init.member(m)

    def test_initial_membership_characterization(self):
        # a word lies in in(J) iff it has an adjacent descent or its
        # square-free image lies in in(I); exhaustive in small degree
        from itertools import product as iproduct

        rng = random.Random(13)
        for n in (3, 4):
            ctx = AlgebraContext(n)
            I = ExtIdeal(ctx, random_ext_ideal_gens(rng, ctx, min_deg=2, max_deg=2))
            gb = groebner_ext(I)
            init = gb.initial
            lifted = lift_groebner(gb)
            from extlift.freealg import MonomialIdealFree

            inJ = MonomialIdealFree(lifted.initial_mingens, n, lifted.order)
            for d in range(1, n + 2):
                for w in iproduct(range(1, n + 1), repeat=d):
                    descent = any(a >= b for a, b in zip(w, w[1:]))
                    img_in = not descent and init.member(ExtMonomial(w))
                    assert inJ.member(w) == (descent or img_in)
