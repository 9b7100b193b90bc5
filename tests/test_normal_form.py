"""The heap-driven integer normal form: differential tests against the
linear rescan and the ``Fraction`` reducer it replaced, algebraic
properties, and guards on the work done."""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extlift import freealg
from extlift.algebra import AlgebraContext, ExtMonomial, ExtPolynomial, FreePolynomial
from extlift.exterior import ExtIdeal, groebner_ext
from extlift.freealg import (
    FreeGroebnerCandidate,
    PatternAutomaton,
    enumerate_obstructions,
    obstructions_resolve,
)
from extlift.lifting import anti_commutators, lift_groebner
from extlift.orders import ExtOrderSpec, FreeOrderSpec
from extlift.parsing import parse_ideal

from helpers import gap_binomials, keyed_rows, naive_lift, random_ext_ideal_gens, random_ext_polynomial, random_free_polynomial
from replay import load_inputs
from oracles import (
    fraction_normal_form,
    normal_form,
    normal_form_obstructions_resolve,
    fraction_obstructions_resolve,
    fraction_slice_rows,
    rescan_normal_form,
    rescan_obstructions_resolve,
    rref,
)


def candidates(rng, ctx, gens, order):
    """The lift of the ideal, its naive lift, and the lift with one lifted
    element dropped; only the first is guaranteed to be a Groebner basis.

    The lift needs the natural variable ranking, so it is taken under the
    natural ranking of the same kind and then ordered by ``order``."""
    gb = groebner_ext(ExtIdeal(ctx, gens, ExtOrderSpec(order.kind)))
    lifted = lift_groebner(gb)
    elements = lifted.elements()
    k = len(lifted.anti_commutators)
    free_order = FreeOrderSpec(order)
    out = [elements, naive_lift(gb)]
    if len(elements) > k:
        drop = rng.randrange(k, len(elements))
        out.append(elements[:drop] + elements[drop + 1:])
    return [FreeGroebnerCandidate(ctx, E, free_order) for E in out]


DIFFERENTIAL_CASES = [
    (n, ExtOrderSpec(kind), seed)
    for n, seeds in ((4, (0, 1)), (5, (0, 1)), (6, (0,)))
    for kind in ("deglex", "degrevlex")
    for seed in seeds
] + [
    (5, ExtOrderSpec("deglex", (3, 5, 1, 4, 2)), 0),
    (5, ExtOrderSpec("degrevlex", (2, 4, 5, 1, 3)), 1),
]


def corpus(n, order, seed):
    rng = random.Random(f"nf/{n}/{order.kind}/{order.ranking}/{seed}")
    ctx = AlgebraContext(n)
    gens = random_ext_ideal_gens(rng, ctx, max_deg=min(n - 1, 3))
    return rng, candidates(rng, ctx, gens, order)


class TestAgainstRescan:
    @pytest.mark.parametrize("n,order,seed", DIFFERENTIAL_CASES)
    def test_remainders_and_failures_identical(self, n, order, seed):
        # equal failure lists mean every S-polynomial has the same
        # remainder, since only the nonzero ones are listed
        rng, Gs = corpus(n, order, seed)
        for G in Gs:
            assert obstructions_resolve(G) == rescan_obstructions_resolve(G)
            for _ in range(5):
                F = random_free_polynomial(rng, G.ctx, rng.randint(2, 4), nterms=6)
                assert normal_form(F, G).terms == rescan_normal_form(F, G).terms

    def test_corpus_has_failing_candidates(self):
        # the comparison above must cover nonzero remainders, not only bases
        failures = [
            len(obstructions_resolve(G)[1])
            for case in DIFFERENTIAL_CASES
            for G in corpus(*case)[1]
        ]
        assert sum(1 for k in failures if k) >= 10


# --- against the Fraction reducer --------------------------------------------


def assert_exact(fast: FreePolynomial, slow: FreePolynomial):
    """The same terms in the same order, every coefficient a Fraction."""
    assert list(fast.terms.items()) == list(slow.terms.items())
    assert all(type(v) is Fraction for v in fast.terms.values())


def perturbed(rng, elements, k):
    """Lifted elements with one of the k + 1st onwards dropped, and with one
    coefficient of each of three elements rescaled by a random fraction."""
    drop = rng.randrange(k, len(elements))
    rescaled = list(elements)
    for idx in rng.sample(range(len(elements)), min(3, len(elements))):
        terms = dict(elements[idx].terms)
        w = rng.choice(sorted(terms))
        terms[w] *= Fraction(rng.choice([-1, 1]) * rng.randint(2, 9), rng.randint(2, 9))
        rescaled[idx] = FreePolynomial(terms)
    return [elements[:drop] + elements[drop + 1:], rescaled]


FRACTION_CASES = [
    (n, kind, family)
    for n in range(2, 8)
    for kind in ("deglex", "degrevlex")
    for family in ("quadrics", "gaps")
    if family == "quadrics" or n >= 4
]


def fraction_corpus(n, kind, family):
    """The lifted basis of seeded quadrics or gap binomials, and two
    perturbed candidates that leave nonzero remainders."""
    rng = random.Random(f"fraction-nf/{n}/{kind}/{family}")
    ctx = AlgebraContext(n)
    if family == "quadrics":
        gens = [random_ext_polynomial(rng, ctx, 2) for _ in range(3)]
    else:
        gens = gap_binomials(rng, ctx)
    lifted = lift_groebner(groebner_ext(ExtIdeal(ctx, gens, ExtOrderSpec(kind))))
    elements = lifted.elements()
    out = [elements] + perturbed(rng, elements, len(lifted.anti_commutators))
    return rng, [FreeGroebnerCandidate(ctx, E, FreeOrderSpec(ExtOrderSpec(kind))) for E in out]


class TestAgainstFraction:
    @pytest.mark.parametrize("n,kind,family", FRACTION_CASES)
    def test_obstructions_and_normal_forms_identical(self, n, kind, family):
        rng, Gs = fraction_corpus(n, kind, family)
        assert obstructions_resolve(Gs[0]) == (True, [])
        for G in Gs:
            fast, slow = obstructions_resolve(G), fraction_obstructions_resolve(G)
            assert fast == slow
            for f, g in zip(fast[1], slow[1]):
                assert_exact(f.remainder, g.remainder)
            for _ in range(3):
                F = random_free_polynomial(rng, G.ctx, rng.randint(2, 4), nterms=6)
                F = F.scale(Fraction(rng.randint(1, 7), rng.randint(1, 7)))
                assert_exact(normal_form(F, G), fraction_normal_form(F, G))

    def test_corpus_leaves_remainders_and_needs_pseudo_division(self):
        # the comparison above must cover nonzero remainders and leads
        # other than 1
        failing = leads = 0
        for case in FRACTION_CASES:
            for G in fraction_corpus(*case)[1]:
                failing += len(obstructions_resolve(G)[1])
                leads += sum(1 for L in G.leads if L != 1)
        assert failing >= 400
        assert leads >= 200


# --- S-polynomials on chain ends, against one normal form each --------------


CHAIN_END_CASES = [
    (n, kind, family)
    for n in range(3, 8)
    for kind in ("deglex", "degrevlex")
    for family in ("quadrics", "gaps")
    if family == "quadrics" or n >= 4
]


def chain_end_corpus(n, kind, family):
    """The element lists of the lifted basis of seeded quadrics or gap
    binomials: intact, with one lifted element dropped, and, when a lifted
    element has a tail, with one coefficient of its tail changed."""
    rng = random.Random(f"chain-ends/{n}/{kind}/{family}")
    ctx = AlgebraContext(n)
    if family == "quadrics":
        gens = [random_ext_polynomial(rng, ctx, 2) for _ in range(3)]
    else:
        gens = gap_binomials(rng, ctx)
    lifted = lift_groebner(groebner_ext(ExtIdeal(ctx, gens, ExtOrderSpec(kind))))
    elements = lifted.elements()
    k = len(lifted.anti_commutators)
    drop = rng.randrange(k, len(elements))
    out = [elements, elements[:drop] + elements[drop + 1:]]
    with_tails = [i for i in range(k, len(elements)) if len(elements[i]) > 1]
    if with_tails:
        idx = rng.choice(with_tails)
        lead = max(elements[idx].terms, key=FreeOrderSpec(ExtOrderSpec(kind)).word_key)
        terms = dict(elements[idx].terms)
        w = rng.choice(sorted(set(terms) - {lead}))
        terms[w] *= Fraction(rng.choice([-1, 1]) * rng.randint(2, 9), rng.randint(10, 19))  # neither 0 nor 1
        out.append(elements[:idx] + [FreePolynomial(terms)] + elements[idx + 1:])
    return ctx, out


def certificates(result):
    ok, failures = result
    return ok, [(f.i, f.j, f.word, list(f.remainder.terms.items())) for f in failures]


@pytest.mark.parametrize("n,kind,family", CHAIN_END_CASES)
def test_chain_end_sums_equal_one_normal_form_per_obstruction(n, kind, family):
    # each side reduces modulo its own candidate, so neither reads rules
    # or chain ends that the other one built
    ctx, bases = chain_end_corpus(n, kind, family)
    order = FreeOrderSpec(ExtOrderSpec(kind))
    for E in bases:
        fast = obstructions_resolve(FreeGroebnerCandidate(ctx, E, order))
        slow = normal_form_obstructions_resolve(FreeGroebnerCandidate(ctx, E, order))
        assert certificates(fast) == certificates(slow)
        for f in fast[1]:
            assert all(type(v) is Fraction for v in f.remainder.terms.values())
    assert obstructions_resolve(FreeGroebnerCandidate(ctx, bases[0], order)) == (True, [])


def test_chain_end_corpus_cancels_reduces_and_fails():
    # the comparison above covers S-polynomials that cancel on their chain
    # ends, ones that reduce to 0 only in the heap loop, and failures
    cancelled = reduced = failing = 0
    for n, kind, family in CHAIN_END_CASES:
        ctx, bases = chain_end_corpus(n, kind, family)
        for E in bases:
            G = FreeGroebnerCandidate(ctx, E, FreeOrderSpec(ExtOrderSpec(kind)))
            for i, j, *sides in enumerate_obstructions(G):
                ends, _ = freealg._s_polynomial_ends(G, i, j, *sides)
                if not ends:
                    cancelled += 1
                elif freealg._reduce(G, ends)[0]:
                    failing += 1
                else:
                    reduced += 1
    assert cancelled >= 1000 and reduced >= 200 and failing >= 200


# --- chains -----------------------------------------------------------------


def chain_candidate() -> FreeGroebnerCandidate:
    """n = 3, deglex: two chain steps, X2X1 -> -X1X2 and X3X1 -> -X1X3, the
    monomial element X1X3, and an element of lead 2 on X3X3X2 whose tail
    words X2X1X3 and X1X2X3 end at X1X2X3 and cancel, while X3X1X2 runs
    into X1X3 and goes to 0."""
    E = FreePolynomial([
        ((3, 3, 2), 2), ((2, 1, 3), 1), ((1, 2, 3), 1), ((3, 1, 2), 3), ((2, 2, 2), 1),
    ])
    elements = [FreePolynomial([((2, 1), 1), ((1, 2), 1)]), FreePolynomial([((3, 1), 1), ((1, 3), 1)]),
                FreePolynomial.monomial((1, 3)), E]
    return FreeGroebnerCandidate(AlgebraContext(3), elements, FreeOrderSpec())


def test_chains_that_cancel_or_vanish_against_both_oracles():
    G = chain_candidate()
    rng = random.Random("chains")
    Fs = [FreePolynomial.monomial((3, 3, 2)), FreePolynomial([((1, 3, 3, 2), 3), ((3, 3, 2, 1), Fraction(5, 3))])]
    Fs += [random_free_polynomial(rng, G.ctx, rng.randint(3, 5), nterms=8).scale(Fraction(rng.randint(1, 7), rng.randint(1, 7)))
           for _ in range(40)]
    for F in Fs:
        fast = normal_form(F, G)
        assert_exact(fast, fraction_normal_form(F, G))
        assert fast.terms == rescan_normal_form(F, G).terms
    assert normal_form(Fs[0], G).terms == {(2, 2, 2): Fraction(-1, 2)}
    # X3X3X2's rule: the cancelled and the vanished tail words are gone
    assert G._rules[(3, 3, 2)] == (2, [((-G.order.word_key((2, 2, 2)), (2, 2, 2)), 1)])
    fast, slow = obstructions_resolve(G), fraction_obstructions_resolve(G)
    assert fast == slow == rescan_obstructions_resolve(G)
    assert fast[1]
    for f, g in zip(fast[1], slow[1]):
        assert_exact(f.remainder, g.remainder)


@pytest.mark.parametrize("n", [40, 64])
def test_reversed_word_sorts_through_one_long_chain(n):
    """X_n ... X_1 is sorted by n(n-1)/2 swaps, more than Python's default
    recursion limit at n = 64; the sign is that of the reversal."""
    ctx = AlgebraContext(n)
    G = FreeGroebnerCandidate(ctx, anti_commutators(ctx), FreeOrderSpec())
    sign = -1 if n * (n - 1) // 2 % 2 else 1
    ascending = tuple(range(1, n + 1))
    assert normal_form(FreePolynomial.monomial(ascending[::-1]), G).terms == {ascending: sign}
    assert normal_form(FreePolynomial.monomial((1, 1) + ascending[::-1]), G).terms == {}


# --- properties -------------------------------------------------------------

SETTINGS = settings(derandomize=True, deadline=None, max_examples=60)


@st.composite
def lifted_bases(draw):
    """A Groebner basis of the free algebra: the anti-commutators plus the
    lift of up to two exterior quadrics in n <= 4 variables."""
    n = draw(st.integers(2, 4))
    ctx = AlgebraContext(n)
    order = ExtOrderSpec(draw(st.sampled_from(["deglex", "degrevlex"])))
    monos = [ExtMonomial(c) for c in combinations(range(1, n + 1), 2)]
    coeffs = st.lists(st.integers(-3, 3), min_size=len(monos), max_size=len(monos))
    gens = [ExtPolynomial(zip(monos, cs)) for cs in draw(st.lists(coeffs, max_size=2))]
    lifted = lift_groebner(groebner_ext(ExtIdeal(ctx, gens, order)))
    return FreeGroebnerCandidate(ctx, lifted.elements(), FreeOrderSpec(order))


def free_polys(n: int, degree: int | None = None):
    """Free polynomials in n variables; homogeneous of the given degree."""
    lengths = st.integers(1, 4) if degree is None else st.just(degree)
    words = lengths.flatmap(lambda d: st.tuples(*[st.integers(1, n)] * d))
    return st.lists(st.tuples(words, st.integers(-4, 4)), max_size=5).map(FreePolynomial)


class TestProperties:
    @SETTINGS
    @given(st.data())
    def test_equals_fraction_reducer(self, data):
        G = data.draw(lifted_bases())
        F = data.draw(free_polys(G.ctx.n))
        assert_exact(normal_form(F, G), fraction_normal_form(F, G))

    @SETTINGS
    @given(st.data())
    def test_idempotent(self, data):
        G = data.draw(lifted_bases())
        nf = normal_form(data.draw(free_polys(G.ctx.n)), G)
        assert normal_form(nf, G) == nf

    @SETTINGS
    @given(st.data())
    def test_no_leading_word_divides_a_remainder_word(self, data):
        G = data.draw(lifted_bases())
        nf = normal_form(data.draw(free_polys(G.ctx.n)), G)
        for w in nf.terms:
            assert not any(
                w[p:p + len(lead)] == lead
                for lead in G.leading_words
                for p in range(len(w) - len(lead) + 1)
            )

    @SETTINGS
    @given(st.data())
    def test_difference_lies_in_ideal_slice(self, data):
        G = data.draw(lifted_bases())
        d = data.draw(st.integers(2, 3))
        F = data.draw(free_polys(G.ctx.n, d))
        rows = fraction_slice_rows(G.elements, G.ctx, d)
        key = G.order.word_key
        assert len(rref(*keyed_rows(rows + [(F - normal_form(F, G)).terms], key))) == len(rref(*keyed_rows(rows, key)))

    @SETTINGS
    @given(st.data())
    def test_linear_on_a_groebner_basis(self, data):
        G = data.draw(lifted_bases())
        F = data.draw(free_polys(G.ctx.n))
        H = data.draw(free_polys(G.ctx.n))
        a, b = data.draw(st.integers(-3, 3)), data.draw(st.integers(-3, 3))
        combo = F.scale(a) + H.scale(b)
        assert normal_form(combo, G) == normal_form(F, G).scale(a) + normal_form(H, G).scale(b)


# --- work guards ------------------------------------------------------------


def seeded_n6_basis() -> FreeGroebnerCandidate:
    rng = random.Random("work-guard")
    ctx = AlgebraContext(6)
    gens = [random_ext_polynomial(rng, ctx, 2) for _ in range(3)]
    lifted = lift_groebner(groebner_ext(ExtIdeal(ctx, gens)))
    return FreeGroebnerCandidate(ctx, lifted.elements(), FreeOrderSpec())


def test_obstructions_resolve_does_no_fraction_arithmetic(monkeypatch):
    """Every S-polynomial is built and reduced on integers; a basis that
    resolves leaves no remainder to turn back into Fractions."""
    G = seeded_n6_basis()
    assert any(L != 1 for L in G.leads)
    calls = []
    for name in ("__add__", "__sub__", "__mul__", "__truediv__", "__neg__"):
        def counted(self, *args, _op=getattr(Fraction, name), _name=name):
            calls.append(_name)
            return _op(self, *args)

        monkeypatch.setattr(Fraction, name, counted)
    result = obstructions_resolve(G)
    monkeypatch.undo()
    assert calls == []
    assert result == (True, [])


def test_each_word_keyed_once_and_matched_once_per_candidate(monkeypatch):
    """Rules live on the candidate: across all the S-polynomials of one
    ``obstructions_resolve``, no word is keyed or matched twice, and every
    obstruction is summed onto its chain ends."""
    G = seeded_n6_basis()

    # the spec's key function runs on a word's first lookup in the
    # order's memo; a later lookup computes nothing
    keyed: Counter = Counter()
    matched: Counter = Counter()
    summed = []
    key = G.order.keys.key
    first_match = PatternAutomaton.first_match
    s_polynomial_ends = freealg._s_polynomial_ends

    def counted_key(w):
        keyed[w] += 1
        return key(w)

    def counted_first_match(self, w):
        matched[w] += 1
        return first_match(self, w)

    def counted_s_polynomial_ends(G, i, j, *sides):
        summed.append((i, j, *sides))
        return s_polynomial_ends(G, i, j, *sides)

    monkeypatch.setattr(G.order.keys, "key", counted_key)
    monkeypatch.setattr(PatternAutomaton, "first_match", counted_first_match)
    monkeypatch.setattr(freealg, "_s_polynomial_ends", counted_s_polynomial_ends)
    ok, _ = freealg.obstructions_resolve(G)

    assert ok
    assert summed == enumerate_obstructions(G)
    assert keyed and max(keyed.values()) == 1
    assert matched and max(matched.values()) == 1


def test_enumeration_keys_no_ambiguity_word():
    # the 8,732 ambiguities of the lifted gap12/0 are listed without
    # building or keying their words: the order's memo does not grow
    inputs = load_inputs()
    ideal = parse_ideal(inputs.gap_binomials(random.Random("gap12/0"), 12))
    lifted = lift_groebner(groebner_ext(ExtIdeal(ideal.ctx, list(ideal.generators), ideal.order)))
    G = FreeGroebnerCandidate(ideal.ctx, lifted.elements(), ideal.free_order)
    before = len(G.order.keys)
    assert len(enumerate_obstructions(G)) == 8732
    assert len(G.order.keys) == before
