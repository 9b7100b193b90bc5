"""Lifting a minimal exterior Groebner basis to a minimal Groebner basis of
its preimage in the free associative algebra.

The preimage J of an exterior ideal I is generated by the anti-commutators
(the defining relations of E(V)) together with delta of the generators of
I.  For I generated in degrees >= 2 the minimal lifted basis consists of
the anti-commutators plus delta(u * f) for each basis element f and each
square-free multiplier u drawn from the gap of the leading monomial of f;
the multiplier set collapses to {1} exactly when the initial ideal is
squeezed, in which case the naive lift delta(G) already works.

The lift runs on the basis's integer rows (``ExtGroebnerBasis.multiples``)
and writes each lifted element as signed entries of its source row over
that row's denominator: it makes no ``Fraction`` until ``lifted`` is read.
"""

from __future__ import annotations

from itertools import combinations

from .algebra import (
    AlgebraContext,
    ExtMonomial,
    ExtPolynomial,
    FreePolynomial,
    Word,
    _odd_below,
    anti_commutator_leading_words,
    anti_commutators,
    delta,
)
from .exterior import ExtGroebnerBasis, MonomialIdealExt
from .orders import ExtOrderSpec, FreeOrderSpec, leading_term_ext


def _multipliers(L: MonomialIdealExt, m: ExtMonomial, degrees) -> list[ExtMonomial]:
    """The multipliers of m of the given degrees: square-free u over the
    variables strictly between the extreme indices of m and outside it,
    with u*(m/x_min) and u*(m/x_max) both outside L."""
    sup = m.support
    m_lo, m_hi = m / ExtMonomial(sup[:1]), m / ExtMonomial(sup[-1:])
    gap = [v for v in range(sup[0] + 1, sup[-1]) if v not in sup]
    candidates = (ExtMonomial(c) for r in degrees for c in combinations(gap, r))
    return [u for u in candidates if not L.member(u * m_lo) and not L.member(u * m_hi)]


def compute_U(L: MonomialIdealExt, m: ExtMonomial) -> set[ExtMonomial]:
    """The multipliers of m of every degree.

    Candidates sharing a variable with m are excluded (u*m would vanish and
    cannot be lifted).  Contains 1 whenever m is a minimal generator.
    """
    if m.degree < 2:
        raise ValueError("multiplier set is defined for monomials of degree >= 2")
    if not L.member(m):
        raise ValueError(f"{m} does not lie in the monomial ideal")
    # the gap holds fewer than hi - lo variables
    return set(_multipliers(L, m, range(m.support[-1] - m.support[0])))


def squeezed_witness(L: MonomialIdealExt) -> tuple[bool, tuple[ExtMonomial, ExtMonomial] | None]:
    """(True, None) if every minimal generator has multiplier set {1};
    otherwise (False, (generator, smallest nontrivial multiplier)).

    A multiplier set is closed under division, because L is an ideal.  So
    it is nontrivial iff it holds a variable, and its smallest nontrivial
    element is its smallest variable: only the variables are tested."""
    key = ExtOrderSpec().ext_key
    for m in L.gens:
        if m.degree < 2:
            raise ValueError("squeezed predicate requires generators of degree >= 2")
        variables = _multipliers(L, m, [1])
        if variables:
            return False, (m, min(variables, key=key))
    return True, None


def _exchange_ok(L: MonomialIdealExt, m: ExtMonomial, i: int, j: int) -> bool:
    """Is x_i (m / x_j) in L, for x_j dividing m?  On bitmasks; a
    vanishing exchange, x_i already in m / x_j, belongs to every ideal."""
    quotient = m.bits & ~(1 << j)
    return bool(quotient >> i & 1) or L.member(ExtMonomial.from_bits(quotient | 1 << i))


def _exchange_targets(j: int, toward_larger: bool, n: int | None) -> range:
    if not toward_larger:
        return range(1, j)
    if n is None:
        raise ValueError("the toward_larger direction needs the ambient variable count n")
    return range(j + 1, n + 1)


def stable_witness(
    L: MonomialIdealExt, toward_larger: bool = False, n: int | None = None
) -> tuple[bool, tuple[ExtMonomial, int, int] | None]:
    """Exchange property at the extreme index, checked on the minimal
    generators (which suffices: any m in L is a generator times a
    square-free multiplier, and the exchange factors through it).

    The default direction replaces the maximal variable of m by a
    smaller one; ``toward_larger`` mirrors this (replace the minimal
    variable by a larger one, up to the ambient count n), the variant
    satisfied by generic initial ideals when the term order ranks x1
    smallest.  The two variants are images of each other under
    reversing the variable indices.
    """
    for m in L.gens:
        sup = m.support
        if not sup:
            continue
        j = sup[0] if toward_larger else sup[-1]
        for i in _exchange_targets(j, toward_larger, n):
            if not _exchange_ok(L, m, i, j):
                return False, (m, i, j)
    return True, None


def strongly_stable_witness(
    L: MonomialIdealExt, toward_larger: bool = False, n: int | None = None
) -> tuple[bool, tuple[ExtMonomial, int, int] | None]:
    for m in L.gens:
        for j in m.support:
            for i in _exchange_targets(j, toward_larger, n):
                if not _exchange_ok(L, m, i, j):
                    return False, (m, i, j)
    return True, None


class LiftedBasis:
    """Minimal Groebner basis of the preimage ideal J: the anti-commutators,
    the lifts of the exterior basis, and in(J)'s minimal generators.

    The lifts are kept as one integer view, ``multiples``: for each lifted
    element, (m, u, N, d) with m the lead of the exterior element f it
    lifts, u its multiplier, and N a FreePolynomial of ints over the
    denominator d of f's integer row, so that the lifted element is N / d.
    ``lift`` reads only this view; ``lifted``, the triples (f, multiplier
    u, lifted element) of ``Fraction`` polynomials, is made from it on
    first read."""

    __slots__ = ("ctx", "anti_commutators", "multiples", "order", "initial_mingens", "_basis", "_lifted")

    def __init__(self, ctx: AlgebraContext, anti_commutators, basis: ExtGroebnerBasis, multiples,
                 order: FreeOrderSpec, initial_mingens):
        self.ctx, self.anti_commutators, self.multiples = ctx, anti_commutators, multiples
        self.order, self.initial_mingens = order, initial_mingens
        self._basis, self._lifted = basis, None

    @property
    def lifted(self) -> tuple[tuple[ExtPolynomial, ExtMonomial, FreePolynomial], ...]:
        if self._lifted is None:
            from fractions import Fraction

            G = self._basis
            source = {leading_term_ext(f, G.order)[0]: f for f in G.elements}
            self._lifted = tuple(
                (source[m], u, FreePolynomial._raw({w: Fraction(v, d) for w, v in N.terms.items()}))
                for m, u, N, d in self.multiples
            )
        return self._lifted

    def elements(self) -> list[FreePolynomial]:
        return list(self.anti_commutators) + [F for _, _, F in self.lifted]


def check_natural_ranking(order: ExtOrderSpec, n: int, caller: str = "the lift") -> None:
    """The lift reads leading words and multiplier gaps off the variable
    indices, so it holds only under the natural ranking x1 < ... < xn, as
    do the exchanges and the squeezed test.  The refusal names ``caller``."""
    if order.ranking is not None and order.ranking != tuple(range(1, n + 1)):
        varorder = ",".join(str(v) for v in sorted(range(1, n + 1), key=order.rank))
        raise ValueError(
            f"{caller} requires the natural variable ranking x1 < ... < x{n}; "
            f"got varorder {varorder}"
        )


def _check_liftable(G: ExtGroebnerBasis) -> None:
    check_natural_ranking(G.order, G.ctx.n)
    # the leads are the initial ideal's minimal generators
    if any(m.degree < 2 for m in G.initial.gens):
        raise ValueError(
            "cannot lift a basis with a degree-1 element: with a linear "
            "generator the lifted set is not minimal (for I = (x1) in two "
            "variables the preimage is already generated by X1 and X2^2, "
            "making two anti-commutators redundant)"
        )


def lift_groebner(G: ExtGroebnerBasis) -> LiftedBasis:
    """Lift of a reduced minimal exterior Groebner basis, monic elements
    all of degree >= 2, as ``groebner_ext`` returns it.

    Each lift, delta(u * f) made monic, is written off f's integer row N
    over its denominator d = N[m], m the lead, with no division: x_u * x_b
    is (-1)^popcount(u & _odd_below(b)) x_{u|b}, or 0 when u meets b, and
    x_u * f has lead x_{u|m} with the sign s of x_u * x_m, as f is monic.
    So the lift is delta of the sum of s (-1)^popcount(u & _odd_below(b))
    N[b] x_{u|b}, over d."""
    _check_liftable(G)
    order = FreeOrderSpec(G.order)
    multiples = []
    init: list[Word] = list(anti_commutator_leading_words(G.ctx))
    for N in G.multiples:
        m, d = leading_term_ext(N, G.order)
        terms = [(b.bits, _odd_below(b.bits), c) for b, c in N.terms.items()]
        for u in sorted(compute_U(G.initial, m), key=G.order.ext_key):
            ub = u.bits
            if ub:
                s = (ub & _odd_below(m.bits)).bit_count()
                prod = ExtPolynomial._raw({
                    ExtMonomial.from_bits(ub | b): -c if ((ub & odd).bit_count() + s) & 1 else c
                    for b, odd, c in terms
                    if not ub & b
                })
            else:
                prod = N
            multiples.append((m, u, delta(prod), d))
            init.append((u * m).support)
    return LiftedBasis(
        ctx=G.ctx,
        anti_commutators=tuple(anti_commutators(G.ctx)),
        basis=G,
        multiples=tuple(multiples),
        order=order,
        initial_mingens=tuple(init),
    )
