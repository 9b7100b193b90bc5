"""Groebner bases and initial ideals of homogeneous ideals in E(V).

Because E(V) is finite dimensional and homogeneous elements commute up to
sign, a reduced minimal Groebner basis can be read off degree by degree:
eliminate each degree slice of the ideal with columns sorted descending
by the exterior order; the pivot monomials are exactly the initial-ideal
slice, and pivots not divisible by a lower-degree initial monomial lead
new basis elements (their rows of the reduced echelon form).

One slice loop serves every reader.  It stops at the first full slice:
if I_d = E_d then I_{d+1} = E_1 I_d = E_{d+1}, so no minimal generator
lies above d, and every later slice is filled with C(n, d) and not
reduced.  Only ``groebner_ext``, whose rows ``gb`` and ``lift`` read,
back-substitutes.  ``initial_data_ext``, for readers of leads and
dimensions alone (the exterior ``hilbert``, the gin trials and the gin's
Hilbert check), asks only for the pivots, and stops reading a slice's
rows once its rank reaches C(n, d).
"""

from __future__ import annotations

from math import comb

from .algebra import (
    AlgebraContext,
    ExtMonomial,
    ExtPolynomial,
    ext_monomials_of_degree,
)
from .linalg import pivots, rref
from .orders import ExtOrderSpec, leading_term_ext


class ExtIdeal:
    """Homogeneous ideal of E(V), given by homogeneous generators."""

    __slots__ = ("ctx", "generators", "order")

    def __init__(self, ctx, generators, order=ExtOrderSpec()):
        gens = []
        for g in generators:
            if not g:
                continue
            if not g.is_homogeneous():
                raise ValueError("ideal generators must be homogeneous")
            if g.degree < 1:
                raise ValueError("constant generators are not allowed")
            for m in g.terms:
                for i in m.support:
                    ctx.check_index(i)
            gens.append(g)
        self.ctx, self.generators, self.order = ctx, tuple(gens), order


class MonomialIdealExt:
    """Square-free monomial ideal, stored as the antichain of its minimal
    generators under divisibility (= support inclusion)."""

    __slots__ = ("gens",)

    def __init__(self, monomials, order: ExtOrderSpec = ExtOrderSpec()):
        mins: list[ExtMonomial] = []
        for m in sorted(set(monomials), key=lambda m: m.degree):
            if not any(g.divides(m) for g in mins):
                mins.append(m)
        mins.sort(key=order.ext_key)
        self.gens = tuple(mins)

    def member(self, m: ExtMonomial) -> bool:
        return any(g.divides(m) for g in self.gens)

    def degree_count(self, ctx: AlgebraContext, d: int) -> int:
        """Number of degree-d square-free monomials in the ideal."""
        return sum(1 for m in ext_monomials_of_degree(ctx, d) if self.member(m))

    def __eq__(self, other) -> bool:
        return isinstance(other, MonomialIdealExt) and set(self.gens) == set(other.gens)

    def __hash__(self):
        return hash(frozenset(self.gens))

    def __iter__(self):
        return iter(self.gens)

    def __len__(self):
        return len(self.gens)

    def __repr__(self) -> str:
        return f"MonomialIdealExt({[str(m) for m in self.gens]})"


class ExtGroebnerBasis:
    """Reduced minimal Groebner basis, with ``slice_dims[d] = dim I_d`` for
    every degree d = 0..n read off the same elimination; the slices past
    the first full one are C(n, d) and were not reduced."""

    __slots__ = ("ctx", "elements", "order", "slice_dims")

    def __init__(self, ctx, elements: tuple[ExtPolynomial, ...], order: ExtOrderSpec, slice_dims: tuple[int, ...]):
        self.ctx, self.elements, self.order, self.slice_dims = ctx, elements, order, slice_dims

    def leading_monomials(self) -> list[ExtMonomial]:
        return [leading_term_ext(f, self.order)[0] for f in self.elements]


class ExtInitialData:
    """The initial ideal of an exterior ideal, with ``slice_dims`` as in
    ``ExtGroebnerBasis``, read off echelon forms without back-substitution."""

    __slots__ = ("ctx", "initial", "slice_dims")

    def __init__(self, ctx: AlgebraContext, initial: MonomialIdealExt, slice_dims: tuple[int, ...]):
        self.ctx, self.initial, self.slice_dims = ctx, initial, slice_dims


def _slice_rows(I: ExtIdeal, d: int):
    """Rows spanning I_d, as dicts: x_u * g for every generator g.

    Left multiples of the generators suffice: homogeneous elements of E(V)
    commute up to sign, so left, right and two-sided ideals coincide.
    """
    for g in I.generators:
        e = g.degree
        if e > d:
            continue
        for u in ext_monomials_of_degree(I.ctx, d - e):
            # x_u * x_m = sign * x_{u|m}; distinct m give distinct u|m
            row = {
                ExtMonomial.from_bits(u.bits | m.bits): c if s > 0 else -c
                for m, c in g.terms.items()
                if (s := u.mul_sign(m))
            }
            if row:
                yield row


def _slices(I: ExtIdeal, reduced: bool) -> tuple[list, tuple[int, ...]]:
    """The slice loop: the minimal basis elements by degree, largest lead
    first, or when not ``reduced`` only their leading monomials; and dim
    I_d for d = 0..n.  Slices below the lowest generator degree are 0, and
    each slice from there to the first full one is eliminated once.  A
    pivot is a new minimal generator iff no pivot one degree below
    divides it."""
    n, key = I.ctx.n, I.order.ext_key
    found: list = []
    dims: list[int] = []
    below: set[int] = set()  # bitmasks of the pivot monomials of slice d-1
    dmin = min((g.degree for g in I.generators), default=n + 1)
    for d in range(n + 1):
        if d < dmin:
            dims.append(0)
            continue
        full = comb(n, d)
        if reduced:
            items = [ExtPolynomial._raw(r) for r in rref(_slice_rows(I, d), key)]
            leads = [leading_term_ext(f, I.order)[0] for f in items]
        else:
            items = leads = pivots(_slice_rows(I, d), key, full)
        for lead, item in zip(leads, items):
            if not any((lead.bits ^ 1 << i) in below for i in lead.support):
                found.append(item)
        below = {lead.bits for lead in leads}
        dims.append(len(leads))
        if len(leads) == full:
            # E_1 * E_d = E_{d+1}: every later slice is full, with no new lead
            dims += [comb(n, e) for e in range(d + 1, n + 1)]
            break
    return found, tuple(dims)


def groebner_ext(I: ExtIdeal) -> ExtGroebnerBasis:
    """Reduced minimal Groebner basis, from the reduced echelon form of
    each slice up to the first full one."""
    elements, dims = _slices(I, reduced=True)
    return ExtGroebnerBasis(I.ctx, tuple(elements), I.order, dims)


def initial_data_ext(I: ExtIdeal) -> ExtInitialData:
    """The initial ideal and slice dimensions of ``groebner_ext(I)``, from
    the pivots of each slice alone."""
    leads, dims = _slices(I, reduced=False)
    return ExtInitialData(I.ctx, MonomialIdealExt(leads, I.order), dims)


def initial_ideal_ext(G: ExtGroebnerBasis) -> MonomialIdealExt:
    return MonomialIdealExt(G.leading_monomials(), G.order)


def hilbert_ext(G: ExtGroebnerBasis | ExtInitialData) -> list[int]:
    """dim (E(V)/I)_d for d = 0..n, exact, for the ideal I of the basis or
    initial data G."""
    return [comb(G.ctx.n, d) - dim for d, dim in enumerate(G.slice_dims)]
