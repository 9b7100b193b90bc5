"""Groebner bases and initial ideals of homogeneous ideals in E(V).

Because E(V) is finite dimensional and homogeneous elements commute up to
sign, a reduced minimal Groebner basis can be read off degree by degree:
row-reduce each degree slice of the ideal with columns sorted descending
by the exterior order; the pivot monomials are exactly the initial-ideal
slice, and pivots not divisible by a lower-degree initial monomial yield
new basis elements (their rows, which are already fully reduced).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .algebra import (
    AlgebraContext,
    ExtMonomial,
    ExtPolynomial,
    ext_monomials_of_degree,
)
from .linalg import rref
from .orders import ExtOrderSpec, leading_term_ext


@dataclass(frozen=True)
class ExtIdeal:
    """Homogeneous ideal of E(V), given by homogeneous generators."""

    ctx: AlgebraContext
    generators: tuple[ExtPolynomial, ...]
    order: ExtOrderSpec = ExtOrderSpec()

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
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "generators", tuple(gens))
        object.__setattr__(self, "order", order)


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


@dataclass(frozen=True)
class ExtGroebnerBasis:
    """Reduced minimal Groebner basis, with ``slice_dims[d] = dim I_d`` for
    every degree d = 0..n read off the same elimination."""

    ctx: AlgebraContext
    elements: tuple[ExtPolynomial, ...]
    order: ExtOrderSpec
    slice_dims: tuple[int, ...]

    def leading_monomials(self) -> list[ExtMonomial]:
        return [leading_term_ext(f, self.order)[0] for f in self.elements]


def ideal_degree_basis(I: ExtIdeal, d: int) -> list[ExtPolynomial]:
    """Row-reduced basis of the degree-d slice I_d.

    Left multiples of the generators suffice: homogeneous elements of E(V)
    commute up to sign, so left, right and two-sided ideals coincide.
    """
    if d < 0:
        raise ValueError("degree must be nonnegative")
    rows = []
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
                rows.append(row)
    return [ExtPolynomial._raw(r) for r in rref(rows, I.order.ext_key)]


def groebner_ext(I: ExtIdeal) -> ExtGroebnerBasis:
    """Reduced minimal Groebner basis by degree-wise elimination.  Each
    slice is reduced once; slices below the lowest generator degree are 0.
    A pivot is a new minimal generator iff no pivot below divides it."""
    elements: list[ExtPolynomial] = []
    dims: list[int] = []
    pivots: set[int] = set()  # bitmasks of the pivot monomials
    dmin = min((g.degree for g in I.generators), default=I.ctx.n + 1)
    for d in range(I.ctx.n + 1):
        rows = ideal_degree_basis(I, d) if d >= dmin else []
        dims.append(len(rows))
        below, pivots = pivots, set()
        for row in rows:
            lead, _ = leading_term_ext(row, I.order)
            pivots.add(lead.bits)
            if not any((lead.bits ^ 1 << i) in below for i in lead.support):
                elements.append(row)
    return ExtGroebnerBasis(I.ctx, tuple(elements), I.order, tuple(dims))


def initial_ideal_ext(G: ExtGroebnerBasis) -> MonomialIdealExt:
    return MonomialIdealExt(G.leading_monomials(), G.order)


def hilbert_ext(G: ExtGroebnerBasis) -> list[int]:
    """dim (E(V)/I)_d for d = 0..n, exact, for the ideal I of the basis G."""
    return [comb(G.ctx.n, d) - dim for d, dim in enumerate(G.slice_dims)]
