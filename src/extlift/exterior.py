"""Groebner bases and initial ideals of homogeneous ideals in E(V).

Because E(V) is finite dimensional and homogeneous elements commute up to
sign, a reduced minimal Groebner basis can be read off degree by degree:
bring each degree slice of the ideal to echelon form with columns sorted
descending by the exterior order; the pivot monomials are exactly the
initial-ideal slice, and pivots not divisible by a lower-degree initial
monomial lead new basis elements (their rows of the reduced echelon form).

One entry point, ``groebner_ext``, serves every reader, and it handles
every slice the same way.  It stops at the first full slice: if
I_d = E_d then I_{d+1} = E_1 I_d = E_{d+1}, so no minimal generator lies
above d, and every later slice is filled with C(n, d) and not reduced.
Nor is that full slice when its rank modulo a prime is C(n, d)
(``linalg.full_rank``): then its rank over Q is too, and its reduced
echelon form is the identity.  Every other slice is brought to echelon
form once (``linalg.echelon``).  A gin trial knows every slice's rank in
advance, as dim (g.I)_d = dim I_d, and passes it as its targets: a slice
whose target is C(n, d) is full with no row built, and any other stops
at its target number of pivots, with its later rows never built.  The
initial ideal of the minimal elements' leads and the slice dimensions
are read off there.  The basis keeps the echelon form of each slice with
a new minimal lead and back-substitutes only the rows of those leads
(``linalg.back_substitute``), the first time its elements are read:
``gb`` and ``lift`` read them, as integer rows over their leads, while
the exterior ``hilbert``, the gin trials, the gin's Hilbert check and
``verify``'s dimension check read leads and dimensions alone and never
pay for the rows.

The loop builds each slice once, as the integer rows ``linalg`` takes:
every generator is scaled once to its primitive integer multiple, each
column is keyed in the order's memo (``ExtOrderSpec.keys``, bitmask to
key and back, each key made from the bitmask alone), and the sign of
x_u * x_m is one popcount of u against a mask fixed per term m
(``algebra._odd_below``).  The rows are drawn lazily, so a slice that
stops early builds none past its stop.  The loop stays on bitmasks: the
monomials of a degree, built from those one degree lower, its leads,
the pivots one degree below and the minimal-lead test over set bits.
Monomials appear only in the basis it returns, and Fractions only in
its public ``elements``.

A generator that adds no pivot to the slice of its own degree, spanned by
the generators kept below it, lies in their ideal: every reader drops it
there, so an input that lists its whole reduced basis, as the images of
a lifted basis do, costs the slices of the few that generate.
"""

from __future__ import annotations

from math import comb

from .algebra import (
    AlgebraContext,
    ExtMonomial,
    ExtPolynomial,
    _odd_below,
)
from .linalg import back_substitute, echelon, full_rank, primitive
from .orders import ExtOrderSpec, leading_term_ext


class ExtIdeal:
    """Homogeneous ideal of E(V), given by homogeneous generators."""

    __slots__ = ("ctx", "generators", "order")

    def __init__(self, ctx, generators, order: ExtOrderSpec | None = None):
        gens = []
        for g in generators:
            if not g:
                continue
            if not g.is_homogeneous():
                raise ValueError("ideal generators must be homogeneous")
            if g.degree < 1:
                raise ValueError("constant generators are not allowed")
            for m in g.terms:
                if m.bits >> ctx.n + 1:  # a variable above x_n: name the first
                    for i in m.support:
                        ctx.check_index(i)
            gens.append(g)
        self.ctx, self.generators = ctx, tuple(gens)
        self.order = ExtOrderSpec() if order is None else order


class MonomialIdealExt:
    """Square-free monomial ideal, stored as the antichain of its minimal
    generators under divisibility (= support inclusion).  Divisibility is
    tested on bitmasks: x_g divides x_b iff g & ~b == 0."""

    __slots__ = ("gens", "_bits")

    def __init__(self, monomials, order: ExtOrderSpec | None = None):
        mins: list[int] = []
        for b in sorted({m.bits for m in monomials}, key=int.bit_count):
            if not any(not g & ~b for g in mins):
                mins.append(b)
        mins.sort(key=(ExtOrderSpec() if order is None else order).keys.__getitem__)
        self.gens = tuple(ExtMonomial.from_bits(b) for b in mins)
        self._bits = tuple(mins)

    def member(self, m: ExtMonomial) -> bool:
        b = m.bits
        return any(not g & ~b for g in self._bits)

    def degree_count(self, ctx: AlgebraContext, d: int) -> int:
        """Number of degree-d square-free monomials in the ideal."""
        if d < 0:
            return 0
        gens = self._bits
        return sum(1 for b in _Bitmasks(ctx.n)[d] if any(not g & ~b for g in gens))

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
    """Reduced minimal Groebner basis of monic elements, with ``initial``,
    the initial ideal of their leads, and ``slice_dims[d] = dim I_d`` for
    d = 0..n, or up to the cap ``groebner_ext`` was given, read off the
    same slices.  Each element is the back-substituted row of its lead in
    the echelon form of its slice, or the lead itself in a slice proved
    full; the slices past the first full one are C(n, d) and not reduced.

    The basis keeps one integer view of its elements, ``multiples``: for
    each element N, the back-substituted integer row as an ExtPolynomial of
    ints, whose coefficient at its lead is the denominator d (nonzero, of
    either sign), so that the element is N / d.  ``gb`` and ``lift`` read
    only this view; ``elements``, the monic elements of ``Fraction``s, is
    made from it on first read.  Until ``multiples`` is read the basis
    keeps each new minimal lead (a bitmask) with the echelon form of its
    slice (None for a slice proved full), so a reader of ``initial`` or
    ``slice_dims`` alone never pays for the rows."""

    __slots__ = ("ctx", "order", "initial", "slice_dims", "_pending", "_multiples", "_elements")

    def __init__(self, ctx, order: ExtOrderSpec, slice_dims: tuple, pending: list):
        self.ctx, self.order, self.slice_dims = ctx, order, slice_dims
        self.initial = MonomialIdealExt([ExtMonomial.from_bits(b) for b, _ in pending], order)
        self._pending, self._multiples, self._elements = pending, None, None

    @property
    def multiples(self) -> tuple[ExtPolynomial, ...]:
        if self._multiples is None:
            keys, from_bits = self.order.keys, ExtMonomial.from_bits
            self._multiples = tuple(
                ExtPolynomial.monomial(from_bits(b))
                if rows is None
                else ExtPolynomial._raw({from_bits(keys.column[k]): v for k, v in back_substitute(rows, keys[b]).items()})
                for b, rows in self._pending
            )
            self._pending = None
        return self._multiples

    @property
    def elements(self) -> tuple[ExtPolynomial, ...]:
        if self._elements is None:
            from fractions import Fraction

            elements = []
            for N in self.multiples:
                d = leading_term_ext(N, self.order)[1]
                elements.append(ExtPolynomial._raw({m: Fraction(v, d) for m, v in N.terms.items()}))
            self._elements = tuple(elements)
        return self._elements


class _Bitmasks:
    """The bitmasks of the monomials of each degree in x1..xn, in index
    order.  Degree k is built on first use from degree k - 1, each mask
    extended by each larger variable in turn, which keeps index order."""

    __slots__ = ("n", "_by_degree")

    def __init__(self, n: int):
        self.n, self._by_degree = n, [[0]]

    def __getitem__(self, d: int) -> list[int]:
        by_degree, n = self._by_degree, self.n
        while len(by_degree) <= d:
            by_degree.append([m | 1 << i for m in by_degree[-1] for i in range(m.bit_length() or 1, n + 1)])
        return by_degree[d]


def _slice_rows(I: ExtIdeal, bitmasks: _Bitmasks):
    """The function (d, gens, starts) -> a generator of the rows spanning
    the degree-d slice of the ideal of the generators ``I.generators[i]``,
    i in gens: x_u * g for each such g and monomial x_u of degree d - deg g
    (from ``bitmasks``, in index order), in the order of gens, as integer
    rows keyed by the order's memo on bitmasks.  A generator of degree d
    gives one row, itself.  Each
    generator is scaled once to its primitive integer multiple, which
    spans the same slices.  A row is built only when it is drawn, and as
    the rows of each generator start to be drawn, the index of its first
    row is appended to ``starts``.

    Left multiples of the generators suffice: homogeneous elements of E(V)
    commute up to sign, so left, right and two-sided ideals coincide.
    """
    keys = I.order.keys
    gens = [
        (g.degree, [(b, _odd_below(b), c) for b, c in primitive({m.bits: c for m, c in g.terms.items()}).items()])
        for g in I.generators
    ]

    def rows(d: int, which: list[int], starts: list[int]):
        r = 0
        for i in which:
            starts.append(r)
            e, terms = gens[i]
            for u in bitmasks[d - e]:
                # distinct m give distinct u|m
                row = {keys[u | b]: -c if (u & odd).bit_count() & 1 else c for b, odd, c in terms if not u & b}
                if row:
                    yield row
                    r += 1

    return rows


def _minimal(b: int, below: set[int]) -> bool:
    """Whether no monomial of ``below``, one degree lower, divides x_b:
    none is x_b with one of its set bits cleared."""
    rest = b
    while rest:
        low = rest & -rest
        if b ^ low in below:
            return False
        rest ^= low
    return True


def groebner_ext(I: ExtIdeal, maxdeg: int | None = None, targets: tuple[int, ...] | None = None) -> ExtGroebnerBasis:
    """Reduced minimal Groebner basis of I, with its initial ideal and
    dim I_d for d = 0..min(maxdeg, n); with ``maxdeg``, only the part of
    each up to that degree.  Slices below the lowest generator degree are
    0, and each slice from there to the first full one is built once and
    either proved full modulo a prime or brought to echelon form once.  A
    pivot is a new minimal lead iff no pivot one degree below divides it;
    only its row is back-substituted, the first time ``elements`` is read.
    Leads stay bitmasks; only the minimal ones become monomials.

    A generator of degree d enters the slice last, after the multiples of
    the generators kept below d.  One whose row adds no pivot lies in the
    ideal of those before it, so it is dropped for good and its multiples
    are never built: the slices stay the same.

    ``targets``, when given, holds dim I_d for every d, known in advance
    (a gin trial's ideal g.I has the slice dimensions of I).  A slice whose
    target is C(n, d) is then full: no row of it is built.  Any other
    slice stops its echelon form at the target number of pivots, which
    span it, and its later rows are never built.  A slice that ends short
    of its target raises RuntimeError: the targets were wrong."""
    n, keys = I.ctx.n, I.order.keys
    top = n if maxdeg is None else min(maxdeg, n)
    bitmasks = _Bitmasks(n)
    slice_rows = _slice_rows(I, bitmasks)
    degrees = [g.degree for g in I.generators]
    pending: list = []  # (bitmask of a new minimal lead, echelon form of its slice or None)
    dims: list[int] = []
    kept: list[int] = []  # the generators below d that are kept
    below: set[int] = set()  # bitmasks of the pivot monomials of slice d-1
    dmin = min(degrees, default=n + 1)
    for d in range(top + 1):
        if d < dmin:
            dims.append(0)
            continue
        full = comb(n, d)
        target = None if targets is None else targets[d]
        new = [i for i, e in enumerate(degrees) if e == d]
        starts: list[int] = []
        rows = slice_rows(d, kept + new, starts)
        if target is None:
            rows = list(rows)
            proved_full = len(rows) >= full and full_rank(rows, full)
        else:
            proved_full = target == full
        if proved_full:
            # the reduced echelon form of a full slice is the identity
            pivot_rows, leads = None, bitmasks[d]
        else:
            dependent: list[int] = []
            pivot_rows = echelon(rows, dependent, target)
            if target is not None and len(pivot_rows) < target:
                raise RuntimeError(f"slice {d} has rank {len(pivot_rows)}, short of its target {target}")
            leads = [keys.column[k] for k in pivot_rows]
            # a new generator is kept iff its one row was drawn and added a pivot
            zero = set(dependent)
            new = [i for i, r in zip(new, starts[len(kept):]) if r not in zero]
        kept += new
        found = sorted([b for b in leads if _minimal(b, below)], key=keys.__getitem__, reverse=True)
        pending += [(b, pivot_rows) for b in found]
        dims.append(len(leads))
        if len(leads) == full:
            # E_1 * E_d = E_{d+1}: every later slice is full, with no new lead
            dims += [comb(n, e) for e in range(d + 1, top + 1)]
            break
        below = set(leads)
    return ExtGroebnerBasis(I.ctx, I.order, tuple(dims), pending)


def hilbert_ext(G: ExtGroebnerBasis) -> list[int]:
    """dim (E(V)/I)_d for d = 0..n, or up to the cap G was computed to,
    exact, for the ideal I of the basis G."""
    return [comb(G.ctx.n, d) - dim for d, dim in enumerate(G.slice_dims)]
