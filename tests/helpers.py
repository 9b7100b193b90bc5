"""Shared test utilities: independent brute-force oracles, random object
generators, and, at the end, conveniences built from library calls that
only tests use.  The oracles and generators avoid the library's own
elimination and rewriting code paths so they can serve as a cross-check."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import comb

from extlift.algebra import (
    AlgebraContext,
    ExtMonomial,
    ExtPolynomial,
    FreePolynomial,
    GLMatrix,
    Word,
    apply_gl_ext,
    delta,
)
from extlift.exterior import ExtGroebnerBasis, ExtIdeal, MonomialIdealExt, _Bitmasks, _slice_rows
from extlift.freealg import FreeGroebnerCandidate, MonomialIdealFree, dimension_check, obstructions_resolve
from extlift.gin import random_gl
from extlift.lifting import (
    _check_liftable,
    anti_commutators,
    squeezed_witness,
    stable_witness,
    strongly_stable_witness,
)
from extlift.linalg import primitive
from extlift.orders import ExtOrderSpec, FreeOrderSpec, monic_free


def ext_monomials_of_degree(ctx: AlgebraContext, d: int) -> list[ExtMonomial]:
    """All square-free monomials of degree d, in index order."""
    if d < 0 or d > ctx.n:
        return []
    return [ExtMonomial(c) for c in combinations(range(1, ctx.n + 1), d)]


def _cmp(a, b) -> int:
    return (a > b) - (a < b)


def cmp_lex(M: Word, N: Word, spec: FreeOrderSpec = FreeOrderSpec()) -> int:
    """Letter-by-letter comparison of equal-degree words."""
    if len(M) != len(N):
        raise ValueError("lexicographic comparison requires words of equal degree")
    return _cmp(tuple(map(spec.base.rank, M)), tuple(map(spec.base.rank, N)))


def cmp_ext(m: ExtMonomial, u: ExtMonomial, spec: ExtOrderSpec) -> int:
    return _cmp(spec.ext_key(m), spec.ext_key(u))


def cmp_t(M: Word, N: Word, spec: FreeOrderSpec) -> int:
    return _cmp(spec.word_key(M), spec.word_key(N))


def mul_ext(a: ExtPolynomial, b: ExtPolynomial) -> ExtPolynomial:
    """Exterior product; x_I * x_J = (-1)^inv(I,J) x_{I union J}, 0 on overlap."""
    return a * b


def gl_product(g: GLMatrix, h: GLMatrix) -> GLMatrix:
    """Matrix product g h, the composition of the two coordinate changes."""
    n = g.n
    return GLMatrix(
        [[sum(g.entries[i][k] * h.entries[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    )


def elementary(n: int, i: int, j: int) -> GLMatrix:
    """The coordinate change X_i -> X_i + X_j, other variables fixed."""
    ent = [[Fraction(1) if r == s else Fraction(0) for s in range(n)] for r in range(n)]
    ent[j - 1][i - 1] = Fraction(1)
    return GLMatrix(ent)


def dense_rank(rows, columns) -> int:
    """Row rank by dense fraction-free-ish Gaussian elimination; independent
    of extlift.linalg."""
    idx = {c: i for i, c in enumerate(columns)}
    mat = []
    for row in rows:
        vec = [Fraction(0)] * len(columns)
        for c, v in row.items():
            vec[idx[c]] = Fraction(v)
        mat.append(vec)
    rank = 0
    col = 0
    while col < len(columns) and rank < len(mat):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if piv is None:
            col += 1
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = 1 / mat[rank][col]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                f = mat[r][col] * inv
                for c in range(col, len(columns)):
                    mat[r][c] -= f * mat[rank][c]
        rank += 1
        col += 1
    return rank


def sign_by_sorting(indices) -> int:
    """Brute-force sign: sort by adjacent transpositions, count swaps; 0 on
    repeats."""
    arr = list(indices)
    swaps = 0
    changed = True
    while changed:
        changed = False
        for i in range(len(arr) - 1):
            if arr[i] > arr[i + 1]:
                arr[i], arr[i + 1] = arr[i + 1], arr[i]
                swaps += 1
                changed = True
    if any(a == b for a, b in zip(arr, arr[1:])):
        return 0
    return -1 if swaps % 2 else 1


def random_ext_polynomial(rng: random.Random, ctx: AlgebraContext, degree: int,
                          height: int = 5) -> ExtPolynomial:
    """Random nonzero homogeneous exterior polynomial."""
    monos = ext_monomials_of_degree(ctx, degree)
    while True:
        terms = [(m, rng.randint(-height, height)) for m in monos]
        p = ExtPolynomial(terms)
        if p:
            return p


def random_free_polynomial(rng: random.Random, ctx: AlgebraContext, degree: int,
                           nterms: int = 4, height: int = 5) -> FreePolynomial:
    while True:
        terms = []
        for _ in range(nterms):
            w = tuple(rng.randint(1, ctx.n) for _ in range(degree))
            c = rng.randint(-height, height)
            terms.append((w, c))
        p = FreePolynomial(terms)
        if p:
            return p


def random_ext_ideal_gens(rng: random.Random, ctx: AlgebraContext,
                          min_deg: int = 2, max_deg: int | None = None,
                          max_gens: int = 3) -> list[ExtPolynomial]:
    """Random homogeneous generators with degrees in [min_deg, max_deg]."""
    if max_deg is None:
        max_deg = max(min_deg, ctx.n - 1)
    k = rng.randint(1, max_gens)
    return [
        random_ext_polynomial(rng, ctx, rng.randint(min_deg, max_deg))
        for _ in range(k)
    ]


def random_monomial_ideal(rng: random.Random, ctx: AlgebraContext,
                          min_deg: int = 2, max_gens: int = 4,
                          order: ExtOrderSpec = ExtOrderSpec()) -> MonomialIdealExt:
    monos = []
    for _ in range(rng.randint(1, max_gens)):
        d = rng.randint(min_deg, ctx.n)
        monos.append(ExtMonomial(rng.sample(range(1, ctx.n + 1), d)))
    return MonomialIdealExt(monos, order)


def all_monomials_in(L: MonomialIdealExt, ctx: AlgebraContext):
    """Every square-free monomial of the ideal, by exhaustion."""
    out = []
    for d in range(ctx.n + 1):
        for m in ext_monomials_of_degree(ctx, d):
            if L.member(m):
                out.append(m)
    return out


def stable_closure(rng: random.Random, ctx: AlgebraContext, strongly: bool,
                   min_deg: int = 2, order: ExtOrderSpec = ExtOrderSpec()) -> MonomialIdealExt:
    """Random (strongly) stable ideal: close random generators under the
    exchange operation."""
    seed_ideal = random_monomial_ideal(rng, ctx, min_deg=min_deg, order=order)
    monos = set(seed_ideal.gens)
    frontier = list(monos)
    while frontier:
        m = frontier.pop()
        sup = m.support
        js = sup if strongly else sup[-1:]
        for j in js:
            base = m / ExtMonomial([j])
            for i in range(1, j):
                xi = ExtMonomial([i])
                if xi.bits & base.bits:
                    continue
                ex = xi * base
                if ex not in monos:
                    monos.add(ex)
                    frontier.append(ex)
    return MonomialIdealExt(monos, order)


def brute_force_U(L: MonomialIdealExt, m: ExtMonomial) -> set[ExtMonomial]:
    """Multiplier set by raw enumeration, straight from the definition."""
    sup = m.support
    lo, hi = sup[0], sup[-1]
    between = list(range(lo + 1, hi))
    m_lo_bits = m.bits & ~(1 << lo)
    m_hi_bits = m.bits & ~(1 << hi)
    out = set()
    for r in range(len(between) + 1):
        for c in combinations(between, r):
            u = ExtMonomial(c)
            # u sharing a variable with m makes both products vanish
            if u.bits & m.bits:
                continue
            p_lo = ExtMonomial.from_bits(u.bits | m_lo_bits)
            p_hi = ExtMonomial.from_bits(u.bits | m_hi_bits)
            if not L.member(p_lo) and not L.member(p_hi):
                out.add(u)
    return out


def initial_ideal_free(G: FreeGroebnerCandidate) -> MonomialIdealFree:
    """The initial ideal of a candidate that is a Groebner basis."""
    ok, _ = obstructions_resolve(G)
    if not ok:
        raise ValueError("candidate is not a Groebner basis: obstructions do not resolve")
    return MonomialIdealFree(G.leading_words, G.ctx.n, G.order)


def naive_lift(G: ExtGroebnerBasis) -> list[FreePolynomial]:
    """delta of the basis elements plus the anti-commutators, with no
    multipliers; a Groebner basis of J exactly when in(I) is squeezed."""
    _check_liftable(G)
    order = FreeOrderSpec(G.order)
    return anti_commutators(G.ctx) + [
        monic_free(delta(f), order) for f in G.elements
    ]


def is_squeezed(L: MonomialIdealExt) -> bool:
    return squeezed_witness(L)[0]


def is_stable(L: MonomialIdealExt, toward_larger: bool = False, n: int | None = None) -> bool:
    return stable_witness(L, toward_larger, n)[0]


def is_strongly_stable(L: MonomialIdealExt, toward_larger: bool = False, n: int | None = None) -> bool:
    return strongly_stable_witness(L, toward_larger, n)[0]


def gap_binomials(rng, ctx):
    """Two binomials x_a x_b + c x_c x_d with a < c < d < b."""
    out = []
    for _ in range(2):
        a, c, d, b = sorted(rng.sample(range(1, ctx.n + 1), 4))
        coeffs = [rng.choice([-1, 1]) * rng.randint(1, 3) for _ in range(2)]
        out.append(ExtPolynomial([(ExtMonomial((a, b)), coeffs[0]), (ExtMonomial((c, d)), coeffs[1])]))
    return out


def exterior_corpus(n: int, kind: str):
    """Seeded ideals of E(V): three quadrics, two cubics, and both after a
    height-100 coordinate change, as gin_ext transforms them."""
    rng = random.Random(f"rref-corpus/{n}/{kind}")
    ctx = AlgebraContext(n)
    order = ExtOrderSpec(kind)
    for degree, count in ((2, 3), (3, 2)):
        if degree > n:
            continue
        gens = [random_ext_polynomial(rng, ctx, degree) for _ in range(count)]
        g = random_gl(ctx, rng.randrange(1000), 100)
        yield ExtIdeal(ctx, gens, order)
        yield ExtIdeal(ctx, [apply_gl_ext(g, f) for f in gens], order)


def slice_oracle_corpus(n: int, kind: str):
    """Every degree slice of the exterior corpus and, for n >= 4, of two
    seeded gap binomials before and after a height-100 coordinate change,
    as (integer rows, map from key back to bitmask, number of columns)."""
    ideals = list(exterior_corpus(n, kind))
    if n >= 4:
        rng = random.Random(f"slice-oracle/{n}/{kind}")
        ctx = AlgebraContext(n)
        gens = gap_binomials(rng, ctx)
        g = random_gl(ctx, rng.randrange(1000), 100)
        ideals += [ExtIdeal(ctx, gens, ExtOrderSpec(kind)), ExtIdeal(ctx, [apply_gl_ext(g, f) for f in gens], ExtOrderSpec(kind))]
    for I in ideals:
        rows = _slice_rows(I, _Bitmasks(n))
        for d in range(n + 1):
            yield list(rows(d, [i for i, g in enumerate(I.generators) if g.degree <= d], [])), I.order.keys.column, comb(n, d)


def keyed_rows(rows, key):
    """Rows of rationals keyed by column, as ``linalg`` takes them: each
    scaled to its primitive integer multiple and keyed by ``key`` of its
    column; with the map from key back to column."""
    keyed = [{key(c): v for c, v in primitive(row).items()} for row in rows]
    return keyed, {key(c): c for row in rows for c in row}


def cone_counts_slices(dims: dict[int, int], ctx: AlgebraContext, cone: MonomialIdealFree, max_degree: int) -> bool:
    """The free ``gin``'s Hilbert-series check: ``dims``, dim J_d (0 where
    absent), equals n^d minus the cone's normal words of degree d for
    every d up to ``max_degree``."""
    return all(s == c for _, s, c in dimension_check(dims, cone.automaton(), ctx.n, max_degree))
