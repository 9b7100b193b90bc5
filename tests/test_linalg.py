"""The fraction-free ``rref`` and ``pivots`` against the ``Fraction``
elimination they replaced (``tests/oracles.fraction_rref``) and against
the dense elimination in ``tests/helpers.py``: on hypothesis systems, on
seeded exterior and free-algebra corpora, and in the arithmetic they do.
``pivots`` told the column count must give the same answer and read no
row after the rank reaches it."""

import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extlift import exterior
from extlift.algebra import AlgebraContext, ExtPolynomial, apply_gl_ext, ext_monomials_of_degree
from extlift.exterior import groebner_ext
from extlift.freealg import free_initial_ideal, ideal_slice_rows
from extlift.gin import random_gl
from extlift.lifting import anti_commutators
from extlift.linalg import pivots, rref
from extlift.orders import ExtOrderSpec, FreeOrderSpec

from helpers import dense_rank, exterior_corpus, random_ext_polynomial, random_free_polynomial
from oracles import fraction_rref, rref_free_initial_ideal


@st.composite
def sparse_systems(draw):
    """Sparse rows over k columns and a column order given as a permutation
    of the column ranks.  Entries are plain ints, integral Fractions or
    Fractions with denominators up to 12, with numerators up to 10^6 in
    size; duplicate rows and combinations of earlier rows, which reduce to
    zero, are mixed in."""
    k = draw(st.integers(1, 8))
    rank_of = draw(st.permutations(range(k)))
    kind = draw(st.sampled_from(["int", "integral", "rational"]))
    numerator = st.one_of(st.integers(-3, 3), st.integers(-10**6, 10**6))
    denominator = st.integers(1, 12) if kind == "rational" else st.just(1)
    entry = st.builds(lambda p, q: p if kind == "int" else Fraction(p, q), numerator, denominator)
    entries = st.dictionaries(st.integers(0, k - 1), entry, max_size=k)
    rows = [{c: v for c, v in row.items() if v} for row in draw(st.lists(entries, max_size=8))]
    if rows:
        index = st.integers(0, len(rows) - 1)
        for i in draw(st.lists(index, max_size=2)):
            rows.append(dict(rows[i]))
        for i, j, a, b in draw(st.lists(st.tuples(index, index, st.integers(-3, 3), st.integers(-3, 3)), max_size=2)):
            combo = {c: a * rows[i].get(c, 0) + b * rows[j].get(c, 0) for c in rows[i].keys() | rows[j].keys()}
            rows.append({c: v for c, v in combo.items() if v})
        rows = draw(st.permutations(rows))
    return rows, rank_of.__getitem__, sorted(range(k), key=rank_of.__getitem__, reverse=True)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(sparse_systems())
def test_rref_against_dense_elimination(system):
    rows, key, columns = system
    reduced = rref(rows, key)
    # the echelon-only entry point finds the pivots of the reduced rows
    assert pivots(rows, key) == [max(r, key=key) for r in reduced]
    assert_rank_stop(rows, key, len({c for row in rows for c in row}))
    # the same rows, in the same order, as the Fraction elimination
    assert reduced == fraction_rref([{c: Fraction(v) for c, v in row.items()} for row in rows], key)
    assert all(type(v) is Fraction for row in reduced for v in row.values())
    leads = [max(row, key=key) for row in reduced]

    def prefix_rank(i):
        kept = columns[:i]
        return dense_rank([{c: v for c, v in row.items() if c in kept} for row in rows], kept)

    # a column is a pivot iff it raises the rank of the columns up to it
    expected = [c for i, c in enumerate(columns) if prefix_rank(i + 1) > prefix_rank(i)]
    assert len(reduced) == dense_rank(rows, columns)
    assert leads == expected
    assert dense_rank(rows + reduced, columns) == len(reduced)
    for row, pivot in zip(reduced, leads):
        assert row[pivot] == 1
        assert not any(other in row for other in leads if other != pivot)


def rows_until_full(rows: list, key, ncols: int):
    """The rows as a generator that fails if a row is read after the
    shortest prefix of rank ``ncols``."""
    if len(pivots(rows, key)) < ncols:
        yield from rows
        return
    lo, hi = 0, len(rows)
    while lo < hi:
        mid = (lo + hi) // 2
        if len(pivots(rows[:mid], key)) == ncols:
            hi = mid
        else:
            lo = mid + 1
    yield from rows[:lo]
    raise AssertionError(f"row {lo} read after the rank reached {ncols}")


def assert_rank_stop(rows: list, key, ncols: int) -> None:
    """``pivots`` told that the rows reach ``ncols`` columns returns what
    it returns untold, and stops reading at full rank (when rows without
    columns are all there is, it reads one of them)."""
    expected = pivots(rows, key)
    assert pivots(rows, key, ncols) == expected
    if ncols:
        assert pivots(rows_until_full(rows, key, ncols), key, ncols) == expected


@pytest.mark.parametrize("kind", ["deglex", "degrevlex"])
@pytest.mark.parametrize("n", range(2, 8))
def test_pivots_rank_stop_on_exterior_slices(n, kind):
    full = 0
    for I in exterior_corpus(n, kind):
        for d in range(n + 1):
            rows = list(exterior._slice_rows(I, d))
            assert_rank_stop(rows, I.order.ext_key, comb(n, d))
            full += len(pivots(rows, I.order.ext_key)) == comb(n, d) > 0
    assert full > 0


@pytest.mark.parametrize("kind", ["deglex", "degrevlex"])
@pytest.mark.parametrize("n", range(2, 8))
def test_groebner_ext_matches_fraction_oracle(monkeypatch, n, kind):
    ideals = list(exterior_corpus(n, kind))
    fast = [groebner_ext(I) for I in ideals]
    monkeypatch.setattr(exterior, "rref", fraction_rref)
    for I, G in zip(ideals, fast):
        slow = groebner_ext(I)
        assert G.elements == slow.elements
        assert G.slice_dims == slow.slice_dims
        assert all(type(c) is Fraction for f in G.elements for _, c in f)


def free_corpus():
    """Seeded free ideals in n = 2, 3 to degree 4, half of them with the
    anti-commutators added, then the anti-commutators alone for n <= 5 to
    degree 5."""
    for seed in range(8):
        rng = random.Random(f"rref-free/{seed}")
        n = rng.choice([2, 3])
        ctx = AlgebraContext(n)
        order = FreeOrderSpec(ExtOrderSpec(rng.choice(["deglex", "degrevlex"])))
        gens = [random_free_polynomial(rng, ctx, rng.randint(1, 3), nterms=3, height=rng.choice([5, 10**6])) for _ in range(3)]
        if seed % 2:
            gens += anti_commutators(ctx)
        yield pytest.param(gens, ctx, order, 4, id=str(seed))
    for n in range(2, 6):
        for kind in ("deglex", "degrevlex"):
            ctx = AlgebraContext(n)
            yield pytest.param(anti_commutators(ctx), ctx, FreeOrderSpec(ExtOrderSpec(kind)), 5, id=f"anticomm-n{n}-{kind}")


@pytest.mark.parametrize("gens, ctx, order, maxdeg", free_corpus())
def test_free_initial_ideal_matches_fraction_oracle(gens, ctx, order, maxdeg):
    fast = free_initial_ideal(gens, ctx, order, maxdeg)
    slow = rref_free_initial_ideal(gens, ctx, order, maxdeg)
    assert fast.initial == slow.initial
    assert fast.slice_dims == slow.slice_dims


@pytest.mark.parametrize("gens, ctx, order, maxdeg", free_corpus())
def test_pivots_rank_stop_on_free_slices(gens, ctx, order, maxdeg):
    for d in range(maxdeg + 1):
        assert_rank_stop(ideal_slice_rows(gens, ctx, d), order.word_key, ctx.n**d)


def test_elimination_does_no_fraction_arithmetic(monkeypatch):
    """Only the boundary converts: numerators and denominators in, one
    Fraction per output entry.  Every elimination step is integer work."""
    rng = random.Random(7)
    ctx = AlgebraContext(7)
    g = random_gl(ctx, 7, 100)
    gens = [apply_gl_ext(g, random_ext_polynomial(rng, ctx, 2)) for _ in range(3)]
    order = ExtOrderSpec()
    # the degree-4 slice of a transformed ideal, rows x_u * f as dicts
    rows = [(ExtPolynomial.monomial(u) * f).terms for f in gens for u in ext_monomials_of_degree(ctx, 2)]
    calls = []
    for name in ("__add__", "__sub__", "__mul__", "__truediv__"):
        def counted(self, other, _op=getattr(Fraction, name), _name=name):
            calls.append(_name)
            return _op(self, other)

        monkeypatch.setattr(Fraction, name, counted)
    reduced = rref(rows, order.ext_key)
    monkeypatch.undo()
    assert calls == []
    assert len(reduced) == 35
    assert reduced == fraction_rref(rows, order.ext_key)
