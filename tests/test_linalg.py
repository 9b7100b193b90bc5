"""The fraction-free ``echelon`` and ``back_substitute`` against the
eager integer elimination they replaced (``tests/oracles.rref``), the
``Fraction`` elimination before it (``tests/oracles.fraction_rref``) and
the dense elimination in ``tests/helpers.py``: on hypothesis systems, on
seeded exterior and free-algebra corpora, and in the arithmetic they do.
Rows of rationals reach them through ``helpers.keyed_rows``, scaled to
primitive integer rows keyed by the order key, as the slice builders
make them.  The certificate ``full_rank`` is checked against ``echelon``
and against a dense rank modulo its prime: never True on rows of lower
rank, True on every full slice of the corpus, and harmless where a
coefficient meets its prime.  No entry point changes the rows it is
given, and back-substitution leaves the echelon form it reads as it was."""

import copy
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extlift import exterior
from extlift.algebra import AlgebraContext, ExtPolynomial, apply_gl_ext
from extlift.cli import EXIT_OK, main
from extlift.exterior import ExtIdeal, groebner_ext
from extlift.freealg import free_initial_ideal
from extlift.gin import random_gl
from extlift.lifting import anti_commutators, lift_groebner
from extlift.linalg import PRIME, back_substitute, echelon, full_rank
from extlift.orders import ExtOrderSpec, FreeOrderSpec
from extlift.parsing import parse_ideal

from helpers import (
    dense_rank,
    ext_monomials_of_degree,
    exterior_corpus,
    keyed_rows,
    random_ext_polynomial,
    random_free_polynomial,
    slice_oracle_corpus,
)
import oracles
from oracles import fraction_rref, keyed_fraction_rref, rref, rref_free_initial_ideal, slice_groebner_ext


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
    keyed, column = keyed_rows(rows, key)
    given_rows = copy.deepcopy(keyed)
    reduced = rref(keyed, column)
    # the echelon form has the pivots of the reduced rows
    assert [column[k] for k in sorted(echelon(keyed), reverse=True)] == [max(r, key=key) for r in reduced]
    ncols = len({c for row in rows for c in row})
    # the certificate proves nothing that is false
    assert not full_rank(keyed, ncols) or len(reduced) == ncols
    assert keyed == given_rows
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


def back_substituted(rows: list, column: dict) -> list[dict]:
    """Every row of the reduced row echelon form, each back-substituted on
    its own from one echelon form, largest pivot first: the integer row
    ``back_substitute`` returns, over its entry at the pivot, in
    Fractions."""
    pivot_rows = echelon(rows)
    reduced = []
    for k in sorted(pivot_rows, reverse=True):
        row = back_substitute(pivot_rows, k)
        reduced.append({column[c]: Fraction(v, row[k]) for c, v in row.items()})
    return reduced


@settings(derandomize=True, deadline=None, max_examples=200)
@given(sparse_systems())
def test_back_substitution_against_rref_on_hypothesis_systems(system):
    rows, key, _ = system
    keyed, column = keyed_rows(rows, key)
    reduced = back_substituted(keyed, column)
    assert reduced == rref(keyed, column)
    assert all(type(v) is Fraction for row in reduced for v in row.values())


@pytest.mark.parametrize("kind", ["deglex", "degrevlex"])
@pytest.mark.parametrize("n", range(2, 9))
def test_back_substitution_against_rref_on_exterior_slices(n, kind):
    """Every degree slice of the seeded exterior corpus, its height-100
    coordinate changes and, for n >= 4, the gap binomials."""
    for rows, column, _ in slice_oracle_corpus(n, kind):
        assert back_substituted(rows, column) == rref(rows, column)


@pytest.mark.parametrize("kind", ["deglex", "degrevlex"])
@pytest.mark.parametrize("n", range(2, 9))
def test_full_rank_against_pivots_on_exterior_slices(n, kind):
    """The certificate is never True on a slice that is not full, and on
    this corpus the prime is never unlucky: it proves every full slice."""
    full = 0
    for rows, _, ncols in slice_oracle_corpus(n, kind):
        oracle = len(echelon(rows)) == ncols
        assert full_rank(rows, ncols) == oracle
        full += oracle
    assert full > 0


@pytest.mark.parametrize("seed", range(40))
def test_full_rank_refuses_rank_deficient_rows(seed):
    """At least as many rows as columns, every column reached, but all of
    them combinations of fewer rows, some with coefficients that are
    multiples of the prime or fractions over it."""
    rng = random.Random(f"full-rank/{seed}")
    ncols = rng.randint(1, 12)
    entry = lambda: Fraction(rng.choice([rng.randint(-9, 9), rng.randint(-10**6, 10**6), PRIME]), rng.choice([1, 1, 7, PRIME]))
    basis = [{c: entry() for c in range(ncols)} for _ in range(rng.randint(0, ncols - 1))]
    rows = []
    for _ in range(ncols + rng.randint(0, 4)):
        coeffs = [rng.randint(-3, 3) for _ in basis]
        combo = {c: sum(a * b[c] for a, b in zip(coeffs, basis)) for c in range(ncols)}
        rows.append({c: v for c, v in combo.items() if v})
    rows = keyed_rows(rows, int)[0]
    assert len(echelon(rows)) < ncols
    assert not full_rank(rows, ncols)


def test_full_rank_counts_rows_divisible_by_the_prime_as_zero():
    # a row that vanishes modulo the prime is a zero row, and a
    # denominator equal to the prime scales away: 1/PRIME*x + y and
    # 1/PRIME*x + 1/2*y are the rows x + PRIME*y and 2*x + PRIME*y
    assert full_rank([{0: PRIME, 1: 2 * PRIME}, {0: 1}, {1: 1}], 2)
    assert full_rank([{0: 1, 1: PRIME}, {1: 1}], 2)
    assert full_rank([{0: 2, 1: PRIME}, {0: 1, 1: 1}], 2)
    # rank 2 over Q, but no proof modulo the prime; the certificate does
    # not divide out a row's content (3*PRIME/7*x + PRIME/2*y scaled by 14)
    assert not full_rank([{0: PRIME}, {0: 1}, {1: PRIME}], 2)
    assert not full_rank([{0: 6 * PRIME, 1: 7 * PRIME}, {0: 1, 1: 1}], 2)
    assert not full_rank([{0: PRIME, 1: 1}, {0: 2 * PRIME, 1: 5}], 2)
    # as many zero rows as there are rows beyond the rank are no obstacle
    assert full_rank([{0: PRIME}, {1: PRIME}, {0: 1}, {1: 1}, {2: 1}, {2: PRIME}], 3)
    # too few columns reached, or more rows that vanish modulo the prime
    assert not full_rank([{0: 1}, {0: 2}], 2)
    assert not full_rank([{0: PRIME, 2: PRIME}, {1: PRIME}, {0: 1, 1: 2}, {2: 1}], 3)


PRIME_FILES = {
    "prime_n3": f"vars: 3\ngenerators:\n{PRIME}*x1*x2\n",
    "inverse_prime_n3": f"vars: 3\ngenerators:\nx1*x2 + x1*x3 + 1/{PRIME}*x2*x3\n",
    "mixed_n5": f"vars: 5\ngenerators:\n{PRIME}*x1*x2 + x3*x4 - 2*x2*x5\n1/{PRIME}*x1*x3 + {PRIME}*x2*x4 + x4*x5\n",
}


@pytest.mark.parametrize("command", ["gb", "hilbert", "lift", "gin"])
@pytest.mark.parametrize("name", sorted(PRIME_FILES))
def test_prime_coefficients_match_the_rational_path(monkeypatch, capsys, tmp_path, name, command):
    """With a coefficient divisible by the prime, or one over it, every
    exterior command prints what it prints when no slice is certified and
    every slice is eliminated over Q."""
    path = tmp_path / f"{name}.ideal"
    path.write_text(PRIME_FILES[name])
    assert main([command, str(path), "--json"]) == EXIT_OK
    certified = capsys.readouterr()
    monkeypatch.setattr(exterior, "full_rank", lambda rows, ncols: False)
    assert main([command, str(path), "--json"]) == EXIT_OK
    assert capsys.readouterr() == certified


@pytest.mark.parametrize("kind", ["deglex", "degrevlex"])
@pytest.mark.parametrize("n", range(2, 8))
def test_groebner_ext_matches_fraction_oracle(monkeypatch, n, kind):
    """``groebner_ext``, with and without the certificate, against the
    slice engine of ``tests/oracles.py`` reducing every slice to n by the
    ``Fraction`` elimination."""
    ideals = list(exterior_corpus(n, kind))
    fast = [groebner_ext(I) for I in ideals]
    monkeypatch.setattr(exterior, "full_rank", lambda rows, ncols: False)
    uncertified = [groebner_ext(I) for I in ideals]
    monkeypatch.setattr(oracles, "rref", keyed_fraction_rref)
    for I, G, H in zip(ideals, fast, uncertified):
        slow = slice_groebner_ext(I)
        assert G.elements == H.elements == slow.elements
        assert G.slice_dims == H.slice_dims == slow.slice_dims
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


FRACTION_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "__neg__")


def count_fraction_ops(monkeypatch) -> list:
    """Log the name of every arithmetic operation on a Fraction from now
    until ``monkeypatch.undo()``."""
    calls = []
    for name in FRACTION_OPS:
        def counted(self, *other, _op=getattr(Fraction, name), _name=name):
            calls.append(_name)
            return _op(self, *other)

        monkeypatch.setattr(Fraction, name, counted)
    return calls


def test_elimination_does_no_fraction_arithmetic(monkeypatch):
    """Only the boundary converts: integer rows in, one Fraction per output
    entry.  Every elimination step is integer work.  The rows are a
    height-100 coordinate change of three quadrics, and every row of their
    reduced echelon form is back-substituted."""
    rng = random.Random(7)
    ctx = AlgebraContext(7)
    g = random_gl(ctx, 7, 100)
    gens = [apply_gl_ext(g, random_ext_polynomial(rng, ctx, 2)) for _ in range(3)]
    order = ExtOrderSpec()
    # the degree-4 slice of a transformed ideal, rows x_u * f as dicts
    rows = [(ExtPolynomial.monomial(u) * f).terms for f in gens for u in ext_monomials_of_degree(ctx, 2)]
    keyed, column = keyed_rows(rows, order.ext_key)
    calls = count_fraction_ops(monkeypatch)
    reduced = back_substituted(keyed, column)
    monkeypatch.undo()
    assert calls == []
    assert len(reduced) == 35
    assert reduced == rref(keyed, column)
    assert reduced == fraction_rref(rows, order.ext_key)


def quadrics_text(n: int) -> str:
    """Three seeded dense quadrics in n variables, as an ideal file."""
    rng = random.Random(f"slices/{n}")
    pairs = list(combinations(range(1, n + 1), 2))
    gens = [" + ".join(f"{rng.randint(1, 9)}*x{i}*x{j}" for i, j in pairs) for _ in range(3)]
    return f"vars: {n}\ngenerators:\n" + "".join(g + "\n" for g in gens)


@pytest.mark.parametrize("loop", ["groebner_ext", "free_initial_ideal"])
def test_slice_loops_do_no_fraction_arithmetic(monkeypatch, loop):
    """The whole slice loops, from the parsed generators to the output
    entries, do no Fraction arithmetic: the exterior loop on three
    quadrics in n=8 (slices 2 and 3 reduced, slice 4 certified), its
    elements read, and the free loop on the lifted basis of three
    quadrics in n=5 to degree 4."""
    n = 5 if loop == "free_initial_ideal" else 8
    ideal = parse_ideal(quadrics_text(n))
    I = ExtIdeal(ideal.ctx, ideal.generators, ideal.order)
    if loop == "free_initial_ideal":
        lifted = lift_groebner(groebner_ext(I))
        run = lambda: free_initial_ideal(lifted.elements(), I.ctx, lifted.order, 4)
    else:
        run = lambda: (G := exterior.groebner_ext(I), G.elements)[0]
    calls = count_fraction_ops(monkeypatch)
    result = run()
    monkeypatch.undo()
    assert calls == []
    if loop == "free_initial_ideal":
        slow = rref_free_initial_ideal(lifted.elements(), I.ctx, lifted.order, 4)
        assert result.slice_dims == slow.slice_dims
        assert result.initial == slow.initial
    else:
        assert result.slice_dims == (0, 0, 3, 24, 70, 56, 28, 8, 1)
        assert [f.degree for f in result.elements] == [2] * 3 + [3] * 9 + [4] * 23


@pytest.mark.parametrize("seed", range(30))
def test_full_rank_folding_on_adversarial_entries(seed):
    """Entries at the edges of the packed slots (0, 1, PRIME - 1, PRIME,
    2^31, 2^62 and their negatives) in up to 100 columns: the certificate
    says True exactly when the rank modulo the prime is full, and then,
    up to 20 columns, ``echelon`` finds full rank over Q."""
    rng = random.Random(f"fold/{seed}")
    ncols = rng.choice([1, 2, 3, 7, 20, 64, 100])
    values = [0, 1, PRIME - 1, PRIME, 2**31, 2**62, PRIME + 1, 2 * PRIME - 1]
    values += [-v for v in values]
    density = rng.choice([0.2, 0.6, 1.0])
    rows = []
    for _ in range(max(1, ncols + rng.randint(-1, 3))):
        row = {c: rng.choice(values) for c in range(ncols) if rng.random() < density}
        rows.append({c: v for c, v in row.items() if v})
    rows[0][rng.randrange(ncols)] = rng.choice(values[1:len(values) // 2])
    if seed % 3 == 0 and len(rows) > 1:
        # a dependent row, zero modulo the prime only in some slots
        rows[-1] = {c: rows[0].get(c, 0) - rows[1].get(c, 0) for c in range(ncols)}
        rows[-1] = {c: v for c, v in rows[-1].items() if v}
    reached = len({c for row in rows for c in row})
    certified = full_rank(rows, reached)
    assert certified == (rank_mod_prime(rows) == reached)
    if reached <= 20:
        # over Q the dense rows' entries grow too long beyond this
        assert not certified or len(echelon(rows)) == reached


def rank_mod_prime(rows: list) -> int:
    """Dense Gaussian elimination modulo ``PRIME``."""
    columns = sorted({c for row in rows for c in row})
    dense = [[row.get(c, 0) % PRIME for c in columns] for row in rows]
    rank = 0
    for col in range(len(columns)):
        pivot = next((r for r in range(rank, len(dense)) if dense[r][col]), None)
        if pivot is None:
            continue
        dense[rank], dense[pivot] = dense[pivot], dense[rank]
        inv = pow(dense[rank][col], -1, PRIME)
        for r in range(len(dense)):
            if r != rank and dense[r][col]:
                f = dense[r][col] * inv % PRIME
                dense[r] = [(a - f * b) % PRIME for a, b in zip(dense[r], dense[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("n", [5, 7])
def test_elimination_leaves_its_input_rows_unchanged(n):
    """``echelon``, ``back_substitute`` and ``full_rank`` reduce copies:
    the slice rows they are given, and the dicts holding them, are as they
    were.  Back-substituting every pivot row leaves the echelon form it
    reads as it was too, since later rows of the slice read it again."""
    for rows, _, ncols in slice_oracle_corpus(n, "deglex"):
        given_rows = copy.deepcopy(rows)
        ids = [id(row) for row in rows]
        pivot_rows = echelon(rows)
        given_echelon = copy.deepcopy(pivot_rows)
        echelon_ids = {k: id(row) for k, row in pivot_rows.items()}
        for k in sorted(pivot_rows, reverse=True):
            back_substitute(pivot_rows, k)
        assert pivot_rows == given_echelon
        assert {k: id(row) for k, row in pivot_rows.items()} == echelon_ids
        full_rank(rows, ncols)
        assert rows == given_rows
        assert [id(row) for row in rows] == ids


def test_echelon_draws_no_row_past_its_stop():
    """With ``stop``, the loop ends at that many pivots and draws no later
    row; a row reduced to 0 before that is still named dependent."""
    rows = [{3: 1, 1: 2}, {3: 2, 1: 4}, {2: 1}, {1: 1}, {1: 5}]
    drawn = []

    def lazy():
        for i, row in enumerate(rows):
            drawn.append(i)
            yield row

    dependent: list[int] = []
    assert sorted(echelon(lazy(), dependent, stop=2)) == [2, 3]
    assert drawn == [0, 1, 2] and dependent == [1]
    dependent = []
    assert sorted(echelon(rows, dependent)) == [1, 2, 3] and dependent == [1, 4]
