"""Properties of the sparse reduced row echelon form against the dense
elimination in ``tests/helpers.py``."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from extlift.linalg import rref

from helpers import dense_rank


@st.composite
def sparse_systems(draw):
    """Sparse rows of small integers, as Fractions or as plain ints, over k
    columns, and a column order given as a permutation of the column
    ranks."""
    k = draw(st.integers(1, 8))
    rank_of = draw(st.permutations(range(k)))
    entries = st.dictionaries(st.integers(0, k - 1), st.integers(-3, 3), max_size=k)
    scalar = draw(st.sampled_from([Fraction, int]))
    rows = [{c: scalar(v) for c, v in row.items() if v} for row in draw(st.lists(entries, max_size=8))]
    return rows, rank_of.__getitem__, sorted(range(k), key=rank_of.__getitem__, reverse=True)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(sparse_systems())
def test_rref_against_dense_elimination(system):
    rows, key, columns = system
    reduced = rref(rows, key)
    # exact whatever the input type: plain ints give the Fraction result
    assert reduced == rref([{c: Fraction(v) for c, v in row.items()} for row in rows], key)
    assert not any(isinstance(v, float) for row in reduced for v in row.values())
    pivots = [max(row, key=key) for row in reduced]

    def prefix_rank(i):
        kept = columns[:i]
        return dense_rank([{c: v for c, v in row.items() if c in kept} for row in rows], kept)

    # a column is a pivot iff it raises the rank of the columns up to it
    expected = [c for i, c in enumerate(columns) if prefix_rank(i + 1) > prefix_rank(i)]
    assert len(reduced) == dense_rank(rows, columns)
    assert pivots == expected
    assert dense_rank(rows + reduced, columns) == len(reduced)
    for row, pivot in zip(reduced, pivots):
        assert row[pivot] == 1
        assert not any(other in row for other in pivots if other != pivot)
