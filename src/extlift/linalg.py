"""Sparse exact Gaussian elimination over the rationals.

Rows are dicts column -> nonzero Fraction; columns are ordered by a key
function, largest first.  The result is a reduced row echelon form: each
row is monic at its pivot and no row contains another row's pivot column.
With columns sorted descending by a term order, the pivot set of the RREF
of a degree slice of an ideal is exactly the initial-ideal slice.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Hashable, Iterable

from .algebra import _add_into

Row = dict


def _axpy(target: Row, c: Fraction, source: Row) -> Row:
    """target - c * source, dropping zeros."""
    minus_c = -c
    return _add_into(dict(target), ((col, minus_c * v) for col, v in source.items()))


def rref(rows: Iterable[Row], key: Callable[[Hashable], object]) -> list[Row]:
    """Reduced row echelon form of sparse rows, columns descending by key.

    Returns monic rows sorted by pivot column, largest pivot first.
    """
    pivots: dict = {}
    for row in rows:
        row = dict(row)
        while row:
            lead = max(row, key=key)
            prow = pivots.get(lead)
            if prow is None:
                # clear remaining pivot columns from the tail, then insert
                for col in [c for c in row if c in pivots]:
                    row = _axpy(row, row[col], pivots[col])
                lc = row[lead]
                if lc != 1:
                    inv = Fraction(1, lc)
                    row = {c: v * inv for c, v in row.items()}
                for pcol in list(pivots):
                    existing = pivots[pcol]
                    if lead in existing:
                        pivots[pcol] = _axpy(existing, existing[lead], row)
                pivots[lead] = row
                break
            row = _axpy(row, row[lead], prow)
    return [pivots[c] for c in sorted(pivots, key=key, reverse=True)]
