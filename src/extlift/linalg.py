"""Sparse exact Gaussian elimination over the rationals, the only one in
extlift: one loop with two entry points.

Rows are dicts column -> nonzero rational, a Fraction or an int; columns
are ordered by a key function, largest first.  ``rref`` returns the
reduced row echelon form of Fractions: each row is monic at its pivot and
no row contains another row's pivot column.  ``pivots`` returns only the
pivot columns, which an echelon form already fixes, so it skips the
back-substitution; told how many columns the rows can reach, it also
stops reading rows at full rank, where every later row reduces to 0.
With columns sorted descending by a term order, the pivots of a degree
slice of an ideal are exactly the initial-ideal slice.

Elimination is fraction-free, with content removal as in Bareiss's
method: each incoming row is scaled by the lcm of its denominators and
divided by its content, so it becomes a primitive integer row.  A step
cancels column c by the cross-multiplication (p/g)*row - (r/g)*pivot,
where r = row[c], p = pivot[c] and g = gcd(r, p), and then divides out
the content.  Only ``rref``'s output rows are divided by their leads,
once, into Fractions.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable
from fractions import Fraction
from math import gcd, lcm

Row = dict


def _primitive(row: Row) -> Row:
    """row / content(row), for an integer row."""
    g = gcd(*row.values())
    if g == 1:
        return row
    return {c: v // g for c, v in row.items()}


def _eliminate(row: Row, col, pivot: Row) -> Row:
    """The primitive part of b*row - a*pivot, with a/b = row[col]/pivot[col]
    in lowest terms, so that col drops out.  b > 0 when pivot[col] > 0, so a
    pivot row reduced by another pivot row keeps its positive lead."""
    a, b = row[col], pivot[col]
    g = gcd(a, b)
    if g != 1:
        a //= g
        b //= g
    out = dict(row) if b == 1 else {c: b * v for c, v in row.items()}
    for c, v in pivot.items():
        s = out.get(c)
        if s is None:
            out[c] = -a * v
        else:
            s -= a * v
            if s:
                out[c] = s
            else:
                del out[c]
    return _primitive(out)


def _echelon(
    rows: Iterable[Row], key: Callable[[Hashable], object], reduced: bool, ncols: int | None = None
) -> tuple[dict, dict]:
    """The maps key -> column and pivot key -> primitive integer pivot row.
    The pivot rows are an echelon form, or when ``reduced`` the reduced one
    with positive leads.  Reading stops once there are ``ncols`` pivots."""
    # eliminate on the columns' keys, so that finding a lead is a max over
    # the keys and every lookup hashes a key, not a column
    column: dict = {}
    pivots: dict = {}
    for row in rows:
        den = lcm(*(v.denominator for v in row.values()))
        keyed = {}
        for c, v in row.items():
            k = key(c)
            column[k] = c
            keyed[k] = v.numerator * (den // v.denominator)
        row = _primitive(keyed)
        while row:
            lead = max(row)
            prow = pivots.get(lead)
            if prow is None:
                if reduced:
                    # clear remaining pivot columns from the tail, then
                    # clear the new pivot column from the other pivot rows
                    for col in [c for c in row if c in pivots]:
                        row = _eliminate(row, col, pivots[col])
                    if row[lead] < 0:
                        row = {c: -v for c, v in row.items()}
                    for pcol in list(pivots):
                        if lead in pivots[pcol]:
                            pivots[pcol] = _eliminate(pivots[pcol], lead, row)
                pivots[lead] = row
                break
            row = _eliminate(row, lead, prow)
        if len(pivots) == ncols:
            break
    return column, pivots


def rref(rows: Iterable[Row], key: Callable[[Hashable], object]) -> list[Row]:
    """Reduced row echelon form of sparse rows, columns descending by key.

    The key must be injective on the columns.  Returns monic rows of
    Fractions sorted by pivot column, largest pivot first.
    """
    column, pivot_rows = _echelon(rows, key, reduced=True)
    out = []
    for lead in sorted(pivot_rows, reverse=True):
        row = pivot_rows[lead]
        lc = row[lead]
        out.append({column[k]: Fraction(v, lc) for k, v in row.items()})
    return out


def pivots(rows: Iterable[Row], key: Callable[[Hashable], object], ncols: int | None = None) -> list:
    """The pivot columns of ``rref(rows, key)``, largest first, found
    without back-substitution.  Their number is the rank of the rows.

    ``ncols``, when given, is the number of columns the rows can reach.
    Once there are that many pivots every later row reduces to 0, so no
    further row is read."""
    column, pivot_rows = _echelon(rows, key, reduced=False, ncols=ncols)
    return [column[k] for k in sorted(pivot_rows, reverse=True)]
