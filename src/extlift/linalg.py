"""Sparse exact Gaussian elimination over the rationals, the only one in
extlift: one echelon loop and the back-substitution of chosen rows,
beside a full-rank certificate.

Rows are dicts key -> nonzero int, where a column's key is its order key
(the order spec's memo, ``orders.KeyMemo``, computes each once and maps
it back): the largest key is the row's lead, so no key function runs
during elimination, and ``linalg`` never sees a column.  The row
builders hand over each row as a primitive integer multiple of the row
it stands for (``primitive``), which spans the same space.  ``echelon``
brings the rows to an echelon form, keyed by pivot: with columns keyed
by a term order, the pivots of a degree slice of an ideal are exactly
the initial-ideal slice, and their number is the rank.  On request it
also names the rows that reduced to 0, each in the span of the rows
before it, and stops at a given number of pivots: a caller that knows
the rank draws no row past the last pivot.  ``back_substitute`` reads
one row of the reduced row echelon form off an echelon form, so a caller
that needs only some of those rows pays for only those.

Elimination is fraction-free, with content removal as in Bareiss's
method.  A step cancels key c from a row, in place, by the
cross-multiplication (p/g)*row - (r/g)*pivot, where r = row[c],
p = pivot[c] and g = gcd(r, p).  The one content rule: the row's content
is divided out after a step that multiplied the row (p/g != 1), the only
kind of step that scales every entry, which saves most gcds on slices of
small coefficients.  ``echelon`` copies each incoming row once;
``back_substitute`` copies its pivot row and clears the other pivot
columns from it, largest first.  It returns that integer row and divides
nothing: the row over its lead entry is the monic row, and the caller
makes a ``Fraction`` of an entry only where a public view asks for one.
Neither changes the rows it is given.

``full_rank`` only certifies full rank, modulo the one prime ``PRIME``:
a minor that is nonzero modulo a prime is nonzero over Q (von zur Gathen
and Gerhard, *Modern Computer Algebra*, ch. 5).  It never produces a
coefficient, and where it proves nothing the caller eliminates over Q.
"""

from __future__ import annotations

from collections.abc import Iterable
from math import gcd, lcm

Row = dict
PRIME = 2**31 - 1


def primitive(terms: dict) -> Row:
    """The primitive integer multiple of a row of rationals (ints or
    Fractions): scaled by the lcm of its denominators, then divided by
    the gcd of the results.  The factor is positive, so signs stay."""
    den = lcm(*(v.denominator for v in terms.values()))
    ints = {c: v.numerator * (den // v.denominator) for c, v in terms.items()}
    g = gcd(*ints.values())
    return {c: v // g for c, v in ints.items()} if g > 1 else ints


def _eliminate(row: Row, k, pivot: Row) -> None:
    """Replace row, in place, by b*row - a*pivot, with a/b = row[k]/pivot[k]
    in lowest terms, so that k drops out; then, if b != 1, divide out its
    content."""
    a, b = row[k], pivot[k]
    g = gcd(a, b)
    if g != 1:
        a //= g
        b //= g
    if b != 1:
        for c in row:
            row[c] *= b
    for c, v in pivot.items():
        s = row.get(c)
        if s is None:
            row[c] = -a * v
        else:
            s -= a * v
            if s:
                row[c] = s
            else:
                del row[c]
    if b != 1 and row:
        g = gcd(*row.values())
        if g != 1:
            for c in row:
                row[c] //= g


def echelon(rows: Iterable[Row], dependent: list | None = None, stop: int | None = None) -> dict:
    """The map pivot key -> integer pivot row of an echelon form of the
    integer rows: its keys are the pivots of their reduced echelon form,
    and their number is the rank.  When ``dependent`` is a list, the index
    of each row that lies in the span of the rows before it is appended
    to it.  With ``stop``, the loop ends once it holds that many pivots,
    and no later row is drawn from ``rows``: given the rank of the rows,
    every later row lies in the span of those pivots."""
    pivots: dict = {}
    for i, row in enumerate(rows):
        row = dict(row)
        while row:
            lead = max(row)
            prow = pivots.get(lead)
            if prow is None:
                pivots[lead] = row
                break
            _eliminate(row, lead, prow)
        else:
            if dependent is not None:
                dependent.append(i)
            continue
        if len(pivots) == stop:
            break
    return pivots


def back_substitute(pivots: dict, lead) -> Row:
    """An integer multiple of the row with pivot ``lead`` of the reduced
    row echelon form, read off the echelon form ``pivots`` (as ``echelon``
    returns it): its pivot row cleared of every other pivot column,
    largest first, on the same keys.  Its entry at ``lead`` is nonzero, of
    either sign, and is the denominator: the reduced row is the row over
    that entry."""
    row = dict(pivots[lead])
    for k in sorted(pivots, reverse=True):
        # clearing k brings in only keys below k
        if k < lead and k in row:
            _eliminate(row, k, pivots[k])
    return row


def full_rank(rows: list[Row], ncols: int) -> bool:
    """True only if the integer rows have rank ``ncols``, the number of
    columns they can reach, over Q; False when their rank modulo ``PRIME``
    is lower.

    Each row is reduced modulo ``PRIME`` (an entry divisible by it is 0)
    and packed into one int, ``w`` bits per column.  A new pivot row is
    made monic on the whole packed int: folding each slot's bits from 2^31
    up onto its low 31 bits, as 2^31 = 1 modulo ``PRIME``, twice brings
    every slot below 2^32; one multiplication by the lead's inverse and
    two more folds leave the slots below 2^32 again.  Reducing by a pivot
    row at the top slot, ``x += (PRIME - f) * pivot``, then adds under
    2^63 to each slot, and a row meets each pivot once, so a slot of
    64 + ncols.bit_length() + 1 bits never carries.  A slot is reduced
    modulo ``PRIME`` only when read as the lead, and then cleared by
    xor-ing out its own bits.  The slots' shifts are computed once; no
    mask is, since one per slot would take memory quadratic in ``ncols``."""
    # one slot per column reached, in the order the rows first reach them
    reached = dict.fromkeys(c for row in rows for c in row)
    if len(reached) < ncols:
        return False
    w = 64 + ncols.bit_length() + 1
    at = [w * t for t in range(len(reached))]  # the shift of each slot
    shift = dict(zip(reached, at))
    unit = ((1 << w * len(at)) - 1) // ((1 << w) - 1)  # a 1 in every slot
    lo, hi = unit * PRIME, unit * ((1 << w - 31) - 1)
    spare = len(rows) - ncols  # more zero rows than this leave the rank short
    pivot_rows = {}
    for row in rows:
        x = 0
        for c, v in row.items():
            x |= (v % PRIME) << shift[c]
        while x:
            s = (x.bit_length() - 1) // w
            a = at[s]
            top = x >> a
            f = top % PRIME
            if f:
                prow = pivot_rows.get(s)
                if prow is None:
                    x = (x & lo) + (x >> 31 & hi)
                    x = (x & lo) + (x >> 31 & hi)
                    x *= pow(f, -1, PRIME)
                    x = (x & lo) + (x >> 31 & hi)
                    pivot_rows[s] = (x & lo) + (x >> 31 & hi)
                    if len(pivot_rows) == ncols:
                        return True
                    break
                x += (PRIME - f) * prow
                top = x >> a
            x ^= top << a  # clear the top slot
        else:  # the row reduced to 0
            spare -= 1
            if spare < 0:
                return False
    return False
