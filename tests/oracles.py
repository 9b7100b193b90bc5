"""Slow reference implementations kept as differential oracles for the
fast paths in ``extlift``.  Nothing in the library imports this module."""

from __future__ import annotations

import heapq
import re
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Hashable, Iterable

from extlift.algebra import (
    MAX_VARS,
    AlgebraContext,
    ExtMonomial,
    ExtPolynomial,
    FreePolynomial,
    GLMatrix,
    Word,
    _add_into,
    _columns,
    anti_commutator_leading_words,
    apply_gl,
    delta,
    pi,
    words_of_degree,
)
from extlift.exterior import ExtIdeal, MonomialIdealExt
from extlift.freealg import (
    FreeGroebnerCandidate,
    FreeInitialData,
    MonomialIdealFree,
    Obstruction,
    PatternAutomaton,
    _reduce,
    normal_word_counts,
)
from extlift.lifting import compute_U
from extlift.linalg import _eliminate, primitive
from extlift.orders import ExtOrderSpec, FreeOrderSpec, leading_term_ext, leading_term_free, monic_free
from extlift.parsing import MAX_FREE_TERM_LETTERS, ParseError
from extlift.parsing import _tokenize as parse_tokens

from helpers import elementary, ext_monomials_of_degree, keyed_rows

ONE_EXT = ExtMonomial()


def _axpy(target: dict, c: Fraction, source: dict) -> dict:
    """target - c * source, dropping zeros."""
    minus_c = -c
    return _add_into(dict(target), ((col, minus_c * v) for col, v in source.items()))


def fraction_rref(rows: Iterable[dict], key: Callable[[Hashable], object]) -> list[dict]:
    """``linalg.rref`` with every step a ``Fraction`` operation: reduced
    row echelon form of sparse rows, columns descending by key.

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


def rref(rows: Iterable[dict], column: dict) -> list[dict]:
    """The eager reduced row echelon form that ``linalg`` computed before it
    back-substituted only chosen rows: each new pivot row is cleared of
    the earlier pivot columns and then clears its own column from every
    other pivot row, each step by ``linalg._eliminate``.  Integer rows
    keyed by order key in; monic rows of Fractions keyed by
    ``column[key]`` out, sorted by pivot, largest first."""
    pivot_rows: dict = {}
    for row in rows:
        row = dict(row)
        while row:
            lead = max(row)
            prow = pivot_rows.get(lead)
            if prow is None:
                # clear remaining pivot columns from the tail, then
                # clear the new pivot column from the other pivot rows
                for k in [k for k in row if k in pivot_rows]:
                    _eliminate(row, k, pivot_rows[k])
                if row[lead] < 0:
                    for k in row:
                        row[k] = -row[k]
                for other in pivot_rows.values():
                    if lead in other:
                        _eliminate(other, lead, row)
                pivot_rows[lead] = row
                break
            _eliminate(row, lead, prow)
    out = []
    for lead in sorted(pivot_rows, reverse=True):
        row = pivot_rows[lead]
        lc = row[lead]
        out.append({column[k]: Fraction(v, lc) for k, v in row.items()})
    return out


def keyed_fraction_rref(rows: Iterable[dict], column: dict) -> list[dict]:
    """``fraction_rref`` in the place of ``linalg.rref``: the integer rows
    keyed by order key go in as rows of Fractions keyed by ``column[key]``."""
    key = {c: k for k, c in column.items()}.__getitem__
    return fraction_rref([{column[k]: Fraction(v) for k, v in row.items()} for row in rows], key)


def fraction_slice_rows(gens: list[FreePolynomial], ctx: AlgebraContext, d: int) -> list[dict[Word, Fraction]]:
    """The free slice rows as ``freealg.ideal_slice_rows`` built them
    before they became integer rows: all word multiples A g B with
    |A| + deg g + |B| = d, as dicts word -> Fraction."""
    rows = []
    for g in gens:
        if not g:
            continue
        e = g.degree
        if e > d:
            continue
        for la in range(d - e + 1):
            rights = words_of_degree(ctx, d - e - la)
            for A in words_of_degree(ctx, la):
                for B in rights:
                    rows.append({A + w + B: c for w, c in g.terms.items()})
    return rows


def subword_divides(a: Word, b: Word) -> bool:
    """Does a occur as a contiguous factor of b?"""
    la = len(a)
    return any(b[p:p + la] == a for p in range(len(b) - la + 1))


def scan_minimal_words(words, order: FreeOrderSpec) -> tuple[Word, ...]:
    """``MonomialIdealFree(words, n, order).gens`` as it minimalised them
    before it looked factors up in a set: each word, shortest first,
    scanned against every generator kept so far."""
    mins: list[Word] = []
    for w in sorted(set(tuple(w) for w in words), key=len):
        if not any(subword_divides(g, w) for g in mins):
            mins.append(w)
    return tuple(sorted(mins, key=order.word_key))


def _multiset_key(spec: ExtOrderSpec, letters: Word) -> tuple[int, ...]:
    # deglex: ranks descending; degrevlex: ranks ascending
    return tuple(sorted((spec.rank(i) for i in letters), reverse=spec.kind == "deglex"))


# The integer keys before they took one byte per rank: one DIGIT_BITS-bit
# digit per rank.  Ranks lie in 1..MAX_VARS, so no digit is 0 and a key
# with more digits is larger.
DIGIT_BITS = MAX_VARS.bit_length()


def _digits(ranks) -> int:
    k = 0
    for r in ranks:
        k = k << DIGIT_BITS | r
    return k


def digit_word_key(spec: FreeOrderSpec, w: Word) -> int:
    """``FreeOrderSpec.word_key`` as it was before it read one byte per
    rank: the multiset key, then the ranks of the letters left to right,
    one ``DIGIT_BITS``-bit digit each."""
    return _digits(_multiset_key(spec.base, w) + tuple(spec.base.rank(i) for i in w))


def tuple_ext_key(spec: ExtOrderSpec, m: ExtMonomial) -> tuple:
    """The exterior order as a tuple key: degree, then the multiset key of
    the support."""
    return (m.degree, _multiset_key(spec, m.support))


def digit_ext_key(spec: ExtOrderSpec, bits: int) -> int:
    """``ExtOrderSpec.bits_key`` as it was before keys came from the
    bitmask alone: the support of the monomial, its ranks sorted by the
    multiset key, one ``DIGIT_BITS``-bit digit per rank."""
    return _digits(_multiset_key(spec, ExtMonomial.from_bits(bits).support))


def tuple_word_key(spec: FreeOrderSpec, w: Word) -> tuple:
    """The word order as a tuple key: degree, the multiset key of the
    letters, then the ranks of the letters left to right."""
    return (len(w), _multiset_key(spec.base, w), tuple(spec.base.rank(i) for i in w))


# The exterior slice engine before it stopped at the first full slice and
# before its leads-only readers skipped back-substitution: every slice up
# to n is reduced in full.

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
    return [ExtPolynomial._raw(r) for r in rref(*keyed_rows(rows, I.order.ext_key))]


class SliceBasis:
    """A basis as ``slice_groebner_ext`` computes it, with the attributes
    of ``exterior.ExtGroebnerBasis`` that ``lift_groebner`` and
    ``hilbert_ext`` read, all computed up front."""

    __slots__ = ("ctx", "order", "elements", "initial", "slice_dims")

    def __init__(self, ctx, order, elements: tuple, initial: MonomialIdealExt, slice_dims: tuple):
        self.ctx, self.order, self.elements = ctx, order, elements
        self.initial, self.slice_dims = initial, slice_dims


def slice_groebner_ext(I: ExtIdeal) -> SliceBasis:
    """Reduced minimal Groebner basis by degree-wise elimination.  Each
    slice is reduced once; slices below the lowest generator degree are 0.
    A pivot is a new minimal generator iff no pivot below divides it; the
    initial ideal is read off the elements' leading terms."""
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
    initial = MonomialIdealExt([leading_term_ext(f, I.order)[0] for f in elements], I.order)
    return SliceBasis(I.ctx, I.order, tuple(elements), initial, tuple(dims))


def scan_groebner_elements(I: ExtIdeal) -> list[ExtPolynomial]:
    """``groebner_ext(I).elements`` by testing every pivot against all
    earlier minimal leading monomials."""
    elements, leads = [], []
    for d in range(I.ctx.n + 1):
        for row in ideal_degree_basis(I, d):
            lead, _ = leading_term_ext(row, I.order)
            if not any(m.divides(lead) for m in leads):
                elements.append(row)
                leads.append(lead)
    return elements


def automaton_free_initial(
    gens: list[FreePolynomial], ctx: AlgebraContext, order: FreeOrderSpec, max_degree: int
) -> list[Word]:
    """The minimal generators of ``free_initial_ideal``, testing every pivot
    against the automaton of the lower-degree minimal generators."""
    key = order.word_key
    mingens: list[Word] = []
    dmin = min((g.degree for g in gens if g), default=max_degree + 1)
    for d in range(dmin, max_degree + 1):
        current = MonomialIdealFree(mingens, ctx.n, order) if mingens else None
        for row in fraction_rref(fraction_slice_rows(gens, ctx, d), key):
            lead = max(row, key=key)
            if current is None or not current.member(lead):
                mingens.append(lead)
    return mingens


def rref_free_initial_ideal(
    gens: list[FreePolynomial],
    ctx: AlgebraContext,
    order: FreeOrderSpec,
    max_degree: int,
) -> FreeInitialData:
    """``free_initial_ideal`` reading the leads of fully reduced slices, as
    it did before it asked ``linalg.pivots`` for them, with every step of
    the elimination a ``Fraction`` operation."""
    key = order.word_key
    mingens: list[Word] = []
    dims: dict[int, int] = {}
    pivots: set[Word] = set()
    dmin = min((g.degree for g in gens if g), default=max_degree + 1)
    for d in range(dmin, max_degree + 1):
        rows = fraction_rref(fraction_slice_rows(gens, ctx, d), key)
        dims[d] = len(rows)
        below, pivots = pivots, set()
        for row in rows:
            lead = max(row, key=key)
            pivots.add(lead)
            if lead[1:] not in below and lead[:-1] not in below:
                mingens.append(lead)
    return FreeInitialData(MonomialIdealFree(mingens, ctx.n, order), dims)


def subword_offsets(a: Word, b: Word) -> list[int]:
    """Every offset at which a occurs as a contiguous factor of b."""
    return [p for p in range(len(b) - len(a) + 1) if b[p:p + len(a)] == a]


def naive_first_match(patterns: list[Word], word: Word) -> tuple[int, int] | None:
    """Linear-scan reference for ``PatternAutomaton.first_match``: the
    earliest end offset, then the longest pattern ending there, then the
    lowest index."""
    for end in range(1, len(word) + 1):
        hits = [(-len(p), idx) for idx, p in enumerate(patterns) if len(p) <= end and word[end - len(p):end] == p]
        if hits:
            return min(hits)[1], end
    return None


def rescan_normal_form(F: FreePolynomial, G: FreeGroebnerCandidate) -> FreePolynomial:
    """Fully reduce F: rewrite the largest reducible word A in(g) B into
    A (in(g) - g) B until no word contains a leading word of G.

    Every step rescans all terms for the largest reducible word."""

    def key(w):
        return tuple_word_key(G.order, w)

    current = dict(F.terms)
    while True:
        reducible = None
        hit = None
        for w in current:
            match = G.automaton.first_match(w)
            if match is not None and (reducible is None or key(w) > key(reducible)):
                reducible, hit = w, match
        if reducible is None:
            return FreePolynomial(current)
        idx, end = hit
        g = G.elements[idx]
        lead = G.leading_words[idx]
        coeff = current.pop(reducible)
        prefix = reducible[: end - len(lead)]
        suffix = reducible[end:]
        for w, c in g.terms.items():
            if w == lead:
                continue
            key_w = prefix + w + suffix
            s = current.get(key_w, 0) - coeff * c
            if s:
                current[key_w] = s
            else:
                current.pop(key_w, None)


def normal_form(F: FreePolynomial, G: FreeGroebnerCandidate) -> FreePolynomial:
    """Fully reduce F: rewrite the largest reducible word A in(g) B into
    A (in(g) - g) B until no word contains a leading word of G.

    The library's reducer on one polynomial, as ``obstructions_resolve``
    called it on each S-polynomial before it summed their words onto
    chain ends itself: the denominators of F are cleared, each word is
    replaced by the end of its chain (see ``FreeGroebnerCandidate``), and
    ``freealg._reduce`` runs the heap loop and pseudo-division; the
    remainder over the scale is the exact remainder, in ``Fraction``s."""
    scale = lcm(*(c.denominator for c in F.terms.values()))
    ends = [(G._chain_end(w), c) for w, c in F.terms.items()]
    terms = _add_into({}, ((entry, f * c.numerator * (scale // c.denominator)) for (entry, f), c in ends))
    remainder, m = _reduce(G, terms)
    return FreePolynomial._raw({w: Fraction(c, scale * m) for w, c in remainder.items()})


def normal_form_obstructions_resolve(G: FreeGroebnerCandidate) -> tuple[bool, list[Obstruction]]:
    """``freealg.obstructions_resolve`` as it was before it summed each
    S-polynomial onto chain ends: the integer S-polynomial of each
    ambiguity of ``pairwise_obstructions``, in its order, built as a
    ``FreePolynomial`` and reduced by ``normal_form``, a failing remainder
    then divided by L_i L_j / g."""
    failures = []
    for i, j, right1, left2, right2 in pairwise_obstructions(G):
        g = gcd(G.leads[i], G.leads[j])
        a, b = G.leads[j] // g, G.leads[i] // g
        s = {t + right1: a * c for t, c in G.tails[i]}
        _add_into(s, ((left2 + t + right2, -b * c) for t, c in G.tails[j]))
        rem = normal_form(FreePolynomial._raw(s), G)
        if rem:
            if a * b * g != 1:
                rem = rem.scale(Fraction(1, a * b * g))
            failures.append(Obstruction(i, j, G.leading_words[i] + right1, rem, 1))
    return not failures, failures


def fraction_normal_form(F: FreePolynomial, G: FreeGroebnerCandidate) -> FreePolynomial:
    """``freealg.normal_form`` with every step a ``Fraction`` operation, on
    the tails of the monic elements.

    Fully reduce F: rewrite the largest reducible word A in(g) B into
    A (in(g) - g) B until no word contains a leading word of G.

    The words of the running polynomial sit in a max-heap on their order
    keys.  A rewrite only brings in words smaller than the one it removes,
    so the popped word is the largest left: if no leading word divides it,
    it belongs to the remainder for good; otherwise its first automaton
    match is rewritten with the cached tail of that element.  Every word is
    popped and matched once.
    """
    tails = [
        [(w, c) for w, c in E.terms.items() if w != lead]
        for E, lead in zip(G.elements, G.leading_words)
    ]
    key = G.order.word_key
    first_match = G.automaton.first_match
    current = dict(F.terms)
    heap = [(-key(w), w) for w in current]
    heapq.heapify(heap)
    remainder: dict[Word, Fraction] = {}
    while heap:
        w = heapq.heappop(heap)[1]
        coeff = current.pop(w, None)
        if coeff is None:
            # cancelled after it was queued
            continue
        hit = first_match(w)
        if hit is None:
            remainder[w] = coeff
            continue
        idx, end = hit
        prefix = w[: end - len(G.leading_words[idx])]
        suffix = w[end:]
        for t, c in tails[idx]:
            v = prefix + t + suffix
            old = current.get(v)
            if old is None:
                current[v] = -coeff * c
                heapq.heappush(heap, (-key(v), v))
            else:
                s = old - coeff * c
                if s:
                    current[v] = s
                else:
                    del current[v]
    return FreePolynomial._raw(remainder)


def fraction_obstructions(G: FreeGroebnerCandidate) -> list[tuple[int, int, Word, FreePolynomial]]:
    """The ambiguities of ``pairwise_obstructions``, in its order, with
    their words and S-polynomials, as ``FreePolynomial`` products of the
    monic elements."""
    return [
        (
            i,
            j,
            G.leading_words[i] + right1,
            G.elements[i] * FreePolynomial.monomial(right1)
            - FreePolynomial.monomial(left2) * G.elements[j] * FreePolynomial.monomial(right2),
        )
        for i, j, right1, left2, right2 in pairwise_obstructions(G)
    ]


def fraction_obstructions_resolve(G: FreeGroebnerCandidate) -> tuple[bool, list[Obstruction]]:
    """``freealg.obstructions_resolve`` on ``fraction_obstructions`` and
    ``fraction_normal_form``."""
    failures = []
    for i, j, word, s in fraction_obstructions(G):
        rem = fraction_normal_form(s, G)
        if rem:
            failures.append(Obstruction(i, j, word, rem, 1))
    return not failures, failures


def rescan_obstructions_resolve(G: FreeGroebnerCandidate) -> tuple[bool, list[Obstruction]]:
    """obstructions_resolve on rescan_normal_form, with the obstructions
    ordered by the tuple word key."""
    found = sorted(fraction_obstructions(G), key=lambda t: tuple_word_key(G.order, t[2]))
    failures = []
    for i, j, word, s in found:
        rem = rescan_normal_form(s, G)
        if rem:
            failures.append(Obstruction(i, j, word, rem, 1))
    return not failures, failures


def _poly_trim(p: list) -> list:
    """Coefficients ascending in t, without trailing zeros."""
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return p


def _poly_divmod(a: list, b: list) -> tuple[list, list]:
    """Quotient and remainder of a by b != 0 over Q, coefficients ascending."""
    a, b = _poly_trim(a), _poly_trim(b)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        f = Fraction(a[-1]) / b[-1]
        shift = len(a) - len(b)
        q[shift] = f
        for i, c in enumerate(b):
            a[shift + i] -= f * c
        a = _poly_trim(a)
    return q, a


def _poly_gcd(a: list, b: list) -> list:
    """The monic gcd over Q by Euclid's algorithm."""
    a, b = _poly_trim(a), _poly_trim(b)
    while b:
        a, b = b, _poly_divmod(a, b)[1]
    return [Fraction(c) / a[-1] for c in a]


def fraction_charpoly(M: list[list[int]]) -> list[Fraction]:
    """det(x I - M), coefficients ascending in x, by the Faddeev-LeVerrier
    recurrence over Fraction: with N_0 = 0 and c_k = 1,
    N_m = M N_{m-1} + c_{k-m+1} I and c_{k-m} = -tr(M N_m) / m."""
    k = len(M)
    nonzero = [[(j, v) for j, v in enumerate(row) if v] for row in M]
    c = [Fraction(0)] * k + [Fraction(1)]
    N = [[Fraction(0)] * k for _ in range(k)]
    for m in range(1, k + 1):
        N = [[sum((v * N[j][col] for j, v in nonzero[i]), Fraction(0)) for col in range(k)] for i in range(k)]
        for i in range(k):
            N[i][i] += c[k - m + 1]
        c[k - m] = -sum((v * N[j][i] for i in range(k) for j, v in nonzero[i]), Fraction(0)) / m
    return c


def bm_hilbert_rational(B: MonomialIdealFree) -> tuple[list[int], list[int]]:
    """``freealg.hilbert_rational`` as it was before finite series were read
    off the counts: Berlekamp-Massey over Q on the first 2k counts, k the
    live states of the automaton, for every series."""
    auto = B.automaton()
    counts = normal_word_counts(auto, 2 * auto.match.count(-1))
    # den: the shortest recurrence so far, of order length; prev: den before
    # the last change of length, whose discrepancy was prev_disc, shift
    # counts ago
    den, prev = [Fraction(1)], [Fraction(1)]
    length, shift, prev_disc = 0, 1, Fraction(1)
    for i in range(len(counts)):
        disc = sum(den[j] * counts[i - j] for j in range(min(len(den), i + 1)))
        if not disc:
            shift += 1
            continue
        f = disc / prev_disc
        update = den + [Fraction(0)] * (shift + len(prev) - len(den))
        for j, c in enumerate(prev):
            update[shift + j] -= f * c
        if 2 * length <= i:
            prev, prev_disc, length, shift = den, disc, i + 1 - length, 1
        else:
            shift += 1
        den = update
    # num = den * series mod t^length; both have integer coefficients
    num = [sum(den[j] * counts[e - j] for j in range(min(len(den), e + 1))) for e in range(length)]
    num, den = [int(c) for c in num], [int(c) for c in den]
    while not num[-1]:
        num.pop()
    while not den[-1]:
        den.pop()
    return num, den


def charpoly_hilbert_rational(B: MonomialIdealFree) -> tuple[list[int], list[int]]:
    """Transfer-matrix reference for ``freealg.hilbert_rational``, with no
    Berlekamp-Massey.

    Generating function of normal-word counts as a reduced rational
    function; coefficient lists ascending in t, denominator normalized to
    constant term 1 (so a polynomial comes back as (coeffs, [1])).

    The counts are walk numbers in the avoidance automaton: the series is
    e_root^T (I - tM)^{-1} 1 with M the transfer matrix on live states.  Its
    denominator divides det(I - tM), the reversed characteristic polynomial
    of M, and the numerator has smaller degree, so it is recovered exactly
    from the first k counts.  The fraction is then reduced by the gcd over Q.
    """
    auto = B.automaton()
    live = [s for s, m in enumerate(auto.match) if m < 0]
    index = {s: i for i, s in enumerate(live)}
    k = len(live)
    M = [[0] * k for _ in range(k)]
    for s in live:
        for a in range(1, B.n + 1):
            t = auto.step[s][a]
            if t in index:
                M[index[t]][index[s]] += 1
    # det(I - tM) = t^k charpoly_M(1/t): the coefficients in reverse
    den = fraction_charpoly(M)[::-1]
    counts = normal_word_counts(auto, max(k - 1, 0))
    num = [sum(den[i] * counts[e - i] for i in range(e + 1)) for e in range(k)]
    g = _poly_gcd(num, den)
    num, den = _poly_divmod(num, g)[0], _poly_divmod(den, g)[0]
    # den(0) divides det(I - 0 M) = 1 up to the gcd's scale: normalize it to 1
    num, den = [c / den[0] for c in num], [c / den[0] for c in den]
    if any(c.denominator != 1 for c in num + den):
        raise ArithmeticError("the reduced fraction has non-integer coefficients")
    return [int(c) for c in num], [int(c) for c in den]


_TOKEN = re.compile(r"\s*(?:(\d+)|([xX])(\d+)|([-+*/^()])|(\S))")


def _tokenize(text: str, line: int):
    pos, out = 0, []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            break
        if m.group(5):
            raise ParseError(f"unexpected character {m.group(5)!r}", line, m.start(5) + 1)
        if m.group(1):
            out.append(("int", int(m.group(1)), m.start(1) + 1))
        elif m.group(2):
            out.append(("var", (m.group(2), int(m.group(3))), m.start(2) + 1))
        else:
            out.append(("op", m.group(4), m.start(4) + 1))
        pos = m.end()
    return out


def as_parse_result(poly, letters: int) -> tuple:
    """A generator as ``parsing._parse_generator`` returns it: its
    numerators over their common denominator, the keys whose coefficient
    is not an int, and ``letters``."""
    den = lcm(*(c.denominator for c in poly.terms.values()))
    multiple = type(poly)._raw({k: c.numerator * (den // c.denominator) for k, c in poly.terms.items()})
    return multiple, den, {k for k, c in poly.terms.items() if type(c) is not int}, letters


def arithmetic_parse_generator(text: str, line: int, ctx: AlgebraContext, algebra: str, letters: int, budget: int):
    """Reference for ``parsing._parse_generator``, with the same interface:
    the tokenizer it replaced, then ``ArithmeticExprParser``.  It counts
    no letters against ``budget``."""
    return as_parse_result(ArithmeticExprParser(_tokenize(text, line), line, ctx, algebra).parse(), letters)


class ArithmeticExprParser:
    """The generator parser that builds each term by polynomial arithmetic:
    one polynomial per factor, multiplied together, and the terms summed,
    over the tokens of ``_tokenize``."""

    def __init__(self, tokens, line: int, ctx: AlgebraContext, algebra: str):
        self.tokens = tokens
        self.i = 0
        self.line = line
        self.ctx = ctx
        self.algebra = algebra
        self.var_letter = "x" if algebra == "exterior" else "X"

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def error(self, message: str):
        tok = self.peek()
        col = tok[2] if tok else None
        raise ParseError(message, self.line, col)

    def parse(self):
        poly = self.parse_expr()
        if self.peek() is not None:
            self.error("trailing input after expression")
        return poly

    def _zero(self):
        return ExtPolynomial() if self.algebra == "exterior" else FreePolynomial()

    def parse_expr(self):
        acc = self._zero()
        sign = 1
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] in "+-":
            sign = -1 if tok[1] == "-" else 1
            self.i += 1
        acc = acc + self.parse_term().scale(sign)
        while True:
            tok = self.peek()
            if tok is None or tok[0] != "op" or tok[1] not in "+-":
                break
            sign = -1 if tok[1] == "-" else 1
            self.i += 1
            acc = acc + self.parse_term().scale(sign)
        return acc

    def parse_term(self):
        factors = [self.parse_factor()]
        while True:
            tok = self.peek()
            if tok is not None and tok[0] == "op" and tok[1] == "*":
                self.i += 1
            elif tok is None or tok[0] != "var":
                # adjacent variables multiply implicitly: x1x3 == x1*x3
                break
            factors.append(self.parse_factor())
        acc = factors[0]
        for f in factors[1:]:
            acc = acc * f
        return acc

    def parse_factor(self):
        tok = self.peek()
        if tok is None:
            self.error("expected a coefficient or a variable")
        kind, value, col = tok
        if kind == "int":
            self.i += 1
            num = value
            den = 1
            nxt = self.peek()
            if nxt and nxt[0] == "op" and nxt[1] == "/":
                self.i += 1
                dtok = self.peek()
                if dtok is None or dtok[0] != "int":
                    self.error("malformed rational: expected a denominator")
                den = dtok[1]
                if den == 0:
                    raise ParseError("malformed rational: zero denominator", self.line, dtok[2])
                self.i += 1
            c = Fraction(num, den)
            if self.algebra == "exterior":
                return ExtPolynomial.monomial(ExtMonomial(), c)
            return FreePolynomial.monomial((), c)
        if kind == "var":
            letter, index = value
            if letter != self.var_letter:
                raise ParseError(
                    f"variable {letter}{index} does not belong to the "
                    f"{self.algebra} algebra (use {self.var_letter}1..{self.var_letter}{self.ctx.n})",
                    self.line,
                    col,
                )
            try:
                self.ctx.check_index(index)
            except ValueError as exc:
                raise ParseError(str(exc), self.line, col) from None
            self.i += 1
            power = 1
            nxt = self.peek()
            if nxt and nxt[0] == "op" and nxt[1] == "^":
                self.i += 1
                ptok = self.peek()
                if ptok is None or ptok[0] != "int":
                    self.error("expected an integer exponent")
                power = ptok[1]
                self.i += 1
            if self.algebra == "exterior":
                base = ExtPolynomial.monomial(ExtMonomial([index]))
                acc = ExtPolynomial.monomial(ExtMonomial())
            else:
                base = FreePolynomial.monomial((index,))
                acc = FreePolynomial.monomial(())
            for _ in range(power):
                acc = acc * base
            return acc
        self.error(f"unexpected token {value!r}")


# ---- the Fraction paths behind the public views ----------------------------


def fraction_back_substitute(pivots: dict, lead) -> dict:
    """``linalg.back_substitute`` as it was: the row with pivot ``lead`` of the reduced row echelon form, read
    off the echelon form ``pivots`` (as ``echelon`` returns it): its pivot
    row cleared of every other pivot column, largest first, then made
    monic, as a row of Fractions on the same keys."""
    from fractions import Fraction

    row = dict(pivots[lead])
    for k in sorted(pivots, reverse=True):
        # clearing k brings in only keys below k
        if k < lead and k in row:
            _eliminate(row, k, pivots[k])
    lc = row[lead]
    return {k: Fraction(v, lc) for k, v in row.items()}


def fraction_basis_elements(G) -> tuple[ExtPolynomial, ...]:
    """``ExtGroebnerBasis.elements`` as it was: each new minimal lead's row
    back-substituted by ``fraction_back_substitute``, or the lead itself
    in a slice proved full.  It reads the pending rows of a basis whose
    ``multiples`` were not read yet."""
    keys, from_bits = G.order.keys, ExtMonomial.from_bits
    return tuple(
        ExtPolynomial._raw(
            {from_bits(b): Fraction(1)}
            if rows is None
            else {from_bits(keys.column[k]): c for k, c in fraction_back_substitute(rows, keys[b]).items()}
        )
        for b, rows in G._pending
    )


def fraction_lift_groebner(G) -> tuple[tuple, tuple]:
    """``lifting.lift_groebner`` as it was, on the public ``G.elements``:
    (the triples (f, u, lifted element), the initial ideal's minimal
    generators), each lift delta(u * f) made monic in Fractions.  It does
    not refuse a basis that cannot be lifted."""
    order = FreeOrderSpec(G.order)
    lifted = []
    init: list[Word] = list(anti_commutator_leading_words(G.ctx))
    for f in G.elements:
        m, _ = leading_term_ext(f, G.order)
        for u in sorted(compute_U(G.initial, m), key=G.order.ext_key):
            prod = ExtPolynomial.monomial(u) * f if u.bits else f
            lifted.append((f, u, monic_free(delta(prod), order)))
            init.append((u * m).support)
    return tuple(lifted), tuple(init)


class MonicCandidate:
    """``FreeGroebnerCandidate``'s construction as it was: each element made
    monic in Fractions first, and its primitive integer lead and tail
    read off the monic element."""

    def __init__(self, ctx, elements: list[FreePolynomial], order: FreeOrderSpec | None = None):
        if order is None:
            order = FreeOrderSpec()
        normalized = []
        for F in elements:
            if not F:
                raise ValueError("zero element in candidate basis")
            if not F.is_homogeneous():
                raise ValueError("candidate elements must be homogeneous")
            normalized.append(monic_free(F, order))
        self.ctx, self.elements, self.order = ctx, normalized, order
        self.leading_words = [leading_term_free(F, self.order)[0] for F in self.elements]
        self.automaton = PatternAutomaton(self.leading_words, self.ctx.n)
        self.leads, self.tails = [], []
        for F, lead in zip(self.elements, self.leading_words):
            # a monic element's lead is 1, so its primitive integer lead is > 0
            ints = primitive(F.terms)
            self.leads.append(ints.pop(lead))
            self.tails.append(list(ints.items()))


def fraction_parse_generator(text: str, line: int, ctx: AlgebraContext, algebra: str):
    """``parsing._parse_generator`` as it was, with each term's coefficient
    an int or a ``Fraction`` and the terms summed in those: one generator
    line, in one pass over its tokens (of ``parsing._tokenize``).  Each term reads to
    an integer numerator and denominator and a word (a variable and each
    ``^k`` append letters); the generator is built once from the terms."""
    tokens = parse_tokens(text, line)
    exterior = algebra == "exterior"
    letter = "x" if exterior else "X"
    terms = []
    i = 0
    tag, value, col = tokens[0]
    while True:
        # (tag, value, col) is tokens[i], the line's first token or the one after a term
        num, den, word = 1, 1, []
        if tag == "+" or tag == "-":
            num = -1 if tag == "-" else 1
            i += 1
        elif terms:
            if tag != "$":
                raise ParseError("trailing input after expression", line, col)
            break
        while True:
            tag, value, col = tokens[i]
            i += 1
            if tag == "n":
                num *= value
                if tokens[i][0] == "/":
                    tag, value, col = tokens[i + 1]
                    if tag != "n":
                        raise ParseError("malformed rational: expected a denominator", line, col)
                    if value == 0:
                        raise ParseError("malformed rational: zero denominator", line, col)
                    den *= value
                    i += 2
            elif tag == letter:
                try:
                    ctx.check_index(value)
                except ValueError as exc:
                    raise ParseError(str(exc), line, col) from None
                power = 1
                if tokens[i][0] == "^":
                    tag, power, col = tokens[i + 1]
                    if tag != "n":
                        raise ParseError("expected an integer exponent", line, col)
                    i += 2
                if not exterior and len(word) + power > MAX_FREE_TERM_LETTERS:
                    raise ParseError(f"a free term may have at most {MAX_FREE_TERM_LETTERS} letters", line, col)
                # a repeated letter already makes an exterior term zero
                word += [value] * (min(power, 2) if exterior else power)
            elif tag == "x" or tag == "X":
                raise ParseError(
                    f"variable {tag}{value} does not belong to the "
                    f"{algebra} algebra (use {letter}1..{letter}{ctx.n})",
                    line,
                    col,
                )
            elif tag == "$":
                raise ParseError("expected a coefficient or a variable", line)
            else:
                raise ParseError(f"unexpected token {tag!r}", line, col)
            # "*" joins two factors, and may be left out before a variable
            tag, value, col = tokens[i]
            if tag == "*":
                i += 1
            elif tag != "x" and tag != "X":
                break
        if num % den:
            from fractions import Fraction

            num = Fraction(num, den)
        else:
            num //= den  # den > 0: an integral coefficient stays an int
        terms.append((tuple(word), num))
    F = FreePolynomial._raw(_add_into({}, terms))
    return pi(F) if exterior else F


def matrix_is_borel_fixed(
    B: MonomialIdealFree, ctx: AlgebraContext
) -> tuple[bool, tuple[tuple[int, ...], tuple[int, int], tuple[int, ...]] | None]:
    """Reference for ``gin.is_borel_fixed``: applies each elementary matrix
    X_i -> X_i + X_j (i < j) to each generator with ``apply_gl`` and checks
    every word of the image.

    Returns (True, None) or (False, (generator, (i, j), offending word)).
    """
    for w in B.gens:
        letters = sorted(set(w))
        for i in letters:
            for j in range(i + 1, ctx.n + 1):
                b = elementary(ctx.n, i, j)
                image = apply_gl(b, FreePolynomial.monomial(w))
                for word in image.terms:
                    if not B.member(word):
                        return False, (w, (i, j), word)
    return True, None


def monomial_exchange_ok(L: MonomialIdealExt, m: ExtMonomial, i: int, j: int) -> bool:
    """``lifting._exchange_ok`` as it was before it worked on bitmasks: is
    x_i (m / x_j) in L, from the monomials x_j, m / x_j and x_i and their
    product?  A vanishing exchange belongs to every ideal."""
    quotient = m / ExtMonomial([j])
    xi = ExtMonomial([i])
    if xi.bits & quotient.bits:
        return True
    return L.member(xi * quotient)


def enumerating_squeezed_witness(L: MonomialIdealExt) -> tuple[bool, tuple[ExtMonomial, ExtMonomial] | None]:
    """Reference for ``lifting.squeezed_witness`` by its definition: the
    smallest nontrivial element of each generator's whole multiplier set,
    enumerated with ``compute_U`` at 2^(gap) membership tests."""
    key = ExtOrderSpec().ext_key
    for m in L.gens:
        if m.degree < 2:
            raise ValueError("squeezed predicate requires generators of degree >= 2")
        nontrivial = [u for u in compute_U(L, m) if u != ONE_EXT]
        if nontrivial:
            return False, (m, min(nontrivial, key=key))
    return True, None


def _image_of_variable(g: GLMatrix, i: int) -> FreePolynomial:
    return FreePolynomial(
        [((l + 1,), g.entries[l][i - 1]) for l in range(g.n)]
    )


def fraction_apply_gl(g: GLMatrix, F: FreePolynomial) -> FreePolynomial:
    """Reference for ``algebra.apply_gl``: each term's coefficient starts
    the expansion, and every partial product is a ``Fraction``."""
    images = {i: _image_of_variable(g, i) for i in range(1, g.n + 1)}
    acc: dict[Word, Fraction] = {}
    for w, c in F.terms.items():
        # expand the product of linear forms letter by letter
        partial: dict[Word, Fraction] = {(): c}
        for letter in w:
            img = images[letter].terms
            partial = _add_into({}, ((pw + l, pc * lc) for pw, pc in partial.items() for l, lc in img.items()))
        _add_into(acc, partial.items())
    return FreePolynomial._raw(acc)


def fraction_apply_gl_ext(g: GLMatrix, f: ExtPolynomial) -> ExtPolynomial:
    """Reference for ``algebra.apply_gl_ext``: multiplies out the images of
    the letters as ``ExtPolynomial`` products in ``Fraction``s."""
    images = {
        i: pi(_image_of_variable(g, i)) for i in range(1, g.n + 1)
    }
    acc = ExtPolynomial._raw({})
    for m, c in f.terms.items():
        part = ExtPolynomial.monomial(ExtMonomial(), c)
        for letter in m.support:
            part = part * images[letter]
            if not part:
                break
        acc = acc + part
    return acc


def letterwise_apply_gl_ext(g: GLMatrix, f: ExtPolynomial) -> ExtPolynomial:
    """``algebra.apply_gl_ext`` as it expanded each monomial letter by
    letter on bitmasks, as ``apply_gl`` expands a word: x_P * x_l is 0 if
    l is in P, and otherwise x_{P+l} with the sign (-1)^(letters of P
    above l).  The partial products multiply matrix entries only, and each
    term's coefficient is applied once per output monomial."""
    cols = _columns(g)
    acc: dict[int, Fraction] = {}
    for m, c in f.terms.items():
        partial: dict[int, int | Fraction] = {0: 1}
        for letter in m.support:
            # with l outside pb, pb >> l holds exactly the letters above l
            partial = _add_into({}, (
                (pb | 1 << l, -pc * e if (pb >> l).bit_count() & 1 else pc * e)
                for pb, pc in partial.items()
                for l, e in cols[letter - 1]
                if not pb >> l & 1
            ))
        _add_into(acc, ((pb, c * pc) for pb, pc in partial.items()))
    return ExtPolynomial._raw({ExtMonomial.from_bits(b): v for b, v in acc.items()})


def pairwise_obstructions(G: FreeGroebnerCandidate) -> list[tuple[int, int, Word, Word, Word]]:
    """The records of ``enumerate_obstructions``, (i, j, right1, left2,
    right2), by testing every pair of leading words for every overlap and
    inclusion, then a stable sort by the ambiguity word w_i right1: the
    order in which ``obstructions_resolve`` lists its failures."""
    found = []
    for i, w1 in enumerate(G.leading_words):
        for j, w2 in enumerate(G.leading_words):
            l1, l2 = len(w1), len(w2)
            for k in range(1, min(l1, l2)):
                if w1[l1 - k:] == w2[:k]:
                    found.append((i, j, w2[k:], w1[: l1 - k], ()))
            if l2 < l1 or (l2 == l1 and i != j):
                for p in range(l1 - l2 + 1):
                    if w1[p:p + l2] == w2:
                        found.append((i, j, (), w1[:p], w1[p + l2:]))
    found.sort(key=lambda t: G.order.word_key(G.leading_words[t[0]] + t[2]))
    return found

