"""Non-commutative Groebner machinery over K<X1,...,Xn>: subword
divisibility, normal forms, overlap obstructions, normal-word counting and
rational Hilbert series, plus degree-wise slice elimination.

This module is deliberately independent of the lifting construction so it
can serve as its verification oracle.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd, lcm

from .algebra import AlgebraContext, FreePolynomial, Word, _add_into, words_of_degree
from .linalg import pivots
from .orders import FreeOrderSpec, leading_term_free, monic_free


def subword_divides(a: Word, b: Word) -> bool:
    """Does a occur as a contiguous factor of b?"""
    la = len(a)
    return any(b[p:p + la] == a for p in range(len(b) - la + 1))


class PatternAutomaton:
    """Aho-Corasick automaton over the integer alphabet 1..n.

    Used both to locate leading-word occurrences during reduction and, with
    matched states treated as absorbing, to count normal words (this is the
    walk-counting automaton on normal-word suffixes).  ``goto`` is the trie
    of the patterns, ``step[s][a]`` the transition on letter a (index 0 is
    unused), and ``match[s]`` the lowest index among the longest patterns
    that end at state s, or -1 if none does.  No patterns give the one
    state 0, which matches nothing.
    """

    def __init__(self, patterns: list[Word], n: int):
        self.goto: list[dict[int, int]] = [{}]
        self.match: list[int] = [-1]
        for idx, pat in enumerate(patterns):
            if not pat:
                raise ValueError("empty pattern")
            s = 0
            for a in pat:
                if a not in self.goto[s]:
                    self.goto[s][a] = len(self.goto)
                    self.goto.append({})
                    self.match.append(-1)
                s = self.goto[s][a]
            if self.match[s] < 0:
                self.match[s] = idx
        # one breadth-first pass over (state, its failure state): a state's
        # row is its failure state's row with its own trie edges written
        # over it, and a child's failure state is what that row said for
        # the child's letter; rows are filled in queue order
        self.step: list[list[int]] = [[]] * len(self.goto)
        queue = [(0, 0)]
        for s, f in queue:
            row = list(self.step[f]) if s else [0] * (n + 1)
            for a, t in self.goto[s].items():
                queue.append((t, row[a]))
                row[a] = t
            self.step[s] = row
            if self.match[s] < 0:
                self.match[s] = self.match[f]

    def first_match(self, word: Word) -> tuple[int, int] | None:
        """First (pattern index, end offset) occurrence, scanning left to
        right: the earliest end, then the longest pattern ending there, then
        the lowest index."""
        step, match, s = self.step, self.match, 0
        for pos, a in enumerate(word):
            s = step[s][a]
            if match[s] >= 0:
                return match[s], pos + 1
        return None


class MonomialIdealFree:
    """Monomial ideal of the free algebra: antichain of words under
    contiguous-subword divisibility."""

    __slots__ = ("gens", "n", "_auto")

    def __init__(self, words, n: int, order: FreeOrderSpec = FreeOrderSpec()):
        uniq = sorted(set(tuple(w) for w in words), key=len)
        mins: list[Word] = []
        for w in uniq:
            if not any(subword_divides(g, w) for g in mins):
                mins.append(w)
        mins.sort(key=order.word_key)
        self.gens = tuple(mins)
        self.n = n
        self._auto: PatternAutomaton | None = None

    def automaton(self) -> PatternAutomaton:
        """The generators' automaton, built on first use."""
        if self._auto is None:
            self._auto = PatternAutomaton(list(self.gens), self.n)
        return self._auto

    def member(self, w: Word) -> bool:
        return self.automaton().first_match(w) is not None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MonomialIdealFree)
            and self.n == other.n
            and set(self.gens) == set(other.gens)
        )

    def __hash__(self):
        return hash((self.n, frozenset(self.gens)))

    def __iter__(self):
        return iter(self.gens)

    def __len__(self):
        return len(self.gens)

    def __repr__(self) -> str:
        return f"MonomialIdealFree({[''.join(f'X{i}' for i in w) for w in self.gens]})"


class FreeGroebnerCandidate:
    """Monic homogeneous polynomials proposed as a Groebner basis.

    Besides the leading words and their automaton, the candidate keeps what
    every normal form modulo it reuses: each element as a primitive integer
    polynomial, split into its positive lead ``leads[i]`` and the terms
    without its leading word, ``tails[i]``.
    """

    __slots__ = ("ctx", "elements", "order", "leading_words", "automaton", "leads", "tails")

    def __init__(self, ctx, elements: list[FreePolynomial], order: FreeOrderSpec = FreeOrderSpec()):
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
            # a monic element's lead is 1, so its integer lead den / content > 0
            den = lcm(*(c.denominator for c in F.terms.values()))
            ints = {w: c.numerator * (den // c.denominator) for w, c in F.terms.items()}
            content = gcd(*ints.values())
            self.leads.append(ints.pop(lead) // content)
            self.tails.append([(w, c // content) for w, c in ints.items()])


def normal_form(F: FreePolynomial, G: FreeGroebnerCandidate) -> FreePolynomial:
    """Fully reduce F: rewrite the largest reducible word A in(g) B into
    A (in(g) - g) B until no word contains a leading word of G.

    The words of the running polynomial sit in a max-heap on their order
    keys.  A rewrite only brings in words smaller than the one it removes,
    so the popped word is the largest left: if no leading word divides it,
    it belongs to the remainder for good; otherwise its first automaton
    match is rewritten with the integer tail of that element.  Every word
    is popped and matched once.

    It is integer pseudo-division: the terms are F times ``scale``.  To
    rewrite a word of coefficient c by an element of lead L, all terms and
    the scale are multiplied by L/g, g = gcd(c, L), and (c/g) A tail B is
    subtracted.  Scaling by positive integers cancels the same words as over
    the rationals, so the remainder over the scale is the exact remainder.
    """
    key = G.order.word_key
    first_match = G.automaton.first_match
    scale = lcm(*(c.denominator for c in F.terms.values()))
    current = {w: c.numerator * (scale // c.denominator) for w, c in F.terms.items()}
    heap = [(-key(w), w) for w in current]
    heapq.heapify(heap)
    remainder: dict[Word, int] = {}
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
        lead = G.leads[idx]
        if lead != 1:
            g = gcd(coeff, lead)
            m, coeff = lead // g, coeff // g
            if m != 1:
                scale *= m
                for terms in (current, remainder):
                    for v in terms:
                        terms[v] *= m
        prefix = w[: end - len(G.leading_words[idx])]
        suffix = w[end:]
        for t, c in G.tails[idx]:
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
    return FreePolynomial._raw({w: Fraction(c, scale) for w, c in remainder.items()})


class Obstruction:
    """An overlap or inclusion ambiguity between two leading words."""

    __slots__ = ("i", "j", "word", "remainder")

    def __init__(self, i: int, j: int, word: Word, remainder: FreePolynomial):
        self.i, self.j, self.word, self.remainder = i, j, word, remainder

    def __eq__(self, other) -> bool:
        mine = (self.i, self.j, self.word, self.remainder)
        return isinstance(other, Obstruction) and mine == (other.i, other.j, other.word, other.remainder)


def _ambiguities(w1: Word, w2: Word, same: bool) -> list[tuple[Word, Word, Word, Word]]:
    """(A, B, C, D) with A w2 B = w1 D = C w2 ... encoded as:
    the ambiguity word W plus the cofactors so that g1 * r - l * g2 matches.

    Returned tuples are (left1, right1, left2, right2): W = left1 w1 right1
    = left2 w2 right2 with the two occurrences genuinely overlapping.
    """
    out = []
    l1, l2 = len(w1), len(w2)
    # proper overlap: a suffix of w1 equals a prefix of w2
    for k in range(1, min(l1, l2)):
        if w1[l1 - k:] == w2[:k]:
            out.append(((), w2[k:], w1[:l1 - k], ()))
    # inclusion: w2 inside w1
    if l2 < l1 or (l2 == l1 and not same):
        for p in range(l1 - l2 + 1):
            if w1[p:p + l2] == w2:
                out.append(((), (), w1[:p], w1[p + l2:]))
    return out


def enumerate_obstructions(G: FreeGroebnerCandidate) -> list[tuple[int, int, Word, Word, Word, Word, Word]]:
    """All overlap and inclusion ambiguities (i, j, W, left1, right1, left2,
    right2), W = left1 w_i right1 = left2 w_j right2, sorted by W."""
    found = []
    for i, w1 in enumerate(G.leading_words):
        for j, w2 in enumerate(G.leading_words):
            for left1, right1, left2, right2 in _ambiguities(w1, w2, i == j):
                found.append((i, j, left1 + w1 + right1, left1, right1, left2, right2))
    found.sort(key=lambda t: G.order.word_key(t[2]))
    return found


def obstructions_resolve(G: FreeGroebnerCandidate) -> tuple[bool, list[Obstruction]]:
    """Reduce every S-polynomial; (True, []) iff all vanish, otherwise the
    failing ambiguities are returned as certificates.  The S-polynomial of
    an ambiguity A w_i B = C w_j D is built on integers as (L_j/g) A tail_i B
    - (L_i/g) C tail_j D, g = gcd(L_i, L_j): L_i L_j / g times the monic
    one, and so is its remainder."""
    failures = []
    for i, j, word, left1, right1, left2, right2 in enumerate_obstructions(G):
        g = gcd(G.leads[i], G.leads[j])
        a, b = G.leads[j] // g, G.leads[i] // g
        s = {left1 + t + right1: a * c for t, c in G.tails[i]}
        _add_into(s, ((left2 + t + right2, -b * c) for t, c in G.tails[j]))
        rem = normal_form(FreePolynomial._raw(s), G)
        if rem:
            if a * b * g != 1:
                rem = rem.scale(Fraction(1, a * b * g))
            failures.append(Obstruction(i, j, word, rem))
    return not failures, failures


def normal_word_counts(B: MonomialIdealFree, d: int) -> list[int]:
    """Numbers of words of degrees 0..d avoiding every generator of B, by
    dynamic programming over the pattern automaton."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    auto = B.automaton()
    counts = [1]
    state_counts = {0: 1}
    for _ in range(d):
        nxt: dict[int, int] = {}
        for s, c in state_counts.items():
            for t in auto.step[s][1:]:
                if auto.match[t] < 0:
                    nxt[t] = nxt.get(t, 0) + c
        state_counts = nxt
        counts.append(sum(state_counts.values()))
    return counts


def hilbert_rational(B: MonomialIdealFree) -> tuple[list[int], list[int]]:
    """Generating function of normal-word counts as a reduced rational
    function; coefficient lists ascending in t, denominator normalized to
    constant term 1 (so a polynomial comes back as (coeffs, [1])).

    The counts are walk numbers in the avoidance automaton with k live
    states, so the series is num/den with den dividing det(I - tM), of
    degree <= k, and deg num < k: the counts satisfy a linear recurrence of
    order <= k, which the first 2k of them fix.  Berlekamp-Massey over Q
    finds the shortest one; its connection polynomial is the reduced den.
    """
    counts = normal_word_counts(B, 2 * B.automaton().match.count(-1))
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


def ideal_slice_rows(
    gens: list[FreePolynomial], ctx: AlgebraContext, d: int
) -> list[dict[Word, Fraction]]:
    """Spanning rows of the degree-d slice of the two-sided ideal: all word
    multiples A g B with |A| + deg g + |B| = d."""
    rows = []
    for g in gens:
        if not g:
            continue
        e = g.degree
        if e > d:
            continue
        for la in range(d - e + 1):
            lb = d - e - la
            rights = words_of_degree(ctx, lb)
            for A in words_of_degree(ctx, la):
                for Bw in rights:
                    rows.append({A + w + Bw: c for w, c in g.terms.items()})
    return rows


class FreeInitialData:
    """Initial ideal of a free-algebra ideal computed degree by degree."""

    __slots__ = ("initial", "slice_dims")

    def __init__(self, initial: MonomialIdealFree, slice_dims: dict[int, int]):
        self.initial, self.slice_dims = initial, slice_dims


def free_initial_ideal(
    gens: list[FreePolynomial],
    ctx: AlgebraContext,
    order: FreeOrderSpec,
    max_degree: int,
) -> FreeInitialData:
    """Degree-wise elimination: the pivot columns of each slice are the
    initial-ideal slice, so only pivots are asked for, with no
    back-substitution.  The initial ideal is two-sided, so a pivot is a
    new minimal generator iff dropping its first or its last letter leaves
    no pivot of the slice below."""
    key = order.word_key
    mingens: list[Word] = []
    dims: dict[int, int] = {}
    leads: list[Word] = []
    dmin = min((g.degree for g in gens if g), default=max_degree + 1)
    for d in range(dmin, max_degree + 1):
        below, leads = set(leads), pivots(ideal_slice_rows(gens, ctx, d), key)
        dims[d] = len(leads)
        mingens += [w for w in leads if w[1:] not in below and w[:-1] not in below]
    return FreeInitialData(MonomialIdealFree(mingens, ctx.n, order), dims)
