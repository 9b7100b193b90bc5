"""Non-commutative Groebner machinery over K<X1,...,Xn>: subword
divisibility, normal forms, overlap obstructions, normal-word counting and
rational Hilbert series, plus degree-wise slice elimination, and dim J_d
of an ideal J, taken through E(V) when J holds the anti-commutators.

This module is deliberately independent of the lifting construction so it
can serve as its verification oracle.
"""

from __future__ import annotations

from math import comb, gcd

from .algebra import AlgebraContext, FreePolynomial, Word, _add_into, anti_commutators, pi, words_of_degree
from .linalg import Row, echelon, primitive
from .orders import FreeOrderSpec, leading_term_free, monic_free


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

    def __init__(self, words, n: int, order: FreeOrderSpec | None = None):
        # shortest first, a word is minimal iff none of its shorter
        # factors is a generator kept so far
        kept: set[Word] = set()
        lengths: set[int] = set()
        for w in sorted(set(tuple(w) for w in words), key=len):
            if not any(w[i:i + k] in kept for k in lengths for i in range(len(w) - k + 1)):
                kept.add(w)
                lengths.add(len(w))
        self.gens = tuple(sorted(kept, key=(FreeOrderSpec() if order is None else order).word_key))
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


def _positive_primitive(F: FreePolynomial, lead: Word) -> dict:
    """The primitive integer multiple of F whose coefficient at ``lead``
    is positive: the same for every nonzero rational multiple of F."""
    ints = primitive(F.terms)
    return {w: -c for w, c in ints.items()} if ints[lead] < 0 else ints


class FreeGroebnerCandidate:
    """Homogeneous polynomials proposed as a Groebner basis, each given as
    any nonzero rational multiple of itself; ``elements``, the monic ones,
    is made on first read.

    Besides the leading words and their automaton, the candidate keeps what
    every reduction modulo it reuses: each element as a primitive integer
    polynomial with a positive lead, split into that lead ``leads[i]`` and
    the terms without its leading word, ``tails[i]``; and ``_rules``, a memo
    of each word's rewrite that every ``_reduce`` modulo the candidate reads
    and extends.  These are the same for every multiple of an element.

    Write N for the normal form.  ``_rules[w]`` is None when no leading
    word divides w, w's first automaton match ``(idx, end)`` until its rule
    is needed, and then its rule ``(lead, tail)``, with
    lead N(w) = -sum c N(u) over the tail terms ``((-word_key(u), u), c)``.
    The rule is the rewrite by w's first match with each tail word followed
    to the end of its chain, factors multiplied, terms with the same end
    summed and zero terms dropped.  A chain step is a rewrite by an element
    of lead 1 with at most one tail term: it maps v to -c v2, or to 0 when
    the tail is empty (a square, a monomial element).  A chain ends at the
    first word that takes no step; each word on it gets the rule of one
    step to the end.
    """

    __slots__ = ("ctx", "order", "leading_words", "automaton", "leads", "tails", "_given", "_elements", "_rules")

    def __init__(self, ctx, elements: list[FreePolynomial], order: FreeOrderSpec | None = None):
        if order is None:
            order = FreeOrderSpec()
        for F in elements:
            if not F:
                raise ValueError("zero element in candidate basis")
            if not F.is_homogeneous():
                raise ValueError("candidate elements must be homogeneous")
        self.ctx, self.order, self._given, self._elements = ctx, order, list(elements), None
        self.leading_words = [leading_term_free(F, order)[0] for F in self._given]
        self.automaton = PatternAutomaton(self.leading_words, ctx.n)
        self.leads, self.tails = [], []
        for F, lead in zip(self._given, self.leading_words):
            ints = _positive_primitive(F, lead)
            self.leads.append(ints.pop(lead))
            self.tails.append(list(ints.items()))
        self._rules: dict = {}

    @property
    def elements(self) -> list[FreePolynomial]:
        if self._elements is None:
            self._elements = [monic_free(F, self.order) for F in self._given]
        return self._elements

    def _chain_end(self, w: Word):
        """(entry, f) with N(w) = f N(u) and entry = (-word_key(u), u), u
        the end of w's chain, or (None, 0) if the chain reaches 0.  Each
        word first matched on the way keeps the rule of one step to the end.

        A loop, not a recursion: sorting X_n ... X_1 takes n(n-1)/2 steps."""
        rules = self._rules
        path: list[tuple[Word, int]] = []  # the words first matched here, each with the factor before it
        f = 1
        while True:
            rule = rules.get(w, False)
            if rule is False:
                hit = self.automaton.first_match(w)
                if hit is None:
                    rules[w] = None
                    break
                idx, end = hit
                tail = self.tails[idx]
                if self.leads[idx] != 1 or len(tail) > 1:
                    rules[w] = hit
                    break
                path.append((w, f))
                if not tail:
                    f = 0
                    break
                t, c = tail[0]
                f *= -c
                w = w[: end - len(self.leading_words[idx])] + t + w[end:]
            elif rule is None or type(rule[1]) is int:
                break
            else:
                lead, tail = rule
                if not tail:
                    f = 0
                    break
                if lead != 1 or len(tail) > 1:
                    break
                (entry, c), = tail
                f *= -c
                w = entry[1]
        if not f:
            for v, _ in path:
                rules[v] = (1, [])
            return None, 0
        entry = (-self.order.word_key(w), w)
        for v, before in path:
            rules[v] = (1, [(entry, -(f // before))])
        return entry, f

    def _build_rule(self, w: Word, idx: int, end: int):
        """Replace w's first match (idx, end) in ``_rules`` by w's rule,
        and return the rule."""
        prefix, suffix = w[: end - len(self.leading_words[idx])], w[end:]
        ends = [(self._chain_end(prefix + t + suffix), c) for t, c in self.tails[idx]]
        terms = _add_into({}, ((entry, c * f) for (entry, f), c in ends))
        rule = self._rules[w] = (self.leads[idx], list(terms.items()))
        return rule


def _reduce(G: FreeGroebnerCandidate, terms: dict) -> tuple[dict[Word, int], int]:
    """Reduce sum c N(u) over ``terms``, entries ``(-word_key(u), u)`` with
    nonzero integer c, each u the end of its chain (see
    ``FreeGroebnerCandidate``): (remainder, scale), the remainder an
    integer polynomial equal to scale times the exact one.

    The words of the running polynomial sit in a max-heap on their order
    keys.  A rule only brings in words smaller than the one it removes, so
    the popped word is the largest left: if no leading word divides it, it
    belongs to the remainder for good; otherwise it is replaced by its rule
    from ``G._rules``, built the first time the word is popped modulo G.
    No word is popped twice in one reduction, nor matched twice modulo one
    candidate.  Each rule holds for the linear map N that rewriting by
    first matches defines, so the remainder is the one a word-by-word
    rewrite leaves; the heap only fixes the order of evaluation.

    It is integer pseudo-division: to rewrite a word of coefficient c by a
    rule of lead L, all terms and the scale are multiplied by L/g, g =
    gcd(c, L), and (c/g) tail is subtracted.  Scaling by positive integers
    cancels the same words as over the rationals, so the remainder over
    the scale is the exact remainder."""
    import heapq

    rules = G._rules
    scale = 1
    current = {entry[1]: c for entry, c in terms.items()}
    heap = list(terms)
    heapq.heapify(heap)
    remainder: dict[Word, int] = {}
    while heap:
        w = heapq.heappop(heap)[1]
        coeff = current.pop(w, None)
        if coeff is None:
            # cancelled after it was queued
            continue
        rule = rules[w]
        if rule is None:
            remainder[w] = coeff
            continue
        lead, tail = rule
        if type(tail) is int:
            # w's first match, (idx, end): the rule is built on first use
            lead, tail = G._build_rule(w, lead, tail)
        if lead != 1:
            g = gcd(coeff, lead)
            m, coeff = lead // g, coeff // g
            if m != 1:
                scale *= m
                for terms in (current, remainder):
                    for v in terms:
                        terms[v] *= m
        for entry, c in tail:
            v = entry[1]
            old = current.get(v)
            if old is None:
                current[v] = -coeff * c
                heapq.heappush(heap, entry)
            else:
                s = old - coeff * c
                if s:
                    current[v] = s
                else:
                    del current[v]
    return remainder, scale


class Obstruction:
    """An overlap or inclusion ambiguity between two leading words, whose
    S-polynomial leaves the remainder ``scaled / scale``: ``scaled`` a
    FreePolynomial, of ints as ``obstructions_resolve`` makes it, and
    ``scale`` a positive int.  ``remainder``, of ``Fraction``s, is made on
    first read."""

    __slots__ = ("i", "j", "word", "scaled", "scale", "_remainder")

    def __init__(self, i: int, j: int, word: Word, scaled: FreePolynomial, scale: int):
        self.i, self.j, self.word, self.scaled, self.scale = i, j, word, scaled, scale
        self._remainder = None

    @property
    def remainder(self) -> FreePolynomial:
        if self._remainder is None:
            from fractions import Fraction

            scale = self.scale
            self._remainder = FreePolynomial._raw({w: Fraction(c, scale) for w, c in self.scaled.terms.items()})
        return self._remainder

    def __eq__(self, other) -> bool:
        mine = (self.i, self.j, self.word, self.remainder)
        return isinstance(other, Obstruction) and mine == (other.i, other.j, other.word, other.remainder)


def enumerate_obstructions(G: FreeGroebnerCandidate) -> list[tuple[int, int, Word, Word, Word]]:
    """All overlap and inclusion ambiguities (i, j, right1, left2, right2),
    W = w_i right1 = left2 w_j right2, in the order found: by i, then the
    overlaps by suffix length, then the inclusions by position.

    An overlap is a proper suffix of w_i of length k that is a proper
    prefix of w_j: W = w_i w_j[k:].  An inclusion is w_j as a factor of
    w_i at offset p, w_j shorter or another element's word: W = w_i.  Each
    w_i looks its suffixes and factors up among the proper prefixes and
    the words of all elements, so no pair without an ambiguity is visited.
    """
    words = G.leading_words
    prefixes: dict[Word, list[int]] = {}  # a proper prefix -> the j whose word starts with it
    whole: dict[Word, list[int]] = {}  # a word -> the j whose word it is
    for j, w in enumerate(words):
        for k in range(1, len(w)):
            prefixes.setdefault(w[:k], []).append(j)
        whole.setdefault(w, []).append(j)
    found = []
    for i, w1 in enumerate(words):
        n1 = len(w1)
        for k in range(1, n1):
            for j in prefixes.get(w1[n1 - k:], ()):
                found.append((i, j, words[j][k:], w1[: n1 - k], ()))
        for p in range(n1):
            for q in range(p + 1, n1 + 1):
                for j in whole.get(w1[p:q], ()):
                    if q - p < n1 or j != i:
                        found.append((i, j, (), w1[:p], w1[q:]))
    return found


def _s_polynomial_ends(G: FreeGroebnerCandidate, i: int, j: int, right1: Word, left2: Word,
                       right2: Word) -> tuple[dict, int]:
    """The S-polynomial of the ambiguity w_i right1 = left2 w_j right2 on
    integers, (L_j/g) tail_i right1 - (L_i/g) left2 tail_j right2 with g =
    gcd(L_i, L_j), which is L_i L_j / g times the monic one: each of its
    words summed straight onto the end of its chain, as ``_reduce`` takes
    them, and the multiple L_i L_j / g."""
    leads, chain_end = G.leads, G._chain_end
    g = gcd(leads[i], leads[j])
    a, b = leads[j] // g, leads[i] // g
    ends: dict = {}
    for factor, left, tail, right in ((a, (), G.tails[i], right1), (-b, left2, G.tails[j], right2)):
        for t, c in tail:
            w = left + t + right
            entry, f = chain_end(w)
            if f:
                v = ends.get(entry, 0) + factor * c * f
                if v:
                    ends[entry] = v
                else:
                    del ends[entry]
    return ends, a * b * g


def obstructions_resolve(G: FreeGroebnerCandidate) -> tuple[bool, list[Obstruction]]:
    """Reduce every S-polynomial; (True, []) iff all vanish, otherwise the
    failing ambiguities are returned as certificates, sorted by their word
    W, then by (i, j), then by the position of w_j in W.

    The yes/no does not depend on the order of the reductions, so the
    ambiguities are taken as found, and only a failure's W is built and
    keyed.  Each S-polynomial is summed onto chain ends as integers
    (``_s_polynomial_ends``); one whose sum cancels there reduces to 0,
    and the rest go through ``_reduce``.  A failing remainder stays on
    integers, over its scale times the multiple (``Obstruction``)."""
    failed = []
    for i, j, right1, left2, right2 in enumerate_obstructions(G):
        ends, multiple = _s_polynomial_ends(G, i, j, right1, left2, right2)
        if not ends:
            continue
        remainder, scale = _reduce(G, ends)
        if remainder:
            failed.append((G.leading_words[i] + right1, i, j, len(left2), remainder, scale * multiple))
    if not failed:
        return True, []
    failed.sort(key=lambda f: (G.order.word_key(f[0]), *f[1:4]))
    return False, [
        Obstruction(i, j, word, FreePolynomial._raw(remainder), scale) for word, i, j, _, remainder, scale in failed
    ]


def normal_word_counts(auto: PatternAutomaton, d: int) -> list[int]:
    """Numbers of words of degrees 0..d avoiding every pattern of the
    automaton, by dynamic programming over it.  A word that avoids the
    minimal patterns avoids all of them, so the automaton of a candidate's
    leading words, repeats and multiples included, counts the normal
    words of their ideal."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
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


def dimension_check(dims: dict[int, int], auto: PatternAutomaton, n: int, max_degree: int) -> list[tuple[int, int, int]]:
    """(d, dim J_d, n^d minus the words of degree d that avoid ``auto``'s
    patterns) for d = 0..max_degree, ``dims`` giving dim J_d (0 if absent)."""
    return [(d, dims.get(d, 0), n**d - c) for d, c in enumerate(normal_word_counts(auto, max_degree))]


def hilbert_rational(B: MonomialIdealFree) -> tuple[list[int], list[int]]:
    """Generating function of normal-word counts as a reduced rational
    function; coefficient lists ascending in t, denominator normalized to
    constant term 1 (so a polynomial comes back as (coeffs, [1])).

    The counts are walk numbers in the avoidance automaton with k live
    states, so the series is num/den with den dividing det(I - tM), of
    degree <= k, and deg num < k: the counts satisfy a linear recurrence of
    order <= k, which the first 2k of them fix.  Berlekamp-Massey over Q
    finds the shortest one; its connection polynomial is the reduced den.

    Every prefix of a normal word is normal, so once a count is 0 every
    later one is, and the series is the polynomial of the counts before
    that zero, over 1.  A normal word of length k would pass a live state
    twice and repeat the loop between, so a finite series has its zero
    among the counts up to degree k; Berlekamp-Massey runs only for
    infinite series.
    """
    auto = B.automaton()
    counts = normal_word_counts(auto, 2 * auto.match.count(-1))
    if 0 in counts:
        return counts[: counts.index(0)], [1]
    from fractions import Fraction

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
    gens: list[tuple[int, list[tuple[Word, int]]]], ctx: AlgebraContext, d: int, keys: dict
) -> list[Row]:
    """Spanning rows of the degree-d slice of the two-sided ideal: all word
    multiples A g B with |A| + deg g + |B| = d, as integer rows keyed by
    ``keys``, the order's memo.  Each generator comes as its degree and the
    terms of its primitive integer multiple, which spans the same slices."""
    rows = []
    for e, terms in gens:
        if e > d:
            continue
        for la in range(d - e + 1):
            rights = words_of_degree(ctx, d - e - la)
            for A in words_of_degree(ctx, la):
                for B in rights:
                    rows.append({keys[A + w + B]: c for w, c in terms})
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
    initial-ideal slice, so only an echelon form is asked for, with no
    back-substitution.  The initial ideal is two-sided, so a pivot is a
    new minimal generator iff dropping its first or its last letter leaves
    no pivot of the slice below.  Each generator is scaled once to its
    primitive integer multiple, and each word keyed once, in ``keys``."""
    keys = order.keys
    prims = [(g.degree, list(primitive(g.terms).items())) for g in gens if g]
    mingens: list[Word] = []
    dims: dict[int, int] = {}
    leads: list[Word] = []
    dmin = min((e for e, _ in prims), default=max_degree + 1)
    for d in range(dmin, max_degree + 1):
        below = set(leads)
        leads = [keys.column[k] for k in echelon(ideal_slice_rows(prims, ctx, d, keys))]
        dims[d] = len(leads)
        mingens += [w for w in leads if w[1:] not in below and w[:-1] not in below]
    return FreeInitialData(MonomialIdealFree(mingens, ctx.n, order), dims)


def ideal_slice_dims(
    elements: list[FreePolynomial],
    leading_words: list[Word],
    ctx: AlgebraContext,
    order: FreeOrderSpec,
    max_degree: int,
) -> dict[int, int]:
    """dim J_d, J the ideal of the homogeneous ``elements``, each any
    nonzero multiple of itself, for d from their lowest degree to
    ``max_degree`` (the keys of ``free_initial_ideal``'s ``slice_dims``):
    off the exterior slices of pi(J) when J holds every anti-commutator
    (README, "Command-line usage"), otherwise off the free slices.  An
    element is an anti-commutator iff its primitive form with a positive
    lead equals the one among whose words its leading word is; pi of one
    is 0, so pi is taken only of the other elements, and pi of a multiple
    spans the same slices."""
    relations = anti_commutators(ctx)
    by_word = {w: A.terms for A in relations for w in A.terms}
    found, others = set(), []
    for w, F in zip(leading_words, elements):
        if len(w) == 2 and w in by_word and _positive_primitive(F, w) == by_word[w]:
            found.add(w)
        else:
            others.append(F)
    if len(found) < len(relations):
        return free_initial_ideal(elements, ctx, order, max_degree).slice_dims
    from .exterior import ExtIdeal, groebner_ext

    n = ctx.n
    dims = groebner_ext(ExtIdeal(ctx, [pi(F) for F in others], order.base), max_degree).slice_dims
    low = min(len(w) for w in leading_words)
    return {d: n**d - comb(n, d) + (dims[d] if d <= n else 0) for d in range(low, max_degree + 1)}
