"""Term orders: the commutative base order (deglex or degrevlex) restricted
to square-free monomials, and its lift to a monoid well-order on words.

All comparisons are degree-first.  Within a degree, a word is compared by
the base order applied to its commutative image (the multiset of its
letters) and ties are broken lexicographically; on square-free strictly
increasing words this agrees with the exterior order through the section
delta.  Comparing commutative images (rather than only the square-free
ones) is what makes the lifted relation transitive: comparing words with a
repeated letter purely lexicographically admits cycles such as
X2X3 < X1X4 < X2X2 < X2X3 under deglex with four variables.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import MAX_VARS, ExtMonomial, ExtPolynomial, FreePolynomial, Word

KINDS = ("deglex", "degrevlex")

# A key is an integer with one DIGIT_BITS-bit digit per rank.  Ranks lie in
# 1..MAX_VARS, so no digit is 0 and a key with more digits is larger.
DIGIT_BITS = MAX_VARS.bit_length()


def _digits(ranks) -> int:
    k = 0
    for r in ranks:
        k = k << DIGIT_BITS | r
    return k


class ExtOrderSpec:
    """Base order on monomials: kind plus an optional variable ranking.

    ``ranking`` permutes 1..n; ranking[i] is the rank of variable i+1, and
    variables of higher rank are larger.  Default is the natural ranking
    x1 < x2 < ... < xn.  ``_keys`` memoises ``ext_key`` per instance.
    """

    __slots__ = ("kind", "ranking", "_keys")

    def __init__(self, kind: str = "deglex", ranking: tuple[int, ...] | None = None):
        if kind not in KINDS:
            raise ValueError(f"unknown order kind {kind!r}; expected one of {KINDS}")
        if ranking is not None and sorted(ranking) != list(range(1, len(ranking) + 1)):
            raise ValueError("variable ranking must be a permutation of 1..n")
        self.kind, self.ranking, self._keys = kind, ranking, {}

    def rank(self, i: int) -> int:
        if self.ranking is None:
            return i
        return self.ranking[i - 1]

    def multiset_key(self, letters: Word) -> tuple[int, ...]:
        """Key comparing commutative monomials of equal degree.

        deglex compares exponents from the largest variable down, which on
        letter multisets is lexicographic comparison of the descending rank
        tuple; degrevlex prefers the monomial *lacking* the smallest
        differing variable, which is lexicographic comparison of the
        ascending rank tuple.
        """
        ranks = [self.rank(i) for i in letters]
        ranks.sort(reverse=self.kind == "deglex")
        return tuple(ranks)

    def ext_key(self, m: ExtMonomial) -> int:
        k = self._keys.get(m.bits)
        if k is None:
            k = self._keys[m.bits] = _digits(self.multiset_key(m.support))
        return k


class FreeOrderSpec:
    """Degree-first lift of an exterior order to the free monoid; ``_keys`` memoises ``word_key``."""

    __slots__ = ("base", "_keys")

    def __init__(self, base: ExtOrderSpec = ExtOrderSpec()):
        self.base, self._keys = base, {}

    def word_key(self, w: Word) -> int:
        k = self._keys.get(w)
        if k is None:
            k = self._keys[w] = _digits(self.base.multiset_key(w) + tuple(map(self.base.rank, w)))
        return k


def leading_term_ext(f: ExtPolynomial, spec: ExtOrderSpec) -> tuple[ExtMonomial, Fraction]:
    if not f:
        raise ValueError("zero polynomial has no leading term")
    m = max(f.terms, key=spec.ext_key)
    return m, f.terms[m]


def leading_term_free(F: FreePolynomial, spec: FreeOrderSpec) -> tuple[Word, Fraction]:
    if not F:
        raise ValueError("zero polynomial has no leading term")
    w = max(F.terms, key=spec.word_key)
    return w, F.terms[w]


def monic_ext(f: ExtPolynomial, spec: ExtOrderSpec) -> ExtPolynomial:
    _, c = leading_term_ext(f, spec)
    return f.scale(1 / c)


def monic_free(F: FreePolynomial, spec: FreeOrderSpec) -> FreePolynomial:
    _, c = leading_term_free(F, spec)
    return F.scale(1 / c)


def sorted_terms_ext(f: ExtPolynomial, spec: ExtOrderSpec) -> list[tuple[ExtMonomial, Fraction]]:
    return [(m, f.terms[m]) for m in sorted(f.terms, key=spec.ext_key, reverse=True)]


def sorted_terms_free(F: FreePolynomial, spec: FreeOrderSpec) -> list[tuple[Word, Fraction]]:
    return [(w, F.terms[w]) for w in sorted(F.terms, key=spec.word_key, reverse=True)]
