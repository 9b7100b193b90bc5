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

Each spec owns the one memo of its integer keys (``KeyMemo``), both ways:
the slice loops index it, ``ext_key`` and ``word_key`` read it.  An
exterior key is made from the monomial's bitmask alone (``bits_key``):
within a degree, deglex is the order of the rank-permuted bits, since the
largest variable of the symmetric difference decides, and degrevlex is
the order of their complemented bit reversal, since the smallest one
decides and the monomial lacking it is larger.  A word key is its bytes
of ranks, sorted and then as written, read as one integer: a table
lookup (``bytes.translate``), a sort and ``int.from_bytes``, each one C
call.
"""

from __future__ import annotations

from .algebra import MAX_VARS, ExtMonomial, ExtPolynomial, FreePolynomial, Word

KINDS = ("deglex", "degrevlex")

# An exterior key is the degree above MONO_BITS bits that order the
# monomials of that degree: bit r stands for rank r (deglex) or for rank
# MAX_VARS - r (degrevlex), with r in 1..MAX_VARS.
MONO_BITS = MAX_VARS + 1


class KeyMemo(dict):
    """The one memo of a spec's order keys: column -> key, each key
    computed once, by ``key``, on the column's first lookup, and
    ``column``, the map back from each key to its column."""

    __slots__ = ("key", "column")

    def __init__(self, key):
        super().__init__()
        self.key, self.column = key, {}

    def __missing__(self, c):
        k = self[c] = self.key(c)
        self.column[k] = c
        return k


class ExtOrderSpec:
    """Base order on monomials: kind plus an optional variable ranking.

    ``ranking`` permutes 1..n; ranking[i] is the rank of variable i+1, and
    variables of higher rank are larger.  Default is the natural ranking
    x1 < x2 < ... < xn.  ``keys`` memoises each monomial's key per
    instance, both ways, on its bitmask; the slice loops index it.
    """

    __slots__ = ("kind", "ranking", "keys", "_image", "_flip")

    def __init__(self, kind: str = "deglex", ranking: tuple[int, ...] | None = None):
        if kind not in KINDS:
            raise ValueError(f"unknown order kind {kind!r}; expected one of {KINDS}")
        if ranking is not None and sorted(ranking) != list(range(1, len(ranking) + 1)):
            raise ValueError("variable ranking must be a permutation of 1..n")
        self.kind, self.ranking = kind, ranking
        # each variable's bit -> its key bit; degrevlex reverses the ranks
        # and complements the result
        variables = range(1, MAX_VARS + 1 if ranking is None else len(ranking) + 1)
        deglex = kind == "deglex"
        self._image = {1 << i: 1 << (self.rank(i) if deglex else MAX_VARS - self.rank(i)) for i in variables}
        self._flip = 0 if deglex else (1 << MAX_VARS) - 1
        self.keys = KeyMemo(self.bits_key)

    def rank(self, i: int) -> int:
        if self.ranking is None:
            return i
        return self.ranking[i - 1]

    def bits_key(self, bits: int) -> int:
        """The key of the monomial with bitmask ``bits``: its degree, then
        its variables' key bits, complemented under degrevlex."""
        image, v, rest = self._image, 0, bits
        while rest:
            low = rest & -rest
            v |= image[low]
            rest ^= low
        return bits.bit_count() << MONO_BITS | v ^ self._flip

    def ext_key(self, m: ExtMonomial) -> int:
        return self.keys[m.bits]


class FreeOrderSpec:
    """Degree-first lift of an exterior order to the free monoid; ``keys`` memoises each word's key both ways.

    A word's key has one byte per letter for its multiset key, then one
    per letter for its ranks left to right.  The multiset key is the ranks
    sorted: descending under deglex, which compares exponents from the
    largest variable down, and ascending under degrevlex, which prefers
    the monomial lacking the smallest differing variable.  Ranks lie in
    1..MAX_VARS, so no byte is 0 and a longer word has a larger key."""

    __slots__ = ("base", "keys")

    def __init__(self, base: ExtOrderSpec | None = None):
        self.base = ExtOrderSpec() if base is None else base
        ranking = self.base.ranking
        table = bytearray(256)  # letter -> rank; letters lie in 1..MAX_VARS
        for i in range(1, MAX_VARS + 1 if ranking is None else len(ranking) + 1):
            table[i] = self.base.rank(i)
        table, descending = bytes(table), self.base.kind == "deglex"

        def key(w: Word) -> int:
            ranks = bytes(w).translate(table)
            return int.from_bytes(bytes(sorted(ranks, reverse=descending)) + ranks, "big")

        self.keys = KeyMemo(key)

    def word_key(self, w: Word) -> int:
        return self.keys[w]


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


def monic_free(F: FreePolynomial, spec: FreeOrderSpec) -> FreePolynomial:
    """F over its lead coefficient; F itself when that is already 1.  The
    lead may be an int, so it is divided as a Fraction, never as a float."""
    _, c = leading_term_free(F, spec)
    if c == 1:
        return F
    from fractions import Fraction

    return F.scale(1 / Fraction(c))


def sorted_terms_ext(f: ExtPolynomial, spec: ExtOrderSpec) -> list[tuple[ExtMonomial, Fraction]]:
    return [(m, f.terms[m]) for m in sorted(f.terms, key=spec.ext_key, reverse=True)]


def sorted_terms_free(F: FreePolynomial, spec: FreeOrderSpec) -> list[tuple[Word, Fraction]]:
    return [(w, F.terms[w]) for w in sorted(F.terms, key=spec.word_key, reverse=True)]
