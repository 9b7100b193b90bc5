"""Exact-rational arithmetic in the exterior algebra E(V) and the free
associative algebra K<X1,...,Xn>, together with the projection pi, its
section delta, and the GL(V) action on both algebras.

Conventions:
  - scalars are ``fractions.Fraction`` (exact, always reduced);
  - a free-monoid word is a tuple of variable indices in 1..n, () is 1;
  - an exterior monomial is a square-free product x_I, stored as the index
    set I (a bitmask); signs are never stored in monomials, they are folded
    into coefficients when multiplying or projecting.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from fractions import Fraction
from itertools import combinations, product

from .linalg import pivots

Word = tuple[int, ...]

MAX_VARS = 64


class AlgebraContext:
    """Number of variables n; all indices must lie in 1..n."""

    __slots__ = ("n",)

    def __init__(self, n: int):
        if not 1 <= n <= MAX_VARS:
            raise ValueError(f"number of variables must be in 1..{MAX_VARS}, got {n}")
        self.n = n

    def __eq__(self, other) -> bool:
        return isinstance(other, AlgebraContext) and self.n == other.n

    def __hash__(self):
        return hash(self.n)

    def check_index(self, i: int) -> None:
        if not 1 <= i <= self.n:
            raise ValueError(f"variable index {i} out of range 1..{self.n}")


class ExtMonomial:
    """Square-free exterior monomial x_I, I a strictly increasing index set."""

    __slots__ = ("bits",)

    def __init__(self, indices: Iterable[int] = ()):
        bits = 0
        for i in indices:
            if i < 1:
                raise ValueError(f"variable index {i} must be positive")
            bits |= 1 << i
        object.__setattr__(self, "bits", bits)

    @classmethod
    def from_bits(cls, bits: int) -> "ExtMonomial":
        m = cls.__new__(cls)
        object.__setattr__(m, "bits", bits)
        return m

    @property
    def support(self) -> Word:
        bits, out, i = self.bits, [], 0
        while bits:
            i = (bits & -bits).bit_length() - 1
            out.append(i)
            bits &= bits - 1
        return tuple(out)

    @property
    def degree(self) -> int:
        return self.bits.bit_count()

    def divides(self, other: "ExtMonomial") -> bool:
        return self.bits & ~other.bits == 0

    def __truediv__(self, other: "ExtMonomial") -> "ExtMonomial":
        if not other.divides(self):
            raise ValueError(f"{other} does not divide {self}")
        return ExtMonomial.from_bits(self.bits & ~other.bits)

    def disjoint(self, other: "ExtMonomial") -> bool:
        return self.bits & other.bits == 0

    def mul_sign(self, other: "ExtMonomial") -> int:
        """Sign of x_I * x_J = sign * x_{I|J}; 0 if the supports meet.

        The sign is (-1)^inv where inv counts pairs (i, j), i in I, j in J,
        with i > j.
        """
        if self.bits & other.bits:
            return 0
        inv, bits = 0, self.bits
        while bits:
            low = (bits & -bits).bit_length() - 1
            inv += (other.bits & ((1 << low) - 1)).bit_count()
            bits &= bits - 1
        return -1 if inv & 1 else 1

    def __mul__(self, other: "ExtMonomial") -> "ExtMonomial":
        # unsigned product; use mul_sign for the coefficient
        if self.bits & other.bits:
            raise ValueError("product of overlapping exterior monomials is zero")
        return ExtMonomial.from_bits(self.bits | other.bits)

    def __eq__(self, other) -> bool:
        return isinstance(other, ExtMonomial) and self.bits == other.bits

    def __hash__(self) -> int:
        return hash(self.bits)

    def __repr__(self) -> str:
        return f"ExtMonomial({list(self.support)})"

    def __str__(self) -> str:
        return "".join(f"x{i}" for i in self.support) or "1"


def word_sort_sign(word: Word) -> tuple[int, Word]:
    """Sort a word's letters, counting transpositions: (sign, sorted word).

    Sign is 0 when a letter repeats (the square-free image vanishes); that
    is checked before sorting, so a long word with repeats costs no sort.
    """
    if len(set(word)) < len(word):
        return 0, tuple(sorted(word))
    letters = list(word)
    sign = 1
    for i in range(1, len(letters)):
        j = i
        while j > 0 and letters[j - 1] > letters[j]:
            letters[j - 1], letters[j] = letters[j], letters[j - 1]
            sign = -sign
            j -= 1
    return sign, tuple(letters)


def _add_into(acc: dict, pairs: Iterable) -> dict:
    """Add each (key, value) of pairs into acc, dropping a key whose sum is
    0; returns acc.  A new key is stored as is: adding a Fraction to 0
    would cost a Fraction operation."""
    for k, v in pairs:
        s = acc.get(k)
        if s is None:
            if v:
                acc[k] = v
        else:
            s += v
            if s:
                acc[k] = s
            else:
                del acc[k]
    return acc


class _TermPolynomial:
    """Shared term-map plumbing for both polynomial flavours."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping | Iterable = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        self.terms = _add_into({}, ((m, Fraction(c)) for m, c in items))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self) -> Iterator:
        return iter(self.terms.items())

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        return type(self)._raw(_add_into(dict(self.terms), other.terms.items()))

    def __sub__(self, other):
        return type(self)._raw(_add_into(dict(self.terms), ((m, -c) for m, c in other.terms.items())))

    def __neg__(self):
        return type(self)._raw({m: -c for m, c in self.terms.items()})

    def scale(self, c) -> "_TermPolynomial":
        c = Fraction(c)
        if not c:
            return type(self)._raw({})
        return type(self)._raw({m: c * v for m, v in self.terms.items()})

    @classmethod
    def _raw(cls, terms: dict):
        p = cls.__new__(cls)
        p.terms = terms
        return p

    def degrees(self) -> set[int]:
        raise NotImplementedError

    def is_homogeneous(self) -> bool:
        return len(self.degrees()) <= 1

    @property
    def degree(self) -> int:
        degs = self.degrees()
        if len(degs) != 1:
            raise ValueError("degree of a zero or non-homogeneous element is undefined")
        return degs.pop()


class ExtPolynomial(_TermPolynomial):
    """Element of E(V): finite map ExtMonomial -> nonzero Fraction."""

    def degrees(self) -> set[int]:
        return {m.degree for m in self.terms}

    def __mul__(self, other: "ExtPolynomial") -> "ExtPolynomial":
        return ExtPolynomial._raw(_add_into({}, (
            (m * u, s * a * b)
            for m, a in self.terms.items()
            for u, b in other.terms.items()
            if (s := m.mul_sign(u))
        )))

    @classmethod
    def monomial(cls, m: ExtMonomial, c=1) -> "ExtPolynomial":
        return cls([(m, c)])

    def __repr__(self) -> str:
        return f"ExtPolynomial({self.terms!r})"


class FreePolynomial(_TermPolynomial):
    """Element of K<X1,...,Xn>: finite map Word -> nonzero Fraction."""

    def degrees(self) -> set[int]:
        return {len(w) for w in self.terms}

    def __mul__(self, other: "FreePolynomial") -> "FreePolynomial":
        return FreePolynomial._raw(_add_into({}, (
            (w + v, a * b) for w, a in self.terms.items() for v, b in other.terms.items()
        )))

    @classmethod
    def monomial(cls, w: Word, c=1) -> "FreePolynomial":
        return cls([(tuple(w), c)])

    def __repr__(self) -> str:
        return f"FreePolynomial({self.terms!r})"


def pi(F: FreePolynomial) -> ExtPolynomial:
    """Quotient map onto E(V): sort each word with its sign, kill repeats."""
    sorted_terms = ((word_sort_sign(w), c) for w, c in F.terms.items())
    return ExtPolynomial._raw(_add_into({}, (
        (ExtMonomial(sorted_word), sign * c) for (sign, sorted_word), c in sorted_terms if sign
    )))


def delta(f: ExtPolynomial) -> FreePolynomial:
    """Linear section of pi: x_{i1}...x_{ir} (i1<...<ir) -> X_{i1}...X_{ir}."""
    return FreePolynomial._raw({m.support: c for m, c in f.terms.items()})


class GLMatrix:
    """Invertible n x n matrix of exact rationals, acting on variables by
    X_i -> sum_l g[l][i] X_l; one with fewer than n pivots is singular.
    An integral entry is kept as an ``int``."""

    __slots__ = ("n", "entries")

    def __init__(self, entries: Iterable[Iterable] = ()):
        rows = [tuple(f.numerator if (f := Fraction(e)).denominator == 1 else f for e in row) for row in entries]
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise ValueError("matrix must be square and non-empty")
        self.n = n
        self.entries = tuple(rows)
        if len(pivots(({j: e for j, e in enumerate(row) if e} for row in rows), int)) < n:
            raise ValueError("matrix is singular")

    def __eq__(self, other) -> bool:
        return isinstance(other, GLMatrix) and self.entries == other.entries

    def __repr__(self) -> str:
        return f"GLMatrix({[list(map(str, r)) for r in self.entries]})"


def _columns(g: GLMatrix) -> list[list[tuple[int, int | Fraction]]]:
    """Item i - 1 is the image of X_i: the pairs (l, g[l][i]) with g[l][i] != 0."""
    return [[(l, row[i]) for l, row in enumerate(g.entries, 1) if row[i]] for i in range(g.n)]


def apply_gl(g: GLMatrix, F: FreePolynomial) -> FreePolynomial:
    """Substitute X_i -> sum_l g[l][i] X_l and expand the word products.

    Each word is expanded letter by letter, appending a letter l of the
    column of the next variable; distinct paths give distinct words.  The
    partial products multiply entries only (integers for an integral g),
    and the term's coefficient is applied once per output word."""
    cols = _columns(g)
    acc: dict[Word, Fraction] = {}
    for w, c in F.terms.items():
        partial: dict[Word, int | Fraction] = {(): 1}
        for letter in w:
            partial = {pw + (l,): pc * e for pw, pc in partial.items() for l, e in cols[letter - 1]}
        _add_into(acc, ((pw, c * pc) for pw, pc in partial.items()))
    return FreePolynomial._raw(acc)


def apply_gl_ext(g: GLMatrix, f: ExtPolynomial) -> ExtPolynomial:
    """Induced GL(V) action on E(V); equals pi(apply_gl(g, delta(f))).

    Each monomial is expanded letter by letter on bitmasks, as apply_gl
    expands a word: x_P * x_l is 0 if l is in P, and otherwise x_{P+l}
    with the sign (-1)^(letters of P above l)."""
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


def ext_monomials_of_degree(ctx: AlgebraContext, d: int) -> list[ExtMonomial]:
    """All square-free monomials of degree d, in index order."""
    if d < 0 or d > ctx.n:
        return []
    return [ExtMonomial(c) for c in combinations(range(1, ctx.n + 1), d)]


def words_of_degree(ctx: AlgebraContext, d: int) -> list[Word]:
    """All words of length d over 1..n, in lexicographic index order."""
    if d < 0:
        return []
    return [tuple(w) for w in product(range(1, ctx.n + 1), repeat=d)]
