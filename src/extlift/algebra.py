"""Exact-rational arithmetic in the exterior algebra E(V) and the free
associative algebra K<X1,...,Xn>, together with the projection pi, its
section delta, and the GL(V) action on both algebras.

Conventions:
  - scalars are exact: parsed and transformed integral ones, those of the
    anti-commutators and an int given to ``monomial`` may be ``int``;
    the public views of every basis element, lifted element and remainder
    hold ``fractions.Fraction``s (always reduced), as the public
    constructors and ``scale`` do;
  - behind those views each is one integer view: int numerators over one
    nonzero int denominator (``IdealFile.multiples``,
    ``ExtGroebnerBasis.multiples``, ``LiftedBasis.multiples``,
    ``Obstruction.scaled``), which the commands read and print through
    ``parsing.ratio_str``, and a view makes its Fractions on first read;
    ``fractions`` is imported only where one is made;
  - a free-monoid word is a tuple of variable indices in 1..n, () is 1;
  - an exterior monomial is a square-free product x_I, stored as the index
    set I (a bitmask); signs are never stored in monomials, they are folded
    into coefficients when multiplying or projecting.

The GL(V) action on E(V) works on bitmasks: it splits each term into its
lowest letter and a cofactor, and maps each distinct cofactor once.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from itertools import product

from .linalg import echelon, primitive

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
        self.bits = bits

    @classmethod
    def from_bits(cls, bits: int) -> "ExtMonomial":
        m = cls.__new__(cls)
        m.bits = bits
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

    def mul_sign(self, other: "ExtMonomial") -> int:
        """Sign of x_I * x_J = sign * x_{I|J}; 0 if the supports meet.

        The sign is (-1)^inv where inv counts pairs (i, j), i in I, j in J,
        with i > j: the parity of the letters of I in ``_odd_below(J)``.
        """
        if self.bits & other.bits:
            return 0
        return -1 if (self.bits & _odd_below(other.bits)).bit_count() & 1 else 1

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


def _odd_below(bits: int) -> int:
    """The bitmask of the variables i with an odd number of the letters of
    x_bits below them.  For u disjoint from bits, moving each letter of
    x_u past the letters of x_bits below it gives
    x_u * x_bits = (-1)^popcount(u & odd) x_{u|bits}.

    Each letter flips every bit above it, so no variable count is needed.
    Above the top letter the mask is all ones when bits has an odd number
    of letters, so it may be negative; it is only ever ``&``-ed with a
    nonnegative bitmask, which makes the result nonnegative."""
    odd = 0
    while bits:
        low = bits & -bits
        odd ^= -(low << 1)
        bits ^= low
    return odd


def word_sort_sign(word: Word) -> tuple[int, Word]:
    """Sort a word's letters, counting inversions: (sign, sorted word).

    Sign is 0 when a letter repeats (the square-free image vanishes), which
    is checked first.  Otherwise each letter counts the earlier letters
    above it.
    """
    if len(set(word)) < len(word):
        return 0, tuple(sorted(word))
    inv = seen = 0
    for a in word:
        inv += (seen >> a).bit_count()
        seen |= 1 << a
    return -1 if inv & 1 else 1, tuple(sorted(word))


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
        from fractions import Fraction

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
        from fractions import Fraction

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
        return {m.bits.bit_count() for m in self.terms}

    def __mul__(self, other: "ExtPolynomial") -> "ExtPolynomial":
        return ExtPolynomial._raw(_add_into({}, (
            (m * u, s * a * b)
            for m, a in self.terms.items()
            for u, b in other.terms.items()
            if (s := m.mul_sign(u))
        )))

    @classmethod
    def monomial(cls, m: ExtMonomial, c=1) -> "ExtPolynomial":
        """c * m; an int c stays an int, any other is made a Fraction."""
        return cls._raw({m: c} if c else {}) if type(c) is int else cls([(m, c)])

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
        """c * w; an int c stays an int, any other is made a Fraction."""
        return cls._raw({tuple(w): c} if c else {}) if type(c) is int else cls([(tuple(w), c)])

    def __repr__(self) -> str:
        return f"FreePolynomial({self.terms!r})"


def anti_commutators(ctx: AlgebraContext) -> list[FreePolynomial]:
    """Monic defining relations of E(V): X_i X_j + X_j X_i for i < j and
    X_i^2 (the i = j relation 2 X_i^2, normalized); n(n+1)/2 in total.

    Under the lifted order each has leading word X_j X_i with j >= i.
    """
    out = []
    for i in range(1, ctx.n + 1):
        out.append(FreePolynomial.monomial((i, i)))
        for j in range(i + 1, ctx.n + 1):
            out.append(FreePolynomial._raw({(i, j): 1, (j, i): 1}))
    return out


def anti_commutator_leading_words(ctx: AlgebraContext) -> list[Word]:
    """The leading words X_j X_i (j >= i) of ``anti_commutators``."""
    return [(j, i) for i in range(1, ctx.n + 1) for j in range(i, ctx.n + 1)]


def pi(F: FreePolynomial) -> ExtPolynomial:
    """Quotient map onto E(V): sort each word with its sign, kill repeats."""
    sorted_terms = ((word_sort_sign(w), c) for w, c in F.terms.items())
    return ExtPolynomial._raw(_add_into({}, (
        (ExtMonomial(sorted_word), c if sign > 0 else -c) for (sign, sorted_word), c in sorted_terms if sign
    )))


def delta(f: ExtPolynomial) -> FreePolynomial:
    """Linear section of pi: x_{i1}...x_{ir} (i1<...<ir) -> X_{i1}...X_{ir}."""
    return FreePolynomial._raw({m.support: c for m, c in f.terms.items()})


class GLMatrix:
    """Invertible n x n matrix of exact rationals, acting on variables by
    X_i -> sum_l g[l][i] X_l; one with fewer than n pivots is singular.
    An integral entry is kept as an ``int``, and an ``int`` entry makes no
    ``Fraction``."""

    __slots__ = ("n", "entries")

    def __init__(self, entries: Iterable[Iterable] = ()):
        rows = [tuple(e if type(e) is int else _integral(e) for e in row) for row in entries]
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise ValueError("matrix must be square and non-empty")
        self.n = n
        self.entries = tuple(rows)
        if len(echelon([primitive({j: e for j, e in enumerate(row) if e}) for row in rows])) < n:
            raise ValueError("matrix is singular")

    def __eq__(self, other) -> bool:
        return isinstance(other, GLMatrix) and self.entries == other.entries

    def __repr__(self) -> str:
        return f"GLMatrix({[list(map(str, r)) for r in self.entries]})"


def _integral(e):
    """A matrix entry other than an int (a bool too) as a Fraction, or as
    an int when it is integral."""
    from fractions import Fraction

    f = Fraction(e)
    return f.numerator if f.denominator == 1 else f


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


def _image_ext(cols: list, terms: dict) -> dict:
    """The image of sum c * x_b over ``terms`` (bitmask b -> c) under the
    substitution with columns ``cols``, as bitmask -> coefficient.  Each
    term splits into its lowest letter x_a and its cofactor, which has
    only letters above a: sum_b c x_b = sum_a x_a f_a.  Each f_a is mapped
    once, recursively, and wedged with g(x_a) = sum_l e x_l, where
    x_l * x_P is 0 if l is in P, and otherwise x_{P+l} with the sign
    (-1)^(letters of P below l)."""
    cofactors: dict[int, dict] = {}
    for b, c in terms.items():
        low = b & -b
        f = cofactors.get(low)
        if f is None:
            cofactors[low] = {b ^ low: c}
        else:
            f[b ^ low] = c
    acc = cofactors.pop(0, {})  # the constant term maps to itself
    for low, f in cofactors.items():
        image = _image_ext(cols, f).items()
        for bit, e in cols[low.bit_length() - 2]:
            below = bit - 1
            for pb, pc in image:
                if pb & bit:
                    continue
                k = pb | bit
                v = -e * pc if (pb & below).bit_count() & 1 else e * pc
                s = acc.get(k)
                if s is None:
                    acc[k] = v
                else:
                    s += v
                    if s:
                        acc[k] = s
                    else:
                        del acc[k]
    return acc


def apply_gl_ext(g: GLMatrix, f: ExtPolynomial) -> ExtPolynomial:
    """Induced GL(V) action on E(V); equals pi(apply_gl(g, delta(f))).

    The terms are mapped on bitmasks, grouped by their lowest letter, so
    that terms sharing their lowest letters share the images of those
    letters' cofactors (``_image_ext``)."""
    cols = [[(1 << l, e) for l, e in col] for col in _columns(g)]
    image = _image_ext(cols, {m.bits: c for m, c in f.terms.items()})
    return ExtPolynomial._raw({ExtMonomial.from_bits(b): v for b, v in image.items()})


def words_of_degree(ctx: AlgebraContext, d: int) -> list[Word]:
    """All words of length d over 1..n, in lexicographic index order."""
    if d < 0:
        return []
    return [tuple(w) for w in product(range(1, ctx.n + 1), repeat=d)]
