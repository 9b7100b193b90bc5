"""Ideal file parsing and exact serialization.

File format (see README for the grammar):

    # comment
    vars: 3
    algebra: exterior          | free
    order: deglex              (optional; deglex | degrevlex)
    varorder: 1,2,3            (optional; permutation, smallest first)
    generators:
    x1*x2 + 3/2*x2*x3
    x1*x3

Each header key may appear once, and "generators:" stands alone on its
line, which the file must have.  A generator line is [sign] term
{sign term}: a term is a product of factors, each an integer, a rational
p/q or a variable with an optional ^k (k >= 0), and the "*" between two
factors may be left out only before a variable; "(" and ")" are refused.
Exterior generators use x1..xn, free-algebra generators X1..Xn.  Every
term parses to one coefficient, in lowest terms, and one word, and a
generator is the sum of its terms in the free algebra, or that sum's image
under algebra.pi in the exterior one: each word sorted with its sign
(x3*x2 parses to -x2x3), or zero if a letter repeats.  The sum is taken
on integers: the numerators over the terms' common denominator, which is
positive.  Only ``IdealFile.generators`` divides, on first read, with a
coefficient an int when every term summed into it since its sum was last
zero is integral, and a Fraction otherwise, as summing ints and Fractions
would give.  The free terms of a file may have at most its length plus
``MAX_FREE_TERM_LETTERS`` letters in all, which no file without an
exponent reaches.
"""

from __future__ import annotations

import re
from math import gcd, lcm

from .algebra import AlgebraContext, ExtMonomial, ExtPolynomial, FreePolynomial, word_sort_sign
from .orders import ExtOrderSpec, FreeOrderSpec, sorted_terms_ext, sorted_terms_free


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int | None = None):
        where = f"line {line}" + (f", column {col}" if col is not None else "")
        super().__init__(f"{where}: {message}")
        self.line = line
        self.col = col


class IdealFile:
    """A parsed file: ``algebra`` is "exterior" or "free", and each
    generator is kept as ``multiples[i]``, the Ext- or FreePolynomial of its
    integer numerators over one positive denominator, which spans the same
    ideal and is what the commands read.  ``generators``, the generators
    themselves, is made from them on first read."""

    __slots__ = ("ctx", "algebra", "order", "multiples", "_denominators", "_fractional", "_generators")

    def __init__(self, ctx: AlgebraContext, algebra: str, order: ExtOrderSpec, multiples: tuple,
                 denominators: tuple, fractional: tuple):
        self.ctx, self.algebra, self.order, self.multiples = ctx, algebra, order, multiples
        self._denominators, self._fractional, self._generators = denominators, fractional, None

    @property
    def free_order(self) -> FreeOrderSpec:
        return FreeOrderSpec(self.order)

    @property
    def generators(self) -> tuple:
        """Each multiple over its denominator: a coefficient in its
        ``fractional`` set is a Fraction, any other an int."""
        if self._generators is None:
            gens = []
            for N, den, fractional in zip(self.multiples, self._denominators, self._fractional):
                if fractional:
                    from fractions import Fraction

                    N = type(N)._raw({k: Fraction(v, den) if k in fractional else v // den for k, v in N.terms.items()})
                elif den != 1:  # the fractional terms cancelled
                    N = type(N)._raw({k: v // den for k, v in N.terms.items()})
                gens.append(N)
            self._generators = tuple(gens)
        return self._generators


# [0-9], not \d, which also matches non-ASCII digits such as '٣'
_TOKEN = re.compile(r"\s*(?:([0-9]+)|([xX])([0-9]+)|([-+*/^()])|(\S))")
_END = ("$", None, None)  # the end of the line: a tag no token has, and no column
# the most letters a free term may have, across its factors: X1^k asks for k
MAX_FREE_TERM_LETTERS = 2**16


def _tokenize(text: str, line: int) -> list:
    """The line's tokens as (tag, value, column), then ``_END``: tag "n" for an
    integer, a variable's letter with its index, or an operator with None.
    The first character that starts no token is refused here, before any
    grammar error on the line."""
    out = []
    for m in _TOKEN.finditer(text):
        group = m.lastindex
        if group == 5:
            raise ParseError(f"unexpected character {m[5]!r}", line, m.start(5) + 1)
        if group == 1:
            out.append(("n", int(m[1]), m.start(1) + 1))
        elif group == 3:
            out.append((m[2], int(m[3]), m.start(2) + 1))
        else:
            out.append((m[4], None, m.start(4) + 1))
    out.append(_END)
    return out


def _sum_terms(terms) -> tuple[dict, set]:
    """The sum of ``terms``, triples (key, int value, fractional): the map
    key -> nonzero sum, in the order the keys first reach it, and the keys
    whose coefficient is a Fraction in the public view.  Those are the
    keys with a fractional term summed into them since their sum was last
    zero: an int plus a Fraction is a Fraction, and a zero sum is dropped,
    as in ``algebra._add_into``."""
    sums: dict = {}
    fractional = set()
    for k, v, frac in terms:
        s = sums.get(k)
        if s is not None:
            v += s
            if not v:
                del sums[k]
                fractional.discard(k)
                continue
        elif not v:
            continue
        sums[k] = v
        if frac:
            fractional.add(k)
    return sums, fractional


def _parse_generator(text: str, line: int, ctx: AlgebraContext, algebra: str, letters: int, budget: int):
    """One generator line, in one pass over its tokens.  Each term reads to
    an integer numerator and denominator and a word (a variable and each
    ``^k`` append letters); the generator is built once from the terms:
    (the polynomial of its numerators, their positive common denominator,
    the keys whose coefficient is a Fraction, ``letters`` plus the letters
    of its free terms).  ``letters`` counts those of the file's earlier
    free terms, and a free term may not take the count past ``budget``."""
    tokens = _tokenize(text, line)
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
                if not exterior:
                    if len(word) + power > MAX_FREE_TERM_LETTERS:
                        raise ParseError(f"a free term may have at most {MAX_FREE_TERM_LETTERS} letters", line, col)
                    if letters + len(word) + power > budget:
                        raise ParseError(
                            f"the free terms of this file may have at most {budget} letters in all "
                            f"(its length plus {MAX_FREE_TERM_LETTERS})",
                            line,
                            col,
                        )
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
        g = gcd(num, den)  # den > 0, so the term's lowest terms keep it positive
        terms.append((tuple(word), num // g, den // g))
        if not exterior:
            letters += len(word)
    den = lcm(*(d for _, _, d in terms))
    sums, fractional = _sum_terms((w, c * (den // d), d != 1) for w, c, d in terms)
    if not exterior:
        return FreePolynomial._raw(sums), den, fractional, letters
    # pi: each word sorted with its sign, or dropped when a letter repeats
    signed = []
    for w, c in sums.items():
        sign, sorted_word = word_sort_sign(w)
        if sign:
            signed.append((ExtMonomial(sorted_word), c if sign > 0 else -c, w in fractional))
    sums, fractional = _sum_terms(signed)
    return ExtPolynomial._raw(sums), den, fractional, letters


def parse_int(text: str) -> int:
    """The grammar's ``int``, ASCII digits only, for the file and the
    flags alike: int() would also read a sign, "_", surrounding spaces and
    non-ASCII digits."""
    if text.isascii() and text.isdigit():
        return int(text)
    raise ValueError(f"expected a nonnegative integer, got {text!r}")


def parse_ranking(text: str, n: int) -> tuple[int, ...]:
    """Ranking of a varorder, a permutation listing the variables smallest
    first; a ValueError's message follows the word "varorder"."""
    try:
        perm = [parse_int(v) for v in text.split(",")]
    except ValueError:
        raise ValueError("must be a comma-separated permutation") from None
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError("must be a permutation of 1..n")
    return tuple(perm.index(v) + 1 for v in range(1, n + 1))


_HEADER = re.compile(r"^(\w+)\s*:\s*(.*?)\s*$")


def parse_ideal(text: str) -> IdealFile:
    """Parse an ideal file; raises ParseError with line/column positions."""
    lines = text.splitlines()
    header: dict[str, tuple[str, int]] = {}
    gen_lines: list[tuple[int, str]] = []
    in_generators = False
    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if not in_generators:
            m = _HEADER.match(stripped)
            if m is None:
                raise ParseError("expected 'key: value' header or 'generators:'", lineno)
            key = m.group(1).lower()
            if key == "generators":
                if m.group(2):
                    raise ParseError("text after 'generators:' (each generator goes on its own line)", lineno)
                in_generators = True
                continue
            if key in header:
                raise ParseError(f"duplicate header key {key!r}", lineno)
            header[key] = (m.group(2), lineno)
        else:
            gen_lines.append((lineno, stripped))
    if "vars" not in header:
        raise ParseError("missing 'vars:' header", 1)
    if not in_generators:
        raise ParseError("missing 'generators:' line", len(lines))
    vars_text, vars_line = header["vars"]
    try:
        n = parse_int(vars_text)
        ctx = AlgebraContext(n)
    except ValueError as exc:
        raise ParseError(f"invalid 'vars': {exc}", vars_line) from None
    algebra_text, algebra_line = header.get("algebra", ("exterior", 1))
    algebra = algebra_text.lower()
    if algebra not in ("exterior", "free"):
        raise ParseError("algebra must be 'exterior' or 'free'", algebra_line)
    order_text, order_line = header.get("order", ("deglex", 1))
    ranking = None
    if "varorder" in header:
        vo_text, vo_line = header["varorder"]
        try:
            ranking = parse_ranking(vo_text, n)
        except ValueError as exc:
            raise ParseError(f"varorder {exc}", vo_line) from None
    try:
        order = ExtOrderSpec(order_text.lower(), ranking)
    except ValueError as exc:
        raise ParseError(str(exc), order_line) from None
    unknown = set(header) - {"vars", "algebra", "order", "varorder"}
    if unknown:
        key = sorted(unknown)[0]
        raise ParseError(f"unknown header key {key!r}", header[key][1])

    multiples, denominators, fractional = [], [], []
    letters, budget = 0, len(text) + MAX_FREE_TERM_LETTERS
    for lineno, expr in gen_lines:
        poly, den, frac, letters = _parse_generator(expr, lineno, ctx, algebra, letters, budget)
        if not poly:
            raise ParseError("generator is zero", lineno)
        if not poly.is_homogeneous():
            raise ParseError("generator is not homogeneous", lineno)
        if poly.degree == 0:
            raise ParseError("generator is constant", lineno)
        multiples.append(poly)
        denominators.append(den)
        fractional.append(frac)
    return IdealFile(ctx, algebra, order, tuple(multiples), tuple(denominators), tuple(fractional))


def word_str(w) -> str:
    return "".join(f"X{i}" for i in w) or "1"


def ratio_str(num: int, den: int) -> str:
    """What ``str(Fraction(num, den))`` writes, den != 0: the quotient in
    lowest terms, its sign on the numerator, and no "/1"."""
    g = gcd(num, den)
    if den < 0:
        g = -g
    num, den = num // g, den // g
    return str(num) if den == 1 else f"{num}/{den}"


def ext_poly_pairs(f: ExtPolynomial, order: ExtOrderSpec, den: int = 1) -> list[tuple[str, str]]:
    """The terms of f / den as (coefficient "p/q", monomial) pairs,
    order-descending.  f's coefficients are ints or Fractions; an integer
    view passes its numerators with their denominator."""
    return [(ratio_str(c.numerator, c.denominator * den), str(m)) for m, c in sorted_terms_ext(f, order)]


def free_poly_pairs(F: FreePolynomial, order: FreeOrderSpec, den: int = 1) -> list[tuple[str, str]]:
    return [(ratio_str(c.numerator, c.denominator * den), word_str(w)) for w, c in sorted_terms_free(F, order)]


def ext_poly_str(f: ExtPolynomial, order: ExtOrderSpec, den: int = 1) -> str:
    return _pairs_to_str(ext_poly_pairs(f, order, den))


def free_poly_str(F: FreePolynomial, order: FreeOrderSpec, den: int = 1) -> str:
    return _pairs_to_str(free_poly_pairs(F, order, den))


def _pairs_to_str(pairs: list[tuple[str, str]]) -> str:
    if not pairs:
        return "0"
    chunks = []
    for coef, mono in pairs:
        neg = coef.startswith("-")
        mag = coef[1:] if neg else coef
        if mono == "1":
            body = mag
        elif mag == "1":
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not chunks:
            chunks.append(f"-{body}" if neg else body)
        else:
            chunks.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(chunks)
