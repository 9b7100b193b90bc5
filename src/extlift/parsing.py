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

Each header key may appear once.  Exterior generators use x1..xn,
free-algebra generators X1..Xn; coefficients are exact rationals.  Every
term parses to one coefficient and one word, and a generator is the sum of
its terms in the free algebra, or that sum's image under algebra.pi in the
exterior one: each word sorted with its sign (x3*x2 parses to -x2x3), or
zero if a letter repeats.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .algebra import AlgebraContext, ExtPolynomial, FreePolynomial, pi
from .orders import ExtOrderSpec, FreeOrderSpec, sorted_terms_ext, sorted_terms_free


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int | None = None):
        where = f"line {line}" + (f", column {col}" if col is not None else "")
        super().__init__(f"{where}: {message}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class IdealFile:
    ctx: AlgebraContext
    algebra: str  # "exterior" | "free"
    order: ExtOrderSpec
    generators: tuple  # ExtPolynomial or FreePolynomial

    @property
    def free_order(self) -> FreeOrderSpec:
        return FreeOrderSpec(self.order)


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


class _ExprParser:
    """Recursive-descent parser for one generator expression.  Each term
    parses to one coefficient and one word; the generator is built once,
    from the (word, coefficient) pairs, at the end."""

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
        terms = self.parse_expr()
        if self.peek() is not None:
            self.error("trailing input after expression")
        F = FreePolynomial(terms)
        return pi(F) if self.algebra == "exterior" else F

    def parse_expr(self):
        terms = []
        while True:
            tok = self.peek()
            sign = 1
            if tok and tok[0] == "op" and tok[1] in "+-":
                sign = -1 if tok[1] == "-" else 1
                self.i += 1
            elif terms:
                return terms
            c, word = self.parse_term()
            terms.append((word, sign * c))

    def parse_term(self):
        coef, word = 1, []
        while True:
            c, letters = self.parse_factor()
            coef *= c
            word += letters
            tok = self.peek()
            if tok is not None and tok[0] == "op" and tok[1] == "*":
                self.i += 1
            elif tok is None or tok[0] != "var":
                # adjacent variables multiply implicitly: x1x3 == x1*x3
                return coef, tuple(word)

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
            return Fraction(num, den), []
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
            # a repeated letter already makes an exterior term zero
            return 1, [index] * (min(power, 2) if self.algebra == "exterior" else power)
        self.error(f"unexpected token {value!r}")


def parse_ranking(text: str, n: int) -> tuple[int, ...]:
    """Ranking of a varorder, a permutation listing the variables smallest
    first; a ValueError's message follows the word "varorder"."""
    try:
        perm = [int(v) for v in text.split(",")]
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
                in_generators = True
                continue
            if key in header:
                raise ParseError(f"duplicate header key {key!r}", lineno)
            header[key] = (m.group(2), lineno)
        else:
            gen_lines.append((lineno, stripped))
    if "vars" not in header:
        raise ParseError("missing 'vars:' header", 1)
    vars_text, vars_line = header["vars"]
    try:
        n = int(vars_text)
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

    generators = []
    for lineno, expr in gen_lines:
        poly = _ExprParser(_tokenize(expr, lineno), lineno, ctx, algebra).parse()
        if not poly:
            raise ParseError("generator is zero", lineno)
        if not poly.is_homogeneous():
            raise ParseError("generator is not homogeneous", lineno)
        if poly.degree == 0:
            raise ParseError("generator is constant", lineno)
        generators.append(poly)
    return IdealFile(ctx=ctx, algebra=algebra, order=order, generators=tuple(generators))


def word_str(w) -> str:
    return "".join(f"X{i}" for i in w) or "1"


def ext_poly_pairs(f: ExtPolynomial, order: ExtOrderSpec) -> list[tuple[str, str]]:
    """Terms as (coefficient "p/q", monomial) pairs, order-descending."""
    return [(str(c), str(m)) for m, c in sorted_terms_ext(f, order)]


def free_poly_pairs(F: FreePolynomial, order: FreeOrderSpec) -> list[tuple[str, str]]:
    return [(str(c), word_str(w)) for w, c in sorted_terms_free(F, order)]


def ext_poly_str(f: ExtPolynomial, order: ExtOrderSpec) -> str:
    return _pairs_to_str(ext_poly_pairs(f, order))


def free_poly_str(F: FreePolynomial, order: FreeOrderSpec) -> str:
    return _pairs_to_str(free_poly_pairs(F, order))


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
