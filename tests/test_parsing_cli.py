import ast
import importlib.util
import json
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extlift import algebra, cli, parsing
from extlift.algebra import AlgebraContext, ExtMonomial, ExtPolynomial, FreePolynomial
from extlift.cli import EXIT_INPUT, EXIT_MATH, EXIT_OK, EXIT_PIPE, main
from extlift.orders import ExtOrderSpec, FreeOrderSpec
from extlift.parsing import (
    ParseError,
    ext_poly_str,
    free_poly_str,
    parse_ideal,
    word_str,
)

from helpers import random_ext_polynomial
from oracles import arithmetic_parse_generator, as_parse_result, fraction_parse_generator
import replay
from replay import N5_FREE

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"
SRC = Path(algebra.__file__).parents[1]
DEGLEX = ExtOrderSpec("deglex")
Q3 = "vars: 3\n{header}generators:\nx1*x2 + 2*x1*x3 + 5*x2*x3\n"
Q5 = "vars: 5\n{header}generators:\nx1*x2 + 2*x3*x4 - x2*x5\nx1*x3 - x4*x5 + 3*x2*x3\n"
G4 = "vars: 4\n{header}generators:\nx1*x4\nx2*x3\n"


# The README's exit-code-2 cases as (command, source, flags); the source is
# a file under tests/data, the text or the bytes of a file, or None for a
# missing file.
EXIT_TWO_CASES = {
    "unreadable-file": ("gb", None, []),
    "non-utf8-file": ("gb", b"vars: 2\ngenerators:\nx1*x2\xff\n", []),
    "non-ascii-vars": ("gb", "vars: \u0663\ngenerators:\nx1*x2\n", []),
    "non-ascii-generator-digits": ("gb", "vars: 3\ngenerators:\nx\u0661*x\u0662\n", []),
    "non-ascii-varorder-header": ("gb", "vars: 3\nvarorder: \u0663,\u0662,\u0661\ngenerators:\nx1*x2\n", []),
    "non-ascii-varorder": ("gb", "quadric_n3.ideal", ["--varorder", "\u0663,\u0662,\u0661"]),
    "non-ascii-maxdeg": ("verify", "anticomm_n2.ideal", ["--maxdeg", "\u0662"]),
    "non-ascii-seed": ("gin", "quadric_n3.ideal", ["--seed", "\u0663"]),
    # the grammar's int is ASCII digits: no "_", sign or space, which int() reads
    "underscore-vars": ("gb", "vars: 1_0\ngenerators:\nx1*x2\n", []),
    "signed-spaced-varorder-header": ("gb", "vars: 3\nvarorder: +1, 2,3\ngenerators:\nx1*x2\n", []),
    "spaced-varorder": ("gb", "quadric_n3.ideal", ["--varorder", "1, 2,3"]),
    "underscore-seed": ("gin", "quadric_n3.ideal", ["--seed", "1_0"]),
    "negative-seed": ("gin", "quadric_n3.ideal", ["--seed", "-5"]),
    "signed-trials": ("gin", "quadric_n3.ideal", ["--trials=+3"]),
    "unparsable-file": ("gb", "vars: 2\ngenerators:\nx1 +* x2\n", []),
    "repeated-header-key": ("gb", "vars: 3\nvars: 4\ngenerators:\nx1*x2\n", []),
    "free-ideal-to-gb": ("gb", "commutator_n2.ideal", []),
    "exterior-ideal-to-verify": ("verify", "quadric_n3.ideal", []),
    "nonhomogeneous-generator": ("gb", "vars: 2\ngenerators:\nx1 + x1*x2\n", []),
    "zero-generator": ("gb", "vars: 2\ngenerators:\nx1*x1\n", []),
    "constant-generator": ("gb", "vars: 2\ngenerators:\n1\n", []),
    "non-monomial-predicates": ("predicates", "quadric_n3.ideal", []),
    "non-monomial-free-hilbert": ("hilbert", "commutator_n2.ideal", []),
    "free-term-over-the-letter-cap": ("verify", "vars: 1\nalgebra: free\ngenerators:\nX1^65537\n", []),
    "free-terms-over-the-file-letter-budget": ("verify", "vars: 2\nalgebra: free\ngenerators:\nX1^40000 + X2^40000\n", []),
    "degree-1-lift": ("lift", "linear_n2.ideal", []),
    "degree-1-predicates": ("predicates", "linear_n2.ideal", []),
    "degree-1-exterior-gin": ("gin", "linear_n2.ideal", []),
    "gin-maxdeg-below-2": ("gin", "quadric_n3.ideal", ["--maxdeg", "1"]),
    "trials-below-2": ("gin", "quadric_n3.ideal", ["--trials", "1"]),
    "height-below-1": ("gin", "quadric_n3.ideal", ["--height", "0"]),
    "bad-varorder": ("gb", "quadric_n3.ideal", ["--varorder", "1,1,2"]),
    "non-natural-ranking-lift": ("lift", "quadric_n3.ideal", ["--varorder", "2,1,3"]),
    "non-natural-ranking-exterior-gin": ("gin", "quadric_n3.ideal", ["--varorder", "2,1,3"]),
    "non-natural-ranking-predicates": ("predicates", "gap_n4.ideal", ["--varorder", "4,3,2,1"]),
    "negative-maxdeg": ("gin", "quadric_n3.ideal", ["--maxdeg", "-2"]),
    "non-integer-seed": ("gin", "quadric_n3.ideal", ["--seed", "1.5"]),
    "non-integer-trials": ("gin", "quadric_n3.ideal", ["--trials", "two"]),
    "non-integer-height": ("gin", "quadric_n3.ideal", ["--height", "1e3"]),
    "unknown-flag": ("gb", "quadric_n3.ideal", ["--bogus"]),
    "unknown-command": ("groebner", "quadric_n3.ideal", []),
    "flag-without-value": ("gb", "quadric_n3.ideal", ["--order"]),
    "bad-order": ("gb", "quadric_n3.ideal", ["--order", "bogus"]),
    "other-commands-flag": ("gb", "quadric_n3.ideal", ["--seed", "3"]),
    "second-file": ("gb", "quadric_n3.ideal", ["other.ideal"]),
    "switch-with-value": ("gb", "quadric_n3.ideal", ["--json=1"]),
    "abbreviated-flag": ("verify", "anticomm_n2.ideal", ["--max", "3"]),
}


# Files whose "generators:" line is missing or carries text, with the
# ParseError message each gets.
GENERATORS_LINE_ERRORS = {
    "text-after-generators": (
        "vars: 2\ngenerators: x1*x2\n",
        "line 2: text after 'generators:' (each generator goes on its own line)",
    ),
    "no-generators-line": ("vars: 2\nalgebra: exterior\n", "line 2: missing 'generators:' line"),
    "truncated-after-headers": ("vars: 2\n# x1*x2\n", "line 2: missing 'generators:' line"),
    "no-vars-and-no-generators": ("algebra: free\n", "line 1: missing 'vars:' header"),
}


def parse_one(body: str, header: str = "vars: 3\nalgebra: exterior\n"):
    ideal = parse_ideal(header + "generators:\n" + body + "\n")
    assert len(ideal.generators) == 1
    return ideal.generators[0]


class TestParsing:
    def test_basic_exterior(self):
        f = parse_one("x1*x2 + 3/2*x2*x3")
        expected = ExtPolynomial(
            [(ExtMonomial([1, 2]), 1), (ExtMonomial([2, 3]), Fraction(3, 2))]
        )
        assert f == expected

    def test_sign_normalization(self):
        assert parse_one("x3*x2") == ExtPolynomial.monomial(ExtMonomial([2, 3]), -1)

    def test_implicit_products(self):
        assert parse_one("x1x3") == parse_one("x1*x3")
        assert parse_one("2x1x2") == parse_one("2*x1*x2")

    def test_free_words_keep_order(self):
        F = parse_one("X2*X1 - X1*X2", header="vars: 2\nalgebra: free\n")
        assert F == FreePolynomial([((2, 1), 1), ((1, 2), -1)])

    def test_powers(self):
        F = parse_one("X1^2", header="vars: 2\nalgebra: free\n")
        assert F == FreePolynomial.monomial((1, 1))
        # exterior squares vanish, and zero generators are rejected
        with pytest.raises(ParseError, match="zero"):
            parse_one("x1^2")

    def test_comments_and_blank_lines(self):
        ideal = parse_ideal(
            "# leading comment\n\nvars: 2\n\ngenerators:\nx1*x2  # trailing\n"
        )
        assert ideal.ctx.n == 2 and len(ideal.generators) == 1

    def test_header_defaults(self):
        ideal = parse_ideal("vars: 2\ngenerators:\nx1*x2\n")
        assert ideal.algebra == "exterior"
        assert ideal.order.kind == "deglex" and ideal.order.ranking is None

    def test_varorder(self):
        ideal = parse_ideal("vars: 3\nvarorder: 2,1,3\ngenerators:\nx1*x2\n")
        assert ideal.order.rank(2) == 1 and ideal.order.rank(1) == 2

    def test_missing_vars(self):
        with pytest.raises(ParseError, match="vars"):
            parse_ideal("generators:\nx1\n")

    def test_bad_varorder(self):
        with pytest.raises(ParseError, match="permutation"):
            parse_ideal("vars: 2\nvarorder: 1,1\ngenerators:\nx1\n")

    def test_unknown_header(self):
        with pytest.raises(ParseError, match="unknown header"):
            parse_ideal("vars: 2\ndegree: 3\ngenerators:\nx1\n")

    def test_zero_generator_rejected_with_line(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_ideal("vars: 2\ngenerators:\nx1*x2 - x1*x2\n")

    def test_nonhomogeneous_rejected(self):
        with pytest.raises(ParseError, match="homogeneous"):
            parse_ideal("vars: 2\ngenerators:\nx1 + x1*x2\n")

    @pytest.mark.parametrize("algebra", ["exterior", "free"])
    def test_constant_generator_rejected_with_line(self, algebra):
        with pytest.raises(ParseError, match="line 4: generator is constant"):
            parse_ideal(f"vars: 2\nalgebra: {algebra}\ngenerators:\n3/2\n")

    def test_wrong_letter_for_algebra(self):
        with pytest.raises(ParseError, match="belong"):
            parse_ideal("vars: 2\nalgebra: free\ngenerators:\nx1*x2\n")

    def test_out_of_range_variable(self):
        with pytest.raises(ParseError, match="line 3, column 1"):
            parse_ideal("vars: 2\ngenerators:\nx5\n")

    def test_unexpected_character(self):
        with pytest.raises(ParseError, match="column"):
            parse_ideal("vars: 2\ngenerators:\nx1 @ x2\n")

    def test_zero_denominator(self):
        with pytest.raises(ParseError, match="zero denominator"):
            parse_ideal("vars: 2\ngenerators:\n1/0*x1\n")

    @pytest.mark.parametrize(
        "text,key,line",
        [
            ("vars: 3\nvars: 4\ngenerators:\nx1*x2\n", "vars", 2),
            ("vars: 2\nalgebra: free\n# a comment\nAlgebra: exterior\ngenerators:\nx1*x2\n", "algebra", 4),
            ("vars: 2\norder: deglex\nvarorder: 2,1\norder: degrevlex\ngenerators:\nx1*x2\n", "order", 4),
        ],
    )
    def test_duplicate_header_key(self, text, key, line):
        with pytest.raises(ParseError, match=f"^line {line}: duplicate header key '{key}'$"):
            parse_ideal(text)

    def test_long_exterior_term_with_repeats_is_zero(self):
        with pytest.raises(ParseError, match="line 3: generator is zero"):
            parse_ideal("vars: 2\ngenerators:\nx2^8000*x1^8000\n")

    def test_huge_exterior_power_is_zero_in_small_memory(self):
        # x1^k appends at most two letters, not k
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match="line 3: generator is zero"):
                parse_ideal("vars: 2\ngenerators:\nx1^10000000\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_long_free_power(self):
        F = parse_one("X1^40000", header="vars: 1\nalgebra: free\n")
        assert F == FreePolynomial.monomial((1,) * 40000)

    def test_free_term_at_the_letter_cap(self):
        cap = parsing.MAX_FREE_TERM_LETTERS
        F = parse_one(f"X1^{cap - 1}*X2", header="vars: 2\nalgebra: free\n")
        assert F == FreePolynomial.monomial((1,) * (cap - 1) + (2,))

    @pytest.mark.parametrize(
        "body,col",
        [(f"X1^{parsing.MAX_FREE_TERM_LETTERS + 1}", 4), ("X1^40000*X1^40000", 13), ("X2 + X1*X1^65536", 12)],
        ids=["one-power", "two-powers", "letter-then-power"],
    )
    def test_free_term_over_the_letter_cap_is_refused_in_small_memory(self, body, col):
        # the letters are counted across the term's factors, and the
        # refusal comes before the word grows past the cap
        tracemalloc.start()
        try:
            with pytest.raises(ParseError) as exc:
                parse_one(body, header="vars: 2\nalgebra: free\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(exc.value) == f"line 4, column {col}: a free term may have at most {parsing.MAX_FREE_TERM_LETTERS} letters"
        assert peak < 2**20

    @pytest.mark.parametrize(
        "body,line,col",
        [
            ("X1^30000 + X1^30000 + X1^30000", 4, 26),
            ("X1^20000*X2^20000 + X2^20000*X1^20000", 4, 33),
            # the letters are counted across the file's generator lines
            ("X1^40000\nX2^40000", 5, 4),
        ],
        ids=["three-terms", "second-term-factor", "two-lines"],
    )
    def test_free_terms_over_the_file_letter_budget_are_refused_in_small_memory(self, body, line, col):
        # each term is under the letter cap, and the terms together pass
        # the file's length plus the cap, which no file without an exponent
        # reaches: refused before the words grow
        text = "vars: 2\nalgebra: free\ngenerators:\n" + body + "\n"
        budget = len(text) + parsing.MAX_FREE_TERM_LETTERS
        tracemalloc.start()
        try:
            with pytest.raises(ParseError) as exc:
                parse_ideal(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(exc.value) == (
            f"line {line}, column {col}: the free terms of this file may have at most {budget} letters "
            f"in all (its length plus {parsing.MAX_FREE_TERM_LETTERS})"
        )
        assert peak < 2**20

    def test_free_terms_within_the_file_letter_budget(self):
        # 65,536 letters in all, the cap of one term, over two terms
        cap = parsing.MAX_FREE_TERM_LETTERS
        ideal = parse_ideal(f"vars: 2\nalgebra: free\ngenerators:\nX1^{cap // 2} + X2^{cap // 2}\n")
        assert ideal.generators[0] == FreePolynomial([((1,) * (cap // 2), 1), ((2,) * (cap // 2), 1)])

    @pytest.mark.parametrize(
        "algebra,body,message",
        [
            ("exterior", "x1 @ x2", "line 4, column 4: unexpected character '@'"),
            # the tokenizer reads the whole line before the grammar does
            ("exterior", "x1 +* x2 @", "line 4, column 10: unexpected character '@'"),
            ("exterior", "x1*x2 +", "line 4: expected a coefficient or a variable"),
            ("exterior", "3/x1*x2", "line 4, column 3: malformed rational: expected a denominator"),
            ("exterior", "x1*x2*3/", "line 4: malformed rational: expected a denominator"),
            ("exterior", "1/0*x1*x2", "line 4, column 3: malformed rational: zero denominator"),
            ("exterior", "x1^x2", "line 4, column 4: expected an integer exponent"),
            ("exterior", "x1^", "line 4: expected an integer exponent"),
            ("exterior", "(x1*x2)", "line 4, column 1: unexpected token '('"),
            ("exterior", "x1 ++ x2", "line 4, column 5: unexpected token '+'"),
            ("exterior", "x1*x2 3", "line 4, column 7: trailing input after expression"),
            ("exterior", "x1*x2)", "line 4, column 6: trailing input after expression"),
            (
                "exterior",
                "X1*x2",
                "line 4, column 1: variable X1 does not belong to the exterior algebra (use x1..x3)",
            ),
            ("free", "X1*x2", "line 4, column 4: variable x2 does not belong to the free algebra (use X1..X3)"),
            ("exterior", "x1*x5", "line 4, column 4: variable index 5 out of range 1..3"),
        ],
    )
    def test_generator_error_messages(self, algebra, body, message):
        with pytest.raises(ParseError) as info:
            parse_ideal(f"vars: 3\nalgebra: {algebra}\ngenerators:\n{body}\n")
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "text,message",
        [
            ("vars: \u0663\ngenerators:\nx1*x2\n", "line 1: invalid 'vars': expected a nonnegative integer, got '\u0663'"),
            ("vars: 3\ngenerators:\nx\u0661*x\u0662\n", "line 3, column 1: unexpected character 'x'"),
            ("vars: 3\ngenerators:\nx1*x2 + \u0663*x1*x3\n", "line 3, column 9: unexpected character '\u0663'"),
            ("vars: 3\ngenerators:\n2/\u0663*x1*x2\n", "line 3, column 3: unexpected character '\u0663'"),
            ("vars: 3\nalgebra: free\ngenerators:\nX1^\u0662\n", "line 4, column 4: unexpected character '\u0662'"),
            (
                "vars: 3\nvarorder: \u0663,\u0662,\u0661\ngenerators:\nx1*x2\n",
                "line 2: varorder must be a comma-separated permutation",
            ),
            ("vars: 1_0\ngenerators:\nx1*x2\n", "line 1: invalid 'vars': expected a nonnegative integer, got '1_0'"),
            ("vars: +3\ngenerators:\nx1*x2\n", "line 1: invalid 'vars': expected a nonnegative integer, got '+3'"),
            ("vars: 1 0\ngenerators:\nx1*x2\n", "line 1: invalid 'vars': expected a nonnegative integer, got '1 0'"),
            ("vars: 3\nvarorder: +1, 2,3\ngenerators:\nx1*x2\n", "line 2: varorder must be a comma-separated permutation"),
            ("vars: 3\nvarorder: 1, 2, 3\ngenerators:\nx1*x2\n", "line 2: varorder must be a comma-separated permutation"),
            ("vars: 3\nvarorder: 1,_2,3\ngenerators:\nx1*x2\n", "line 2: varorder must be a comma-separated permutation"),
        ],
        ids=["vars", "variable-index", "coefficient", "denominator", "exponent", "varorder",
             "vars-underscore", "vars-sign", "vars-space", "varorder-sign", "varorder-spaces", "varorder-underscore"],
    )
    def test_non_ascii_digits_refused(self, text, message):
        # the grammar's int is ASCII digits; \d and int() also read '\u0663' as 3,
        # and int() reads "_", a sign and surrounding spaces too
        with pytest.raises(ParseError) as info:
            parse_ideal(text)
        assert str(info.value) == message

    def test_leading_zeros_are_digits(self):
        assert parse_ideal("vars: 03\nvarorder: 2,01,3\ngenerators:\nx1*x2\n").order.ranking == (2, 1, 3)

    @pytest.mark.parametrize("text,message", GENERATORS_LINE_ERRORS.values(), ids=list(GENERATORS_LINE_ERRORS))
    def test_generators_line_refusals(self, text, message):
        with pytest.raises(ParseError) as info:
            parse_ideal(text)
        assert str(info.value) == message

    @pytest.mark.parametrize("text", ["vars: 2\ngenerators:\n", "vars: 2\ngenerators:  # none yet\n\n"])
    def test_bare_generators_line_is_the_zero_ideal(self, text):
        assert parse_ideal(text).generators == ()


class TestSerialization:
    def test_ext_examples(self):
        f = ExtPolynomial(
            [(ExtMonomial([1, 2]), Fraction(-1, 5)), (ExtMonomial([2, 3]), 1)]
        )
        assert ext_poly_str(f, DEGLEX) == "x2x3 - 1/5*x1x2"

    def test_free_examples(self):
        F = FreePolynomial([((2, 1), 1), ((1, 2), 1)])
        assert free_poly_str(F, FreeOrderSpec(DEGLEX)) == "X2X1 + X1X2"

    def test_strings(self):
        assert str(ExtMonomial()) == "1"
        assert word_str((1, 2)) == "X1X2"

    @pytest.mark.parametrize("seed", range(20))
    def test_round_trip(self, seed):
        rng = random.Random(seed)
        ctx = AlgebraContext(4)
        f = random_ext_polynomial(rng, ctx, rng.randint(1, 3))
        text = f"vars: 4\ngenerators:\n{ext_poly_str(f, DEGLEX)}\n"
        assert parse_ideal(text).generators[0] == f

    def test_round_trip_free(self):
        F = FreePolynomial([((2, 1), Fraction(1, 3)), ((1, 2), -2)])
        text = (
            "vars: 2\nalgebra: free\ngenerators:\n"
            + free_poly_str(F, FreeOrderSpec(DEGLEX))
            + "\n"
        )
        assert parse_ideal(text).generators[0] == F

    def test_integral_coefficients_parse_to_ints(self):
        text = "vars: 3\nalgebra: free\ngenerators:\n6/3*X1*X2 - 4*X2*X3 + 3/2*X3*X1\n"
        terms = parse_ideal(text).generators[0].terms
        assert [(c, type(c)) for c in terms.values()] == [(2, int), (-4, int), (Fraction(3, 2), Fraction)]


# every command on every data file, plain and --json; on the n=5 free files
# the commands that take --maxdeg stop at degree 3, as the free gin at the
# default n+1 is out of reach
PARITY_RUNS = [
    [command, str(path), *(["--maxdeg", "3"] if path.name in N5_FREE and "--maxdeg" in own else [])]
    for command, (_, own) in cli.COMMANDS.items()
    for path in sorted(DATA.glob("*.ideal"))
]


# strings over all of Unicode (lone surrogates too), with printable ASCII
# and the characters that JSON escapes drawn often
JSON_ESCAPED = '"\\/\x00\x08\t\n\x0c\r\x1f\x7f\x80\u2028\U0001f600'
JSON_TEXT = st.text(
    st.one_of(
        st.characters(min_codepoint=0x20, max_codepoint=0x7E),
        st.sampled_from(JSON_ESCAPED),
        st.characters(exclude_categories=()),
    )
)
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.integers(min_value=-(10**40), max_value=10**40), JSON_TEXT),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(JSON_TEXT, children, max_size=5),
    ),
    max_leaves=40,
)


class TestJsonWriter:
    """cli._json against json.dumps(value, indent=2, sort_keys=True), which
    it replaces."""

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(JSON_VALUES)
    def test_matches_json_dumps(self, value):
        assert cli._json(value, "\n") == json.dumps(value, indent=2, sort_keys=True)

    @pytest.mark.parametrize(
        "value",
        [
            "",
            "x1x2",
            'a"b',
            "c\\d/e",
            "\x00\x1f\x7f\b\f\n\r\t",
            "\u00e9\u2028\uffff",
            "\U0001f600\U0010ffff",
            "\ud800",
            ["x1", "x2\n", 3],
            ["x1", 1, None, True, False, [], {}, ()],
            {"b": [["1", "x1x2"], ("-3/2", "x2x3")], "a": {"z": -(10**30), "": [0]}},
        ],
        ids=[
            "empty", "plain", "quote", "backslash-slash", "controls-and-del", "non-ascii", "astral",
            "lone-surrogate", "list-with-escape", "mixed-list", "nested",
        ],
    )
    def test_examples(self, value):
        assert cli._json(value, "\n") == json.dumps(value, indent=2, sort_keys=True)

    @pytest.mark.parametrize(
        "value",
        [1.5, b"x1", {1: "x1"}, {None: 1}, ["x1", 0.5], {"a": {(1, 2): 3}}, {1, 2}],
        ids=["float", "bytes", "int-key", "none-key", "float-in-list", "tuple-key", "set"],
    )
    def test_other_values_raise_type_error(self, value):
        with pytest.raises(TypeError):
            cli._json(value, "\n")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestCLI:
    @pytest.mark.parametrize(
        "golden,argv",
        [
            ("gb_quadric_n3.json", ["gb", "quadric_n3.ideal", "--json"]),
            ("lift_quadric_n3.json", ["lift", "quadric_n3.ideal", "--json"]),
            (
                "gin_commutator_n2.json",
                ["gin", "commutator_n2.ideal", "--json", "--seed", "7", "--trials", "2", "--maxdeg", "3"],
            ),
            ("predicates_gap_n4.json", ["predicates", "gap_n4.ideal", "--json"]),
            ("verify_anticomm_n2.json", ["verify", "anticomm_n2.ideal", "--json"]),
            (
                "hilbert_monomial_free_n2.json",
                ["hilbert", "monomial_free_n2.ideal", "--json", "--maxdeg", "4"],
            ),
            # the identity ranking is the natural one
            ("gb_quadric_n3.json", ["gb", "quadric_n3.ideal", "--json", "--varorder", "1,2,3"]),
            ("lift_quadric_n3.json", ["lift", "quadric_n3.ideal", "--json", "--varorder", "1,2,3"]),
            # an exterior gin with its lifted cone
            ("gin_quadric_n3.json", ["gin", "quadric_n3.ideal", "--json", "--seed", "3"]),
            # the identity ranking passes the predicates' natural-ranking check
            ("predicates_gap_n4.json", ["predicates", "gap_n4.ideal", "--json", "--varorder", "1,2,3,4"]),
            # a free gin whose generators hold every anti-commutator
            ("gin_anticomm_n5.json", ["gin", "anticomm_n5.ideal", "--json", "--maxdeg", "3"]),
        ],
    )
    def test_golden_json(self, capsys, golden, argv):
        argv = [argv[0], str(DATA / argv[1])] + argv[2:]
        code, out = run_cli(capsys, *argv)
        assert code == EXIT_OK
        assert out == (GOLDEN / golden).read_text()
        json.loads(out)  # well-formed

    @pytest.mark.parametrize(
        "golden,argv,expected",
        [
            ("verify_int_leads_n3.json", ["verify", "int_leads_n3.ideal", "--json", "--maxdeg", "3"], EXIT_MATH),
            ("gin_int_leads_n3.json", ["gin", "int_leads_n3.ideal", "--json", "--maxdeg", "3"], EXIT_OK),
        ],
    )
    def test_non_unit_integer_leads_golden(self, capsys, golden, argv, expected):
        # integral coefficients parse to ints; the goldens were recorded when
        # every parsed coefficient was a Fraction
        code, out = run_cli(capsys, argv[0], str(DATA / argv[1]), *argv[2:])
        assert code == expected
        assert out == (GOLDEN / golden).read_text()

    @pytest.mark.parametrize("json_flag", [True, False], ids=["json", "text"])
    def test_failing_inclusions_of_one_pair_golden(self, capsys, json_flag):
        # X2X2 lies at three positions in X2X2X2X2, and each inclusion
        # fails: the failures print by ambiguity word, then by pair, then
        # by position, as recorded when the ambiguities were sorted before
        # they were reduced
        flags, golden = (["--json"], "verify_inclusion_ties_n2.json") if json_flag else ([], "verify_inclusion_ties_n2.txt")
        code, out = run_cli(capsys, "verify", str(DATA / "inclusion_ties_n2.ideal"), *flags)
        assert code == EXIT_MATH
        assert out == (GOLDEN / golden).read_text()

    @pytest.mark.parametrize("json_flag", [True, False], ids=["json", "text"])
    def test_failing_verify_golden(self, capsys, json_flag):
        # a lifted basis with one element dropped: verify lists rational
        # remainders and exits 1, as recorded before its reducer summed
        # S-polynomials onto chain ends
        flags, golden = (["--json"], "verify_lifted_drop_n5.json") if json_flag else ([], "verify_lifted_drop_n5.txt")
        code, out = run_cli(capsys, "verify", str(DATA / "lifted_drop_n5.ideal"), *flags)
        assert code == EXIT_MATH
        assert out == (GOLDEN / golden).read_text()
        if json_flag:
            result = json.loads(out)
            assert not result["obstructions_resolve"] and not result["dimensions_agree"]
            assert result["failing_obstructions"][0]["remainder"] == [["-4/45", "X1X2X4"], ["856/495", "X1X2X3"]]
        else:
            assert "remainder -4/45*X1X2X4 + 856/495*X1X2X3\n" in out

    def test_json_byte_deterministic(self, capsys):
        argv = [
            "gin", str(DATA / "commutator_n2.ideal"), "--json",
            "--seed", "7", "--trials", "2",
        ]
        _, first = run_cli(capsys, *argv)
        _, second = run_cli(capsys, *argv)
        assert first == second

    def test_lift_refuses_linear_generator(self, capsys):
        code, _ = run_cli(capsys, "lift", str(DATA / "linear_n2.ideal"), "--json")
        assert code == EXIT_INPUT

    def test_gb_accepts_linear_generator(self, capsys):
        code, out = run_cli(capsys, "gb", str(DATA / "linear_n2.ideal"), "--json")
        assert code == EXIT_OK
        data = json.loads(out)
        # minimal basis of (x1) in two exterior variables is just x1
        assert data["initial_ideal"] == ["x1"]

    def test_missing_file(self, capsys):
        code, _ = run_cli(capsys, "gb", str(DATA / "no_such.ideal"))
        assert code == EXIT_INPUT

    def test_parse_error_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.ideal"
        bad.write_text("vars: 2\ngenerators:\nx1 + x1*x2\n")
        code, _ = run_cli(capsys, "gb", str(bad))
        assert code == EXIT_INPUT

    @pytest.mark.parametrize("text,message", GENERATORS_LINE_ERRORS.values(), ids=list(GENERATORS_LINE_ERRORS))
    def test_generators_line_refusals_exit_two(self, capsys, tmp_path, text, message):
        path = tmp_path / "case.ideal"
        path.write_text(text)
        code = main(["gb", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (EXIT_INPUT, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv",
        [["lift", "quadric_n3.ideal"], ["verify", "commutator_n2.ideal"]],
        ids=["lift", "verify-free-slices"],
    )
    def test_one_free_order_per_command(self, capsys, monkeypatch, argv):
        built = []
        init = FreeOrderSpec.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(FreeOrderSpec, "__init__", counting_init)
        command, name = argv
        main([command, str(DATA / name), "--json"])
        capsys.readouterr()
        assert len(built) == 1

    def test_duplicate_header_exit_code(self, capsys, tmp_path):
        path = tmp_path / "twice.ideal"
        path.write_text("vars: 3\nvars: 4\ngenerators:\nx1*x2\n")
        code = main(["gb", str(path)])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT and captured.out == ""
        assert "line 2: duplicate header key 'vars'" in captured.err

    @pytest.mark.parametrize("command", ["gb", "lift"])
    def test_utf8_byte_order_mark_accepted(self, capsys, tmp_path, command):
        original = DATA / "quadric_n3.ideal"
        bom = tmp_path / "bom.ideal"
        bom.write_bytes(b"\xef\xbb\xbf" + original.read_bytes())
        code, expected = run_cli(capsys, command, str(original))
        assert code == EXIT_OK
        assert run_cli(capsys, command, str(bom)) == (EXIT_OK, expected)

    @pytest.mark.parametrize(
        "data,message",
        [
            (b"vars: 2\ngenerators:\nx1*x2\xff\n", "not UTF-8 text (invalid start byte at byte offset 25)"),
            # the offset counts the byte-order mark's 3 bytes
            (b"\xef\xbb\xbfvars: 2\ngenerators:\nx1*x2\xff\n", "not UTF-8 text (invalid start byte at byte offset 28)"),
            (b"vars: 2\ngenerators:\nx1*x2 # \xc3", "not UTF-8 text (unexpected end of data at byte offset 28)"),
            (b"\xfe\xffvars: 2\n", "not UTF-8 text (invalid start byte at byte offset 0)"),
        ],
        ids=["stray-byte", "after-bom", "truncated", "utf16-bom"],
    )
    def test_non_utf8_file_refused(self, capsys, tmp_path, data, message):
        path = tmp_path / "latin.ideal"
        path.write_bytes(data)
        code = main(["gb", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (EXIT_INPUT, "", f"error: {path}: {message}\n")

    @pytest.mark.parametrize(
        "argv,message",
        [
            (
                ["verify", "anticomm_n2.ideal", "--maxdeg", "\u0662"],
                "argument --maxdeg: expected a nonnegative integer, got '\u0662'",
            ),
            (
                ["gb", "quadric_n3.ideal", "--varorder", "\u0663,\u0662,\u0661"],
                "--varorder must be a comma-separated permutation",
            ),
            (
                ["gb", "quadric_n3.ideal", "--varorder", "3,2,\u0661"],
                "--varorder must be a comma-separated permutation",
            ),
            (["gin", "quadric_n3.ideal", "--seed", "\u0663"], "argument --seed: expected a nonnegative integer, got '\u0663'"),
            (["gin", "quadric_n3.ideal", "--trials", "\u0662"], "argument --trials: expected a nonnegative integer, got '\u0662'"),
            (["gin", "quadric_n3.ideal", "--height", "\uff19"], "argument --height: expected a nonnegative integer, got '\uff19'"),
            # int() would also read "_", a sign and surrounding spaces
            (["gin", "quadric_n3.ideal", "--seed", "1_0"], "argument --seed: expected a nonnegative integer, got '1_0'"),
            # random.Random seeds by absolute value, so -5 would replay --seed 5
            (["gin", "quadric_n3.ideal", "--seed", "-5"], "argument --seed: expected a nonnegative integer, got '-5'"),
            (["gin", "quadric_n3.ideal", "--seed=+5"], "argument --seed: expected a nonnegative integer, got '+5'"),
            (["gin", "quadric_n3.ideal", "--trials", " 3"], "argument --trials: expected a nonnegative integer, got ' 3'"),
            (["gin", "quadric_n3.ideal", "--height", "1_00"], "argument --height: expected a nonnegative integer, got '1_00'"),
            (["verify", "anticomm_n2.ideal", "--maxdeg", "+2"], "argument --maxdeg: expected a nonnegative integer, got '+2'"),
            (["gb", "quadric_n3.ideal", "--varorder", "+1,2,3"], "--varorder must be a comma-separated permutation"),
            (["gb", "quadric_n3.ideal", "--varorder", "1, 2,3"], "--varorder must be a comma-separated permutation"),
        ],
        ids=["maxdeg", "varorder", "varorder-one-digit", "seed", "trials", "height-fullwidth",
             "seed-underscore", "seed-negative", "seed-sign", "trials-space", "height-underscore", "maxdeg-sign",
             "varorder-sign", "varorder-space"],
    )
    def test_non_ascii_flag_digits_refused(self, capsys, argv, message):
        code = main([argv[0], str(DATA / argv[1]), *argv[2:]])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (EXIT_INPUT, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv", PARITY_RUNS, ids=[f"{a[0]}-{Path(a[1]).stem}" for a in PARITY_RUNS])
    def test_line_endings_and_bom_print_the_same(self, capsys, tmp_path, argv):
        # CRLF, CR and a leading byte-order mark change no line of the file
        original = Path(argv[1]).read_bytes()
        variants = {
            "bom": b"\xef\xbb\xbf" + original,
            "crlf": original.replace(b"\n", b"\r\n"),
            "cr": original.replace(b"\n", b"\r"),
            "bom-crlf": b"\xef\xbb\xbf" + original.replace(b"\n", b"\r\n"),
        }
        for flags in ([], ["--json"]):
            expected = in_process(capsys, [*argv, *flags])
            for name, data in variants.items():
                path = tmp_path / f"{name}.ideal"
                path.write_bytes(data)
                assert in_process(capsys, [argv[0], str(path), *argv[2:], *flags]) == expected, name

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_parse_error_position_in_any_line_ending(self, capsys, tmp_path, newline):
        text = newline.join(["# a comment", "vars: 3", "generators:", "x1*x2", "x1*x3 + x2 @ x3", ""])
        path = tmp_path / "bad.ideal"
        path.write_bytes(text.encode())
        code = main(["gb", str(path)])
        assert (code, capsys.readouterr().err) == (EXIT_INPUT, "error: line 5, column 12: unexpected character '@'\n")

    def test_verify_failure_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "braid.ideal"
        bad.write_text("vars: 2\nalgebra: free\ngenerators:\nX2*X1*X2 - X1*X2*X1\n")
        code, out = run_cli(capsys, "verify", str(bad), "--json")
        assert code == EXIT_MATH
        data = json.loads(out)
        assert not data["obstructions_resolve"]

    def test_wrong_algebra_rejected(self, capsys):
        code, _ = run_cli(capsys, "gb", str(DATA / "commutator_n2.ideal"))
        assert code == EXIT_INPUT
        code, _ = run_cli(capsys, "verify", str(DATA / "quadric_n3.ideal"))
        assert code == EXIT_INPUT

    def test_order_override(self, capsys):
        code, out = run_cli(
            capsys, "gb", str(DATA / "quadric_n3.ideal"), "--json",
            "--order", "degrevlex",
        )
        assert code == EXIT_OK
        assert json.loads(out)["order"] == "degrevlex"

    def test_varorder_override_changes_initial(self, capsys):
        # ranking x3 < x2 < x1 makes x1x2 the leading quadric monomial
        code, out = run_cli(
            capsys, "gb", str(DATA / "quadric_n3.ideal"), "--json",
            "--varorder", "3,2,1",
        )
        assert code == EXIT_OK
        assert json.loads(out)["initial_ideal"] == ["x1x2"]

    def test_bad_varorder_flag(self, capsys):
        code, _ = run_cli(
            capsys, "gb", str(DATA / "quadric_n3.ideal"), "--varorder", "1,1,2"
        )
        assert code == EXIT_INPUT

    def test_human_readable_output(self, capsys):
        code, out = run_cli(capsys, "gb", str(DATA / "quadric_n3.ideal"))
        assert code == EXIT_OK
        assert "Groebner basis" in out and "x2x3" in out

    def test_gin_exterior_reports_stability(self, capsys):
        code, out = run_cli(
            capsys, "gin", str(DATA / "quadric_n3.ideal"), "--json", "--seed", "3"
        )
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["gin"] == ["x2x3"]
        assert data["gin_strongly_stable"] is True
        assert data["borel_fixed"] is False
        assert data["hilbert_series_match"] is True

    @pytest.mark.parametrize("algebra", ["exterior", "free"])
    @pytest.mark.parametrize("command", ["gb", "lift", "verify", "gin", "hilbert", "predicates"])
    def test_constant_generator_refused(self, capsys, tmp_path, command, algebra):
        path = tmp_path / "constant.ideal"
        path.write_text(f"vars: 2\nalgebra: {algebra}\ngenerators:\n1\n")
        code = main([command, str(path), "--json"])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT and captured.out == ""
        assert "generator is constant" in captured.err

    def test_predicates_requires_monomials(self, capsys):
        code, _ = run_cli(capsys, "predicates", str(DATA / "quadric_n3.ideal"))
        assert code == EXIT_INPUT

    @pytest.mark.parametrize(
        "command,text,varorder,in_header",
        [
            ("lift", Q5, "3,5,1,4,2", False),
            ("lift", Q5, "3,5,1,4,2", True),
            ("gin", Q5, "3,5,1,4,2", False),
            ("gin", Q3, "3,1,2", True),
            ("predicates", G4, "4,3,2,1", False),
            ("predicates", G4, "2,1,3,4", True),
        ],
    )
    def test_non_natural_ranking_refused(self, capsys, tmp_path, command, text, varorder, in_header):
        # the lift, the lifted gin and the predicates assume x1 < ... < xn;
        # the ranking reaches them from the flag or from a varorder header
        path = tmp_path / "ranked.ideal"
        path.write_text(text.format(header=f"varorder: {varorder}\n" if in_header else ""))
        flags = [] if in_header else ["--varorder", varorder]
        code = main([command, str(path), "--json", *flags])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT and captured.out == ""
        assert f"varorder {varorder}" in captured.err

    def test_identity_ranking_gin_unchanged(self, capsys):
        argv = ["gin", str(DATA / "quadric_n3.ideal"), "--json", "--seed", "3"]
        code, default = run_cli(capsys, *argv)
        assert code == EXIT_OK
        code, ranked = run_cli(capsys, *argv, "--varorder", "1,2,3")
        assert code == EXIT_OK and ranked == default

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "anticomm_n2.ideal", "--maxdeg", "-1"],
            ["hilbert", "monomial_free_n2.ideal", "--maxdeg", "-3"],
            ["hilbert", "quadric_n3.ideal", "--maxdeg", "-3"],
            ["gin", "quadric_n3.ideal", "--maxdeg", "-2"],
            # a digit that int() refuses
            ["verify", "anticomm_n2.ideal", "--maxdeg", "²"],
        ],
    )
    def test_negative_maxdeg_refused(self, capsys, argv):
        assert main([argv[0], str(DATA / argv[1])] + argv[2:]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: argument --maxdeg: expected a nonnegative integer, got {argv[-1]!r}\n"

    @pytest.mark.parametrize("argv", [["--help"], ["gin", "--help"]])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage: extlift" in capsys.readouterr().out

    def test_help_lists_the_commands_own_flags(self, capsys):
        helps = {}
        for command in ("gin", "gb"):
            with pytest.raises(SystemExit):
                main([command, "--help"])
            helps[command] = capsys.readouterr().out
        for flag in ("--seed", "--trials", "--height"):
            assert flag in helps["gin"] and flag not in helps["gb"]

    @pytest.mark.parametrize(
        "argv,same",
        [
            (["verify", "anticomm_n2.ideal", "--maxdeg=2"], ["--maxdeg", "2"]),
            (["gin", "commutator_n2.ideal", "--seed=3"], ["--seed", "3"]),
            # a repeated flag keeps its last value
            (["gin", "commutator_n2.ideal", "--seed", "5", "--seed", "3"], ["--seed", "3"]),
        ],
    )
    def test_flag_forms_print_the_same(self, capsys, argv, same):
        path = str(DATA / argv[1])
        first = run_cli(capsys, argv[0], path, "--json", *argv[2:])
        assert first == run_cli(capsys, argv[0], path, "--json", *same)
        assert first[0] == EXIT_OK

    def test_digit_forms_print_what_they_printed(self, capsys, tmp_path):
        # leading zeros are digits: --seed=007 is --seed 7, and vars: 03 is vars: 3
        gin = ["gin", str(DATA / "quadric_n3.ideal"), "--json"]
        for flags, seed, trial_seeds in [
            (["--seed", "5"], 5, [2356064425258417221, 3306906422018949273]),
            (["--seed=007"], 7, [8742514861359412280, 3641603982383516983]),
        ]:
            code, out = run_cli(capsys, *gin, *flags)
            result = json.loads(out)
            assert (code, result["seed"], result["trial_seeds"]) == (EXIT_OK, seed, trial_seeds)
        assert run_cli(capsys, *gin, "--seed=007") == run_cli(capsys, *gin, "--seed", "7")
        path = tmp_path / "v03.ideal"
        path.write_text("vars: 03\ngenerators:\nx1*x2 + 2*x2*x3\n")
        assert run_cli(capsys, "gb", str(path)) == (
            EXIT_OK,
            "reduced minimal Groebner basis (1 elements):\n  x2x3 + 1/2*x1x2\n"
            "initial ideal minimal generators:\n  x2x3\nquotient dimensions by degree: [1, 3, 2, 0]\n",
        )

    def test_main_reads_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["extlift", "gb", str(DATA / "quadric_n3.ideal"), "--json"])
        assert main() == EXIT_OK
        assert capsys.readouterr().out == (GOLDEN / "gb_quadric_n3.json").read_text()

    def test_main_runs_a_wrapper_set_on_the_module(self, capsys, monkeypatch):
        # a tracer replaces cli.cmd_* after import; main must call the replacement
        calls = []

        def wrapper(args, _inner=cli.cmd_gb):
            calls.append(args.command)
            return _inner(args)

        monkeypatch.setattr(cli, "cmd_gb", wrapper)
        assert main(["gb", str(DATA / "quadric_n3.ideal"), "--json"]) == EXIT_OK
        assert calls == ["gb"]
        assert capsys.readouterr().out == (GOLDEN / "gb_quadric_n3.json").read_text()

    @pytest.mark.parametrize("command,source,flags", EXIT_TWO_CASES.values(), ids=list(EXIT_TWO_CASES))
    def test_readme_input_errors_exit_two(self, capsys, tmp_path, command, source, flags):
        # the README's exit-code-2 list, command-line refusals included
        if source is None:
            path = tmp_path / "missing.ideal"
        elif isinstance(source, str) and source.endswith(".ideal"):
            path = DATA / source
        else:
            path = tmp_path / "case.ideal"
            path.write_bytes(source if isinstance(source, bytes) else source.encode())
        code = main([command, str(path), "--json", *flags])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT and captured.out == ""
        assert any(line.startswith("error:") for line in captured.err.splitlines())

    def test_exterior_gin_ignores_maxdeg(self, capsys):
        argv = ["gin", str(DATA / "quadric_n3.ideal"), "--json", "--maxdeg"]
        runs = {run_cli(capsys, *argv, maxdeg) for maxdeg in ("2", "3", "9")}
        assert len(runs) == 1
        code, out = runs.pop()
        assert code == EXIT_OK
        assert list(json.loads(out)["ideal_slice_dimensions"]) == ["0", "1", "2", "3"]

    def test_zero_maxdeg_accepted(self, capsys):
        code, out = run_cli(capsys, "verify", str(DATA / "anticomm_n2.ideal"), "--json", "--maxdeg", "0")
        assert code == EXIT_OK
        assert json.loads(out)["dimension_check"] == [{"degree": 0, "ideal_slice": 0, "initial_cone": 0}]

    @pytest.mark.parametrize(
        "ideal,maxdeg,dims",
        [
            ("monomial_free_n2.ideal", "2", [1, 2, 3]),
            ("quadric_n3.ideal", "1", [1, 3]),
            ("quadric_n3.ideal", "7", [1, 3, 2, 0]),
        ],
    )
    def test_hilbert_maxdeg_caps_dimensions(self, capsys, ideal, maxdeg, dims):
        _, full = run_cli(capsys, "hilbert", str(DATA / ideal), "--json")
        code, out = run_cli(capsys, "hilbert", str(DATA / ideal), "--json", "--maxdeg", maxdeg)
        assert code == EXIT_OK
        capped, full = json.loads(out), json.loads(full)
        assert capped["quotient_dimensions"] == dims
        assert (capped["numerator"], capped["denominator"]) == (full["numerator"], full["denominator"])


# ---- the CLI as a process ----------------------------------------------------


def cli_process(argv, unbuffered=False, **kwargs) -> subprocess.CompletedProcess:
    """``python -m extlift.cli`` on ``argv`` in a fresh process, its stdout
    buffered unless ``unbuffered``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(SRC)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, "-m", "extlift.cli", *argv], env=env, **kwargs)


def in_process(capsys, argv) -> tuple[bytes, str, int]:
    """What ``main(argv)`` writes and returns, as a process would report it."""
    try:
        code = main(argv)
    except SystemExit as exc:  # --help
        code = exc.code
    captured = capsys.readouterr()
    return captured.out.encode(), captured.err, code


JSON_MODULES = {"json", "json.decoder", "json.scanner", "json.encoder", "encodings.utf_8_sig"}
# what "import fractions" loads; a command that makes no non-integer loads none
FRACTION_MODULES = {"fractions", "decimal", "numbers"}


def loaded_modules(argv, absent) -> str:
    """The exit code of ``main(argv)`` in a fresh process, then those of the
    modules ``absent`` that it loaded, on one line."""
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); from extlift.cli import main; "
        f"code = main({argv!r}); "
        f"print(code, *sorted({absent!r} & set(sys.modules)), file=sys.stderr)"
    )
    return subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True).stderr.strip()


class TestProcess:
    def test_import_loads_no_code_generators_or_argparse(self):
        # -S keeps site .pth files from loading any of these before extlift does
        banned = {"dataclasses", "inspect", "typing", "ast", "dis", "tokenize", "argparse", "gettext", "json", *FRACTION_MODULES}
        code = (
            f"import sys; sys.path.insert(0, {str(SRC)!r}); import extlift.cli; "
            f"print(*sorted({banned!r} & set(sys.modules)))"
        )
        out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True).stdout
        assert out.strip() == ""

    @pytest.mark.parametrize(
        "argv,absent",
        [
            (["gb", "quadric_n3.ideal"], {"extlift.freealg", "extlift.lifting", "extlift.gin", "heapq"}),
            (["verify", "anticomm_n2.ideal"], {"extlift.lifting", "extlift.gin"}),
            # --json is written, and the file decoded, without the json
            # package or the utf-8-sig codec
            (["gb", "quadric_n3.ideal", "--json"], {"extlift.freealg", "extlift.lifting", *JSON_MODULES}),
            (["verify", "anticomm_n2.ideal", "--json"], {"extlift.lifting", "extlift.gin", *JSON_MODULES}),
            # the readers that make no non-integer load no fractions, and
            # the exterior gin no heapq either
            (["hilbert", "quadric_n3.ideal"], FRACTION_MODULES),
            (["gin", "quadric_n3.ideal"], {*FRACTION_MODULES, "heapq"}),
            (["predicates", "gap_n4.ideal"], FRACTION_MODULES),
            # the anti-commutators are built from ints, so a candidate of
            # integral coefficients makes no Fraction on the E(V) route
            (["verify", "anticomm_n2.ideal"], FRACTION_MODULES),
            (["verify", "anticomm_n5.ideal", "--maxdeg", "3"], FRACTION_MODULES),
            # the basis and its lift stay integer rows over their leads,
            # printed with no Fraction made
            (["gb", "quadric_n3.ideal"], FRACTION_MODULES),
            (["gb", "gap_n4.ideal", "--json"], FRACTION_MODULES),
            (["lift", "quadric_n3.ideal", "--json"], FRACTION_MODULES),
            (["lift", "gap_n4.ideal"], FRACTION_MODULES),
        ],
    )
    def test_command_loads_only_its_modules(self, argv, absent):
        assert loaded_modules([argv[0], str(DATA / argv[1]), *argv[2:]], absent) == str(EXIT_OK)

    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_passing_verify_of_a_rational_lift_loads_no_fractions(self, tmp_path, flags):
        # the lift of quadric_n3 has the coefficients 2/5 and 1/5: parsed
        # as integers over their denominator, and the candidate built from
        # that multiple
        code, out, _ = replay.run(["lift", str(DATA / "quadric_n3.ideal"), "--json"])
        path = tmp_path / "lifted.ideal"
        path.write_text(replay.load_inputs().lift_to_free_file(json.loads(out)))
        assert code == EXIT_OK and "/5*X" in path.read_text()
        assert loaded_modules(["verify", str(path), *flags], FRACTION_MODULES) == str(EXIT_OK)

    def test_failing_verify_prints_rational_remainders_without_fractions(self):
        # the remainders stay integers over their scales, printed by ratio_str
        argv = ["verify", str(DATA / "lifted_drop_n5.ideal"), "--maxdeg", "3", "--json"]
        assert loaded_modules(argv, FRACTION_MODULES) == str(EXIT_MATH)

    def test_finite_free_hilbert_loads_no_fractions_or_heapq(self, tmp_path):
        # every X_j X_i with j >= i in n=3: a finite series, read off its
        # counts with no Berlekamp-Massey
        path = tmp_path / "finite.ideal"
        words = [f"X{j}*X{i}" for i in range(1, 4) for j in range(i, 4)]
        path.write_text("vars: 3\nalgebra: free\ngenerators:\n" + "\n".join(words) + "\n")
        assert loaded_modules(["hilbert", str(path)], {*FRACTION_MODULES, "heapq"}) == str(EXIT_OK)

    @pytest.mark.parametrize(
        "argv,unbuffered",
        [
            # buffered, the output fails at the final flush
            (["gb", "quadric_n3.ideal"], False),
            (["gb", "quadric_n3.ideal", "--json"], False),
            (["--help"], False),
            # unbuffered, the first print fails inside the command or the parser
            (["gb", "quadric_n3.ideal"], True),
            (["gb", "quadric_n3.ideal", "--json"], True),
            (["--help"], True),
            (["gb", "--help"], True),
        ],
        ids=["gb", "gb-json", "help", "gb-unbuffered", "gb-json-unbuffered", "help-unbuffered", "gb-help-unbuffered"],
    )
    def test_closed_stdout_exits_141_quietly(self, argv, unbuffered):
        argv = [str(DATA / a) if a.endswith(".ideal") else a for a in argv]
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = cli_process(argv, unbuffered, stdout=write_end, stderr=subprocess.PIPE)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr.decode()) == (EXIT_PIPE, "")

    @pytest.mark.parametrize(
        "argv,expected",
        [
            (["gb", "quadric_n3.ideal"], EXIT_PIPE),
            (["verify", "anticomm_n2.ideal", "--json"], EXIT_PIPE),
            (["--help"], EXIT_PIPE),
            (["gb", "commutator_n2.ideal"], EXIT_INPUT),  # the error still goes to stderr
        ],
        ids=["gb", "verify-json", "help", "input-error"],
    )
    def test_missing_stdout_exits_as_a_closed_pipe(self, capsys, argv, expected):
        # started with fd 1 closed (`>&-`), the process has no sys.stdout
        argv = [str(DATA / a) if a.endswith(".ideal") else a for a in argv]
        proc = cli_process(argv, stderr=subprocess.PIPE, preexec_fn=lambda: os.close(1))
        err = in_process(capsys, argv)[1] if expected == EXIT_INPUT else ""
        assert (proc.returncode, proc.stderr.decode()) == (expected, err)

    @pytest.mark.parametrize(
        "argv,expected",
        [
            (["gb", "commutator_n2.ideal"], EXIT_INPUT),
            (["gb", "missing.ideal"], EXIT_INPUT),
            (["gb", "quadric_n3.ideal", "--maxdeg", "2"], EXIT_INPUT),
            (["gb", "quadric_n3.ideal", "--json"], EXIT_OK),  # _run's final flushes do not raise
        ],
        ids=["wrong-algebra", "missing-file", "unknown-flag", "gb-json"],
    )
    def test_closed_stderr_keeps_the_exit_code(self, capsys, argv, expected):
        argv = [str(DATA / a) if a.endswith(".ideal") else a for a in argv]
        proc = cli_process(argv, stdout=subprocess.PIPE, preexec_fn=lambda: os.close(2))
        assert (proc.stdout, proc.returncode) == (in_process(capsys, argv)[0], expected)

    @pytest.mark.parametrize("argv", PARITY_RUNS, ids=[f"{a[0]}-{Path(a[1]).stem}" for a in PARITY_RUNS])
    def test_process_reports_what_main_returns(self, capsys, argv):
        # the process ends without interpreter teardown: its output must
        # still be complete and its exit code main's
        for run in (argv, [*argv, "--json"]):
            proc = cli_process(run, capture_output=True)
            assert (proc.stdout, proc.stderr.decode(), proc.returncode) == in_process(capsys, run)

    @pytest.mark.parametrize(
        "argv,text,expected",
        [
            (["verify"], "vars: 2\nalgebra: free\ngenerators:\nX2*X1*X2 - X1*X2*X1\n", EXIT_MATH),
            (["gb"], "vars: 2\ngenerators:\nx1 +* x2\n", EXIT_INPUT),
            (["--help"], None, EXIT_OK),
            (["gin", "--help"], None, EXIT_OK),
        ],
        ids=["failing-verify", "unparsable-file", "help", "command-help"],
    )
    def test_process_reports_what_main_returns_on_exits(self, capsys, tmp_path, argv, text, expected):
        if text is not None:
            path = tmp_path / "case.ideal"
            path.write_text(text)
            argv = [*argv, str(path)]
        want = in_process(capsys, argv)
        assert want[2] == expected
        proc = cli_process(argv, capture_output=True)
        assert (proc.stdout, proc.stderr.decode(), proc.returncode) == want

    @pytest.mark.parametrize("into", ["pipe", "file"])
    def test_output_beyond_the_pipe_buffer_is_complete(self, capsys, tmp_path, into):
        # lift --json on the benchmark's gap binomials in n=12 prints
        # 89,928 bytes, more than a 64 KiB pipe buffer holds
        spec = importlib.util.spec_from_file_location("perfbench_inputs", SRC.parent / "perfbench" / "inputs.py")
        inputs = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(inputs)
        path = tmp_path / "gap12.ideal"
        path.write_text(inputs.gap_binomials(random.Random("gap12/0"), 12))
        argv = ["lift", str(path), "--json"]
        out, err, code = in_process(capsys, argv)
        assert len(out) > 64 * 1024 and (err, code) == ("", EXIT_OK)
        if into == "pipe":
            proc = cli_process(argv, capture_output=True)
            got = proc.stdout
        else:
            with open(tmp_path / "out.json", "wb") as fh:
                proc = cli_process(argv, stdout=fh, stderr=subprocess.PIPE)
            got = (tmp_path / "out.json").read_bytes()
        assert (got, proc.stderr.decode(), proc.returncode) == (out, err, code)

    def test_commands_leave_no_work_for_interpreter_teardown(self):
        # the console entry ends the process with os._exit once the output
        # is flushed; that skips atexit callbacks, the join of threads and
        # logging's shutdown, so no command may need any of them
        runs = [
            ["gb", "quadric_n3.ideal", "--json"],
            ["hilbert", "quadric_n3.ideal"],
            ["hilbert", "monomial_free_n2.ideal", "--json"],
            ["gin", "quadric_n3.ideal", "--json"],
            ["gin", "commutator_n2.ideal", "--maxdeg", "3"],
            ["lift", "quadric_n3.ideal"],
            ["verify", "anticomm_n2.ideal", "--json"],
            ["predicates", "gap_n4.ideal"],
            ["gb", "commutator_n2.ideal"],  # an input error
        ]
        runs = [[argv[0], str(DATA / argv[1]), *argv[2:]] for argv in runs]
        modules = {"threading", "logging", "tempfile"}
        code = (
            f"import atexit, io, sys; sys.path.insert(0, {str(SRC)!r}); from extlift.cli import main; "
            f"sys.stdout = io.StringIO(); codes = [main(argv) for argv in {runs!r}]; "
            f"print(*codes, atexit._ncallbacks(), *sorted({modules!r} & set(sys.modules)), file=sys.__stdout__)"
        )
        proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True)
        assert proc.stdout.split() == ["0"] * 8 + ["2", "0"]

    def test_console_script_is_the_main_blocks_exit(self):
        # a rename must not leave the installed script on another function
        # than `python -m extlift.cli`
        tomllib = pytest.importorskip("tomllib")
        pyproject = tomllib.loads((SRC.parent / "pyproject.toml").read_text())
        module, _, name = pyproject["project"]["scripts"]["extlift"].partition(":")
        assert module == "extlift.cli" and callable(getattr(cli, name, None))
        tree = ast.parse(Path(cli.__file__).read_text())
        blocks = [
            node for node in tree.body
            if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
        ]
        assert len(blocks) == 1
        called = {
            node.func.id for node in ast.walk(blocks[0])
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        }
        assert name in called

    def test_profiled_process_keeps_its_report(self):
        # a profiler writes its report after main returns, so a profiled
        # process takes the normal exit
        argv = ["-m", "cProfile", "-m", "extlift.cli", "gb", str(DATA / "quadric_n3.ideal"), "--json"]
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env)
        assert proc.returncode == EXIT_OK
        assert proc.stdout.startswith((GOLDEN / "gb_quadric_n3.json").read_text())
        assert "function calls" in proc.stdout


# ---- the parser against the arithmetic parser ----------------------------


def random_generator_line(rng: random.Random, n: int, letter: str) -> str:
    """One generator line: terms of one random degree (sometimes not), with
    mid-term rationals, implicit products, powers (^0 too), repeated
    letters and terms that cancel, with random spacing."""
    degree = rng.randint(1, 4)
    terms = []
    for _ in range(rng.randint(1, 4)):
        if terms and rng.random() < 0.25:
            # repeat an earlier term, so that it may cancel or double
            terms.append((rng.choice("+-"), rng.choice(terms)[1]))
            continue
        length = degree if rng.random() < 0.8 else rng.randint(0, 4)
        if letter == "x" and length <= n and rng.random() < 0.6:
            word = rng.sample(range(1, n + 1), length)  # no repeated letter
        else:
            word = [rng.randint(1, n) for _ in range(length)]
        factors = []
        k = 0
        while k < len(word):
            run = 1
            while k + run < len(word) and word[k + run] == word[k] and rng.random() < 0.7:
                run += 1
            factors.append(f"{letter}{word[k]}" + (f"^{run}" if run > 1 or rng.random() < 0.1 else ""))
            k += run
            if rng.random() < 0.1:
                factors.append(f"{letter}{rng.randint(1, n)}^0")
        for _ in range(rng.choice((0, 0, 1, 2))):
            coef = str(rng.randint(0, 12)) + (f"/{rng.randint(1, 9)}" if rng.random() < 0.5 else "")
            factors.insert(rng.randint(0, len(factors)), coef)
        if not factors:
            factors = [str(rng.randint(1, 5))]
        body = factors[0]
        for f in factors[1:]:
            implicit = f[0] == letter and rng.random() < 0.4
            body += rng.choice(("", " ")) if implicit else rng.choice(("*", " * "))
            body += f
        terms.append((rng.choice("+-"), body))
    line = "" if terms[0][0] == "+" and rng.random() < 0.7 else terms[0][0]
    line += terms[0][1]
    for sign, body in terms[1:]:
        line += rng.choice((f" {sign} ", sign))
        line += body
    return line


def mutate(rng: random.Random, line: str) -> str:
    """A malformed neighbour of a line: a character deleted, inserted or
    replaced, or the line cut short."""
    pos = rng.randint(0, len(line))
    what = rng.randrange(4)
    noise = rng.choice("+-*/^()@xX019 ")
    if what == 0:
        return line[:pos] + line[pos + 1:]
    if what == 1:
        return line[:pos] + noise + line[pos:]
    if what == 2:
        return line[:pos] + noise + line[pos + 1:]
    return line[:pos]


def corpus_files(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 5)
        algebra = rng.choice(("exterior", "free"))
        letter = "x" if algebra == "exterior" else "X"
        if rng.random() < 0.1:
            letter = letter.swapcase()  # the other algebra's variables
        lines = [random_generator_line(rng, n, letter) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.4:
            k = rng.randrange(len(lines))
            lines[k] = mutate(rng, lines[k])
        yield f"vars: {n}\nalgebra: {algebra}\ngenerators:\n" + "\n".join(lines) + "\n"


def parse_outcome(text: str):
    """("ok", the generators), or ("error", the input error's type and
    message)."""
    try:
        return "ok", parse_ideal(text).generators
    except ValueError as exc:
        return "error", type(exc), str(exc)


class ArithmeticWhileParsing(AssertionError):
    pass


def refuse_polynomial_arithmetic(mp: pytest.MonkeyPatch) -> None:
    """Make polynomial +, scale and both * raise, through mp."""

    def refuse(*args, **kwargs):
        raise ArithmeticWhileParsing("polynomial arithmetic while parsing")

    mp.setattr(algebra._TermPolynomial, "__add__", refuse)
    mp.setattr(algebra._TermPolynomial, "scale", refuse)
    mp.setattr(algebra.ExtPolynomial, "__mul__", refuse)
    mp.setattr(algebra.FreePolynomial, "__mul__", refuse)


class TestAgainstArithmeticParser:
    """parse_ideal against the same function with the generator parser
    swapped for ``oracles.arithmetic_parse_generator``: equal generators, or the
    same error type and message.  The parser runs with polynomial
    arithmetic refused."""

    @pytest.mark.parametrize("seed", range(4))
    def test_corpus(self, monkeypatch, seed):
        outcomes = []
        for text in corpus_files(seed, 1000):
            with monkeypatch.context() as m:
                m.setattr(parsing, "_parse_generator", arithmetic_parse_generator)
                expected = parse_outcome(text)
            with monkeypatch.context() as m:
                refuse_polynomial_arithmetic(m)
                got = parse_outcome(text)
            assert got == expected, text
            outcomes.append(expected)
        # the corpus reaches every outcome the comparison is about
        errors = [o[2] for o in outcomes if o[0] == "error"]
        assert len(outcomes) - len(errors) > 100
        assert sum("generator is zero" in e for e in errors) > 50
        assert sum("not homogeneous" in e for e in errors) > 50
        assert sum("column" in e for e in errors) > 50

    def test_data_files_parse_without_polynomial_arithmetic(self, monkeypatch):
        refuse_polynomial_arithmetic(monkeypatch)
        paths = sorted(DATA.glob("*.ideal"))
        assert len(paths) == 10
        for path in paths:
            assert parse_ideal(path.read_text(encoding="utf-8")).generators


def fraction_generator(text: str, line: int, ctx, algebra: str, letters: int, budget: int):
    """``oracles.fraction_parse_generator``, the generator parser as it was,
    given and returning what ``parsing._parse_generator`` does."""
    return as_parse_result(fraction_parse_generator(text, line, ctx, algebra), letters)


def typed_outcome(text: str):
    """``parse_outcome`` with each generator's terms in order, each
    coefficient with its type."""
    outcome = parse_outcome(text)
    if outcome[0] == "error":
        return outcome
    return "ok", [[(k, v, type(v)) for k, v in g.terms.items()] for g in outcome[1]]


class TestAgainstFractionParser:
    """parse_ideal against the same function with the generator parser as
    it was, which summed the terms in ints and Fractions: the same
    generators term by term, each coefficient of the same type, or the
    same error type and message."""

    @pytest.mark.parametrize("seed", range(4))
    def test_corpus(self, monkeypatch, seed):
        fractions = 0
        for text in corpus_files(seed, 1000):
            with monkeypatch.context() as m:
                m.setattr(parsing, "_parse_generator", fraction_generator)
                expected = typed_outcome(text)
            assert typed_outcome(text) == expected, text
            if expected[0] == "ok":
                fractions += any(t is Fraction for g in expected[1] for _, _, t in g)
        assert fractions > 50
