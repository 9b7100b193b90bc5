import json
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from extlift import algebra, parsing
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
from oracles import ArithmeticExprParser

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"
SRC = Path(algebra.__file__).parents[1]
DEGLEX = ExtOrderSpec("deglex")
Q3 = "vars: 3\n{header}generators:\nx1*x2 + 2*x1*x3 + 5*x2*x3\n"
Q5 = "vars: 5\n{header}generators:\nx1*x2 + 2*x3*x4 - x2*x5\nx1*x3 - x4*x5 + 3*x2*x3\n"


# The README's exit-code-2 cases as (command, source, flags); the source is
# a file under tests/data, the text of a file, or None for a missing file.
EXIT_TWO_CASES = {
    "unreadable-file": ("gb", None, []),
    "unparsable-file": ("gb", "vars: 2\ngenerators:\nx1 +* x2\n", []),
    "repeated-header-key": ("gb", "vars: 3\nvars: 4\ngenerators:\nx1*x2\n", []),
    "free-ideal-to-gb": ("gb", "commutator_n2.ideal", []),
    "exterior-ideal-to-verify": ("verify", "quadric_n3.ideal", []),
    "nonhomogeneous-generator": ("gb", "vars: 2\ngenerators:\nx1 + x1*x2\n", []),
    "zero-generator": ("gb", "vars: 2\ngenerators:\nx1*x1\n", []),
    "constant-generator": ("gb", "vars: 2\ngenerators:\n1\n", []),
    "non-monomial-predicates": ("predicates", "quadric_n3.ideal", []),
    "non-monomial-free-hilbert": ("hilbert", "commutator_n2.ideal", []),
    "degree-1-lift": ("lift", "linear_n2.ideal", []),
    "degree-1-predicates": ("predicates", "linear_n2.ideal", []),
    "degree-1-exterior-gin": ("gin", "linear_n2.ideal", []),
    "gin-maxdeg-below-2": ("gin", "quadric_n3.ideal", ["--maxdeg", "1"]),
    "trials-below-2": ("gin", "quadric_n3.ideal", ["--trials", "1"]),
    "height-below-1": ("gin", "quadric_n3.ideal", ["--height", "0"]),
    "bad-varorder": ("gb", "quadric_n3.ideal", ["--varorder", "1,1,2"]),
    "non-natural-ranking-lift": ("lift", "quadric_n3.ideal", ["--varorder", "2,1,3"]),
    "non-natural-ranking-exterior-gin": ("gin", "quadric_n3.ideal", ["--varorder", "2,1,3"]),
    "negative-maxdeg": ("gin", "quadric_n3.ideal", ["--maxdeg", "-2"]),
    "non-integer-seed": ("gin", "quadric_n3.ideal", ["--seed", "1.5"]),
    "non-integer-trials": ("gin", "quadric_n3.ideal", ["--trials", "two"]),
    "non-integer-height": ("gin", "quadric_n3.ideal", ["--height", "1e3"]),
    "unknown-flag": ("gb", "quadric_n3.ideal", ["--bogus"]),
    "unknown-command": ("groebner", "quadric_n3.ideal", []),
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
        ],
    )
    def test_golden_json(self, capsys, golden, argv):
        argv = [argv[0], str(DATA / argv[1])] + argv[2:]
        code, out = run_cli(capsys, *argv)
        assert code == EXIT_OK
        assert out == (GOLDEN / golden).read_text()
        json.loads(out)  # well-formed

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
        ],
    )
    def test_non_natural_ranking_refused(self, capsys, tmp_path, command, text, varorder, in_header):
        # the lift and the lifted gin assume x1 < ... < xn; the ranking
        # reaches them from the flag or from a varorder header
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
        ],
    )
    def test_negative_maxdeg_refused(self, capsys, argv):
        assert main([argv[0], str(DATA / argv[1])] + argv[2:]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert "--maxdeg" in captured.err and len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [["--help"], ["gin", "--help"]])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage: extlift" in capsys.readouterr().out

    @pytest.mark.parametrize("command,source,flags", EXIT_TWO_CASES.values(), ids=list(EXIT_TWO_CASES))
    def test_readme_input_errors_exit_two(self, capsys, tmp_path, command, source, flags):
        # the README's exit-code-2 list, command-line refusals included
        if source is None:
            path = tmp_path / "missing.ideal"
        elif source.endswith(".ideal"):
            path = DATA / source
        else:
            path = tmp_path / "case.ideal"
            path.write_text(source)
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


class TestProcess:
    def test_import_loads_no_code_generators(self):
        # -S keeps site .pth files from loading any of these before extlift does
        banned = {"dataclasses", "inspect", "typing", "ast", "dis", "tokenize"}
        code = (
            f"import sys; sys.path.insert(0, {str(SRC)!r}); import extlift.cli; "
            f"print(*sorted({banned!r} & set(sys.modules)))"
        )
        out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True).stdout
        assert out.strip() == ""

    @pytest.mark.parametrize(
        "argv,unbuffered",
        [
            # buffered, the output fails at the final flush
            (["gb", "quadric_n3.ideal"], False),
            (["gb", "quadric_n3.ideal", "--json"], False),
            (["--help"], False),
            # unbuffered, the first print fails inside the command
            (["gb", "quadric_n3.ideal"], True),
            (["gb", "quadric_n3.ideal", "--json"], True),
        ],
        ids=["gb", "gb-json", "help", "gb-unbuffered", "gb-json-unbuffered"],
    )
    def test_closed_stdout_exits_141_quietly(self, argv, unbuffered):
        argv = [str(DATA / a) if a.endswith(".ideal") else a for a in argv]
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(SRC)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            cmd = [sys.executable, "-m", "extlift.cli", *argv]
            proc = subprocess.run(cmd, stdout=write_end, stderr=subprocess.PIPE, env=env)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr.decode()) == (EXIT_PIPE, "")


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
    swapped for ``oracles.ArithmeticExprParser``: equal generators, or the
    same error type and message.  The parser runs with polynomial
    arithmetic refused."""

    @pytest.mark.parametrize("seed", range(4))
    def test_corpus(self, monkeypatch, seed):
        outcomes = []
        for text in corpus_files(seed, 1000):
            with monkeypatch.context() as m:
                m.setattr(parsing, "_ExprParser", ArithmeticExprParser)
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
        assert len(paths) == 7
        for path in paths:
            assert parse_ideal(path.read_text(encoding="utf-8")).generators
