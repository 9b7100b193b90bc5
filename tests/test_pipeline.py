"""The paper's pipeline end to end through ``cli.main``: ``lift`` an
exterior ideal, ``verify`` the lifted basis, and count the normal words of
the preimage's initial ideal with the free ``hilbert``.  Each run makes
the checks of the benchmark's ``lift_verify`` step: every command exits 0,
``verify`` accepts the lifted basis, and the normal-word counts equal
n^d minus the ideal's slice dimensions."""

import json
import random
from pathlib import Path

import pytest

from extlift.algebra import AlgebraContext
from extlift.cli import EXIT_OK, main
from extlift.orders import ExtOrderSpec
from extlift.parsing import ext_poly_str

from helpers import gap_binomials, random_ext_polynomial

DATA = Path(__file__).parent / "data"


def run_json(capsys, *argv) -> dict:
    code = main([*argv, "--json"])
    out = capsys.readouterr().out
    assert code == EXIT_OK, argv
    return json.loads(out)


def factors(word: str) -> str:
    """A JSON word such as "X1X2" as the file's "X1*X2"."""
    return "*".join("X" + p for p in word.split("X")[1:])


def generator_line(pairs) -> str:
    """A free generator line from the JSON pairs (coefficient, word), such
    as ("-3/4", "X1X2"); the parser takes a sign before every term."""
    return " ".join(f"{'-' if c.startswith('-') else '+'} {c.lstrip('-')}*{factors(w)}" for c, w in pairs)


def free_file(n: int, order: str, lines: list[str]) -> str:
    return f"vars: {n}\nalgebra: free\norder: {order}\ngenerators:\n" + "".join(line + "\n" for line in lines)


def seeded_exterior_file(family: str, seed: int) -> str:
    """3 random quadrics or 2 gap binomials in n=5, as an exterior file."""
    rng = random.Random(f"pipeline/{family}/{seed}")
    ctx = AlgebraContext(5)
    gens = [random_ext_polynomial(rng, ctx, 2) for _ in range(3)] if family == "quadrics" else gap_binomials(rng, ctx)
    order = ExtOrderSpec()
    return "vars: 5\ngenerators:\n" + "".join(ext_poly_str(g, order) + "\n" for g in gens)


def pipeline(capsys, tmp_path, source, order: str) -> dict:
    lift = run_json(capsys, "lift", str(source), "--order", order)
    n = lift["vars"]
    elements = list(lift["anti_commutators"]) + [e["element"] for e in lift["lifted_elements"]]
    lifted = tmp_path / "lifted.ideal"
    lifted.write_text(free_file(n, order, [generator_line(p) for p in elements]))
    preimage = tmp_path / "preimage.ideal"
    preimage.write_text(free_file(n, order, [factors(w) for w in lift["initial_ideal_of_preimage"]]))
    hil = run_json(capsys, "hilbert", str(preimage))
    for cap in (["--maxdeg", "3"], []):
        ver = run_json(capsys, "verify", str(lifted), *cap)
        assert ver["obstructions_resolve"] and ver["dimensions_agree"]
        normal = [n ** row["degree"] - row["ideal_slice"] for row in ver["dimension_check"]]
        assert hil["quotient_dimensions"][: len(normal)] == normal
    return lift


@pytest.mark.parametrize("order", ["deglex", "degrevlex"])
@pytest.mark.parametrize("name", ["quadric_n3.ideal", "gap_n4.ideal"])
def test_data_files(capsys, tmp_path, name, order):
    pipeline(capsys, tmp_path, DATA / name, order)


@pytest.mark.parametrize("order", ["deglex", "degrevlex"])
@pytest.mark.parametrize("family", ["quadrics", "gaps"])
def test_seeded_n5(capsys, tmp_path, family, order):
    multipliers = set()
    for seed in range(4):
        source = tmp_path / "source.ideal"
        source.write_text(seeded_exterior_file(family, seed))
        lift = pipeline(capsys, tmp_path, source, order)
        multipliers |= {e["multiplier"] for e in lift["lifted_elements"]}
    # generic quadrics are squeezed; the gaps need nontrivial multipliers
    assert (multipliers == {"1"}) == (family == "quadrics")
