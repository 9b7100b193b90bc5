"""Self-tests of the benchmark's own code: span self times, seeded input
generation and the lift-to-free-file converter.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import contextlib
import io
import json
import sys
from fractions import Fraction

import pytest

import inputs
import run
import tracer

sys.path.insert(0, str(run.ROOT / "src"))

from extlift.cli import main as cli_main  # noqa: E402
from extlift.parsing import parse_ideal  # noqa: E402


def test_self_times_on_hand_built_tree():
    # command 0: a(0..10) with children b(1..4) and c(3..6), which overlap;
    # b has a child d(2..3).  Command 1 reuses span ids 0 and 1.
    spans = [
        [0, "m.a", 0.0, 10.0, -1, 0],
        [1, "m.b", 1.0, 4.0, 0, 0],
        [2, "m.c", 3.0, 6.0, 0, 0],
        [3, "m.d", 2.0, 3.0, 1, 0],
        [0, "m.a", 0.0, 2.0, -1, 1],
        [1, "m.d", 0.5, 1.0, 0, 1],
    ]
    selfs = tracer.self_times(spans)
    assert selfs == {(0, 0): 5.0, (0, 1): 2.0, (0, 2): 3.0, (0, 3): 1.0, (1, 0): 1.5, (1, 1): 0.5}
    totals = tracer.layer_totals(
        [{"spans": spans[:4], "counters": {"linalg.rref.rows_in": 4, "linalg.rref.rank_out": 1}},
         {"spans": spans[4:], "counters": {"linalg.rref.rows_in": 4, "linalg.rref.rank_out": 2}}]
    )
    assert totals["m.a.calls"] == 2 and totals["m.a.self_s"] == 6.5
    assert totals["m.d.calls"] == 2 and totals["m.d.self_s"] == 1.5
    assert totals["linalg.rref.useful_ratio"] == 3 / 8


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_same_seed_same_files_other_seed_other_files(workload):
    first = [text for steps in run.plan(workload, 11) for _, text in steps]
    again = [text for steps in run.plan(workload, 11) for _, text in steps]
    other = [text for steps in run.plan(workload, 12) for _, text in steps]
    assert first == again
    assert first != other
    # every pass takes the next instance of each family
    assert len(set(first)) == len(first)


def test_every_family_parses():
    for family in run.FAMILIES:
        ideal = parse_ideal(run.instance(family, 0))
        assert ideal.generators


def test_negative_coefficients_are_folded_into_the_operator():
    line = inputs.poly_text([(Fraction(1), (1, 2)), (Fraction(-3, 4), (2, 1))], "X")
    assert line == "X1*X2 - 3/4*X2*X1"
    (g,) = parse_ideal(inputs.ideal_text(2, "free", [line])).generators
    assert g.terms == {(1, 2): 1, (2, 1): Fraction(-3, 4)}


def _lift_json(text, tmp_path):
    path = tmp_path / "in.ideal"
    path.write_text(text)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli_main(["lift", str(path), "--json"]) == 0
    return json.loads(out.getvalue())


def _words(word):
    return tuple(int(p) for p in word.split("X")[1:])


@pytest.mark.parametrize("family", ["ext7", "gap7"])
def test_converter_round_trip(family, tmp_path):
    lift = _lift_json(run.instance(family, 3), tmp_path)
    free = parse_ideal(inputs.lift_to_free_file(lift))
    pairs = list(lift["anti_commutators"]) + [e["element"] for e in lift["lifted_elements"]]
    assert any(Fraction(c) < 0 for p in pairs for c, _ in p)
    assert [g.terms for g in free.generators] == [
        {_words(w): Fraction(c) for c, w in p} for p in pairs
    ]
    assert free.ctx.n == lift["vars"] and free.order.kind == lift["order"]
    initial = parse_ideal(inputs.preimage_initial_file(lift))
    assert [g.terms for g in initial.generators] == [
        {_words(w): 1} for w in lift["initial_ideal_of_preimage"]
    ]
