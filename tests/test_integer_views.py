"""The integer views that the commands read, against the ``Fraction`` paths
they replaced (``tests/oracles.py``), on a seeded corpus of ``ext`` and
``gap`` ideals at n=3-8 under both orders: ``linalg.back_substitute`` over
its lead, ``ExtGroebnerBasis.elements``, ``LiftedBasis.lifted``, the
parsed generators and a candidate built from the parsed multiples.  Each
public view equals its oracle in value, in type and in the order of its
terms.  ``parsing.ratio_str``, the one formatter of the CLI, writes what
``str(Fraction)`` writes."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extlift.exterior import ExtIdeal, groebner_ext
from extlift.freealg import FreeGroebnerCandidate, ideal_slice_dims, obstructions_resolve
from extlift.lifting import lift_groebner
from extlift.linalg import back_substitute, echelon
from extlift.orders import leading_term_free
from extlift.parsing import ext_poly_pairs, free_poly_str, parse_ideal, ratio_str

import replay
from helpers import slice_oracle_corpus
from oracles import (
    MonicCandidate,
    fraction_back_substitute,
    fraction_basis_elements,
    fraction_lift_groebner,
    fraction_parse_generator,
)

INPUTS = replay.load_inputs()
KINDS = ("deglex", "degrevlex")
CASES = [(family, n) for family in ("ext", "gap") for n in range(3 if family == "ext" else 4, 9)]


def exact(p) -> list:
    """The terms of a polynomial in order, each with its coefficient's type."""
    return [(k, v, type(v)) for k, v in p.terms.items()]


def corpus(family: str, n: int, kind: str):
    """Three seeded files of the family in n variables under ``kind``."""
    make = {"ext": INPUTS.ext_quadrics, "gap": INPUTS.gap_binomials}[family]
    for seed in range(3):
        yield make(random.Random(f"views/{family}{n}/{seed}"), n).replace("order: deglex", f"order: {kind}")


def fraction_parse(text: str, algebra: str) -> list:
    """The generators of ``text`` by ``oracles.fraction_parse_generator``."""
    lines = text.splitlines()
    start = lines.index("generators:") + 1
    ctx = parse_ideal(text).ctx
    return [fraction_parse_generator(line, no, ctx, algebra) for no, line in enumerate(lines[start:], start + 1)]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", range(2, 9))
def test_back_substitute_over_its_lead_against_the_fraction_rows(n, kind):
    for rows, _, _ in slice_oracle_corpus(n, kind):
        pivot_rows = echelon(rows)
        for k in pivot_rows:
            row = back_substitute(pivot_rows, k)
            assert all(type(v) is int for v in row.values())
            reduced = {c: Fraction(v, row[k]) for c, v in row.items()}
            assert list(reduced.items()) == list(fraction_back_substitute(pivot_rows, k).items())


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("family,n", CASES)
def test_basis_and_lift_views_against_the_fraction_paths(family, n, kind):
    for text in corpus(family, n, kind):
        ideal = parse_ideal(text)
        assert [exact(g) for g in ideal.generators] == [exact(g) for g in fraction_parse(text, "exterior")]
        # the basis of the parsed multiples is the basis of the generators
        G = groebner_ext(ExtIdeal(ideal.ctx, ideal.multiples, ideal.order))
        old = groebner_ext(ExtIdeal(ideal.ctx, ideal.generators, ideal.order))
        assert [exact(f) for f in G.elements] == [exact(f) for f in fraction_basis_elements(old)]
        # each multiple is an integer row over its lead
        assert all(type(v) is int for N in G.multiples for v in N.terms.values())
        lifted = lift_groebner(G)
        triples, init = fraction_lift_groebner(G)
        assert [(exact(f), u, exact(F)) for f, u, F in lifted.lifted] == [(exact(f), u, exact(F)) for f, u, F in triples]
        assert lifted.initial_mingens == init
        assert [d for *_, d in lifted.multiples] and all(type(v) is int for _, _, N, _ in lifted.multiples for v in N.terms.values())


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("family,n", CASES)
def test_candidate_from_the_parsed_multiples_against_the_monic_one(tmp_path, family, n, kind):
    """The lifted file, intact and with its first lifted element dropped:
    the parse against the Fraction parser, and the candidate of the
    parsed multiples against the monic construction on the generators."""
    for text in corpus(family, n, kind):
        source = tmp_path / "source.ideal"
        source.write_text(text)
        code, out, _ = replay.run(["lift", str(source), "--json"])
        assert code == 0
        lift = json.loads(out)
        lines = INPUTS.lift_to_free_file(lift).splitlines(keepends=True)
        first = len(lines) - len(lift["lifted_elements"])
        for free_text in ("".join(lines), "".join(lines[:first] + lines[first + 1:])):
            ideal = parse_ideal(free_text)
            assert [exact(g) for g in ideal.generators] == [exact(g) for g in fraction_parse(free_text, "free")]
            order, ctx = ideal.free_order, ideal.ctx
            monic = MonicCandidate(ctx, list(ideal.generators), order)
            from_generators = FreeGroebnerCandidate(ctx, list(ideal.generators), order)
            from_multiples = FreeGroebnerCandidate(ctx, list(ideal.multiples), order)
            assert [exact(F) for F in from_generators.elements] == [exact(F) for F in monic.elements]
            assert from_multiples.elements == monic.elements
            for G in (from_generators, from_multiples):
                assert (G.leading_words, G.leads, G.tails) == (monic.leading_words, monic.leads, monic.tails)
                assert (G.automaton.step, G.automaton.match) == (monic.automaton.step, monic.automaton.match)
            ok, failures = obstructions_resolve(from_multiples)
            again, same = obstructions_resolve(from_generators)
            assert ok == again
            assert [(f.i, f.j, f.word, exact(f.remainder)) for f in failures] == [
                (f.i, f.j, f.word, exact(f.remainder)) for f in same
            ]
            assert all(type(v) is Fraction for f in failures for v in f.remainder.terms.values())
            cap = min(n + 1, 4)
            words = from_multiples.leading_words
            assert ideal_slice_dims(list(ideal.multiples), words, ctx, order, cap) == ideal_slice_dims(
                monic.elements, words, ctx, order, cap
            )


@pytest.mark.parametrize("name", ["anticomm_n2.ideal", "int_leads_n3.ideal", "inclusion_ties_n2.ideal", "lifted_drop_n5.ideal"])
def test_verify_reads_any_nonzero_multiple_of_each_generator(tmp_path, name):
    """Each generator scaled by a rational factor, so that every other
    lead is negative: the candidate and the slice check read the parsed
    multiples, and ``verify`` writes the same bytes, its remainders
    included."""
    original = replay.DATA / name
    text = original.read_text()
    head = text[: text.index("generators:\n") + len("generators:\n")]
    ideal = parse_ideal(text)
    order, rng = ideal.free_order, random.Random(name)
    lines = []
    for i, g in enumerate(ideal.generators):
        sign = (-1) ** i if leading_term_free(g, order)[1] > 0 else -((-1) ** i)
        lines.append(free_poly_str(g.scale(Fraction(sign * rng.randint(1, 9), rng.randint(1, 9))), order))
    scaled = tmp_path / name
    scaled.write_text(head + "\n".join(lines) + "\n")
    multiples = parse_ideal(scaled.read_text()).multiples
    leads = [leading_term_free(N, order)[1] for N in multiples]
    assert [c < 0 for c in leads] == [i % 2 == 1 for i in range(len(leads))]
    # the primitive rows, positive leads and all, are those of the monic elements
    monic = MonicCandidate(ideal.ctx, list(ideal.generators), order)
    G = FreeGroebnerCandidate(ideal.ctx, list(multiples), order)
    assert (G.leading_words, G.leads, G.tails) == (monic.leading_words, monic.leads, monic.tails)
    cap = ["--maxdeg", "3"] if name in replay.N5_FREE else []
    for flags in ([], ["--json"]):
        assert replay.run(["verify", str(scaled), *cap, *flags]) == replay.run(["verify", str(original), *cap, *flags])


def test_parsed_types_follow_the_sum_of_ints_and_fractions():
    """A coefficient is a Fraction when a fractional term was summed into it
    since its sum was last zero, integral or not, and an int otherwise."""
    text = (
        "vars: 3\nalgebra: free\ngenerators:\n"
        "1/2*X1*X2 + 1/2*X1*X2 + 3*X2*X3 + 1/3*X3*X1 - 1/3*X3*X1 + 2*X3*X1 + 4/2*X2*X1\n"
        "1/2*X1*X2 - 1/2*X1*X2 + 5*X1*X2 + 1/3*X2*X3\n"
    )
    got = [exact(g) for g in parse_ideal(text).generators]
    assert got == [exact(g) for g in fraction_parse(text, "free")]
    assert got[0] == [((1, 2), 1, Fraction), ((2, 3), 3, int), ((3, 1), 2, int), ((2, 1), 2, int)]
    assert got[1] == [((1, 2), 5, int), ((2, 3), Fraction(1, 3), Fraction)]
    ext = "vars: 3\ngenerators:\nx2*x1 + 1/2*x1*x2 + 1/2*x1*x2 + x2*x3 - 3/4*x3*x2\n"
    got = [exact(g) for g in parse_ideal(ext).generators]
    assert got == [exact(g) for g in fraction_parse(ext, "exterior")]


BIG = st.integers(-(2**200), 2**200)


@settings(derandomize=True, deadline=None, max_examples=500)
@given(BIG, st.one_of(st.sampled_from([1, -1]), st.integers(-12, 12).filter(bool), BIG.filter(bool)))
def test_ratio_str_writes_what_str_fraction_writes(num, den):
    assert ratio_str(num, den) == str(Fraction(num, den))


def test_pairs_of_an_integer_view_equal_those_of_its_quotient():
    ideal = parse_ideal("vars: 3\ngenerators:\n3*x1*x2 - 6*x1*x3 + 4*x2*x3\n")
    N, order = ideal.multiples[0], ideal.order
    for den in (1, -1, 3, -6, 12):
        quotient = type(N)._raw({m: Fraction(v, den) for m, v in N.terms.items()})
        assert ext_poly_pairs(N, order, den) == [(str(c), str(m)) for m, c in sorted(quotient.terms.items(), key=lambda t: order.ext_key(t[0]), reverse=True)]
