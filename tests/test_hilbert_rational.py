"""Differential tests of the rational Hilbert series against the
transfer-matrix reference (a characteristic polynomial and a gcd over
Fraction) and against Berlekamp-Massey run on every series, finite ones
too, and a guard that the CLI does not load sympy."""

import os
import random
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

from extlift.algebra import AlgebraContext
from extlift.exterior import ExtIdeal, groebner_ext
from extlift.freealg import MonomialIdealFree, hilbert_rational
from extlift.lifting import lift_groebner
from extlift.orders import ExtOrderSpec, FreeOrderSpec

from helpers import random_ext_ideal_gens
from oracles import bm_hilbert_rational, charpoly_hilbert_rational, fraction_charpoly

SRC = Path(__file__).resolve().parent.parent / "src"


def random_patterns(rng: random.Random, n: int) -> list[tuple[int, ...]]:
    """Random words of length 1..6; one draw in four also takes every word
    of some length, which leaves a finite quotient."""
    pats = [
        tuple(rng.randint(1, n) for _ in range(rng.randint(1, 6)))
        for _ in range(rng.randint(0, 5))
    ]
    if rng.random() < 0.25:
        pats += list(product(range(1, n + 1), repeat=rng.randint(1, 3)))
    return pats


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_random_monomial_ideals_match_oracle(n):
    rng = random.Random(n)
    cases = [[]] + [random_patterns(rng, n) for _ in range(250)]
    finite = 0
    for pats in cases:
        B = MonomialIdealFree(pats, n)
        num, den = hilbert_rational(B)
        assert (num, den) == charpoly_hilbert_rational(B), pats
        finite += den == [1]
    assert finite >= 5


@pytest.mark.parametrize("kind", ["deglex", "degrevlex"])
def test_lifted_preimage_initial_ideals_match_oracle(kind):
    rng = random.Random(17)
    order = ExtOrderSpec(kind)
    for _ in range(25):
        n = rng.choice([3, 4, 5])
        ctx = AlgebraContext(n)
        lifted = lift_groebner(groebner_ext(ExtIdeal(ctx, random_ext_ideal_gens(rng, ctx), order)))
        B = MonomialIdealFree(lifted.initial_mingens, n, FreeOrderSpec(order))
        assert hilbert_rational(B) == charpoly_hilbert_rational(B)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_finite_series_read_off_the_counts_match_berlekamp_massey(n):
    # a finite series is the polynomial of the counts before the first 0;
    # an infinite one still goes through Berlekamp-Massey
    rng = random.Random(f"bm/{n}")
    cases = [[]] + [random_patterns(rng, n) for _ in range(250)]
    ctx = AlgebraContext(n)
    for kind in ("deglex", "degrevlex"):
        order = ExtOrderSpec(kind)
        for _ in range(4 if n >= 3 else 0):
            lifted = lift_groebner(groebner_ext(ExtIdeal(ctx, random_ext_ideal_gens(rng, ctx), order)))
            cases.append(list(lifted.initial_mingens))
    finite = infinite = 0
    for pats in cases:
        B = MonomialIdealFree(pats, n)
        num, den = hilbert_rational(B)
        assert (num, den) == bm_hilbert_rational(B), pats
        finite += den == [1]
        infinite += den != [1]
    assert finite >= 50 and infinite >= 30


@pytest.mark.parametrize("seed", range(5))
def test_oracle_charpoly_of_a_companion_matrix(seed):
    # the companion matrix of monic p has characteristic polynomial p
    rng = random.Random(seed)
    k = rng.randint(1, 8)
    p = [rng.randint(-9, 9) for _ in range(k)] + [1]
    companion = [[int(i == j + 1) for j in range(k)] for i in range(k)]
    for i in range(k):
        companion[i][k - 1] = -p[i]
    assert fraction_charpoly(companion) == p


def test_cli_import_loads_no_sympy():
    code = "import sys, extlift.cli; print('sympy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.strip() == "False"
