"""Seeded input families for the benchmark, and the converters that turn
one command's JSON output into the next command's ideal file.

Every generator takes a ``random.Random`` and returns the text of an ideal
file, so the same seed always gives byte-identical files.  The program
under test only ever sees these files.

Why each family exists:

* ``ext_quadrics``: dense random quadrics, drawn term by term exactly as
  ``tests/helpers.random_ext_polynomial`` draws them.  Generic ideals have
  the same initial-ideal shape for every seed, so their cost barely
  depends on the seed, and their dense ``Fraction`` slices are where
  ``linalg.rref`` spends its time.  Their initial ideals are squeezed, so
  their lifts carry only the trivial multiplier.
* ``gap_binomials``: sparse binomials ``c1*xa*xb + c2*xc*xd`` with
  ``a < c < d < b``.  The leading monomial ``xa*xb`` leaves a gap of
  variables between ``a`` and ``b`` that the initial ideal does not reach,
  so the ideal is not squeezed and the lift needs nontrivial multipliers
  from ``compute_U``; the lifted basis is larger and has higher-degree
  elements than a generic one of the same ``n``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations


def _term(coef: Fraction, letters: tuple[int, ...], var: str) -> str:
    mono = "*".join(f"{var}{i}" for i in letters)
    mag = abs(coef)
    if not mono:
        return str(mag)
    return mono if mag == 1 else f"{mag}*{mono}"


def poly_text(terms: list[tuple[Fraction, tuple[int, ...]]], var: str) -> str:
    """One generator line.  Signs are folded into the joining operator
    (``- 3/4*X1*X2``), because the parser rejects ``+ -3/4*X1*X2``."""
    chunks = []
    for coef, letters in terms:
        body = _term(coef, letters, var)
        if not chunks:
            chunks.append(f"-{body}" if coef < 0 else body)
        else:
            chunks.append(f"- {body}" if coef < 0 else f"+ {body}")
    return " ".join(chunks)


def ideal_text(n: int, algebra: str, gens: list[str], order: str = "deglex", comment: str = "") -> str:
    head = f"# {comment}\n" if comment else ""
    return head + f"vars: {n}\nalgebra: {algebra}\norder: {order}\ngenerators:\n" + "".join(g + "\n" for g in gens)


def ext_quadrics(rng: random.Random, n: int, k: int = 3, height: int = 5) -> str:
    gens = []
    monos = list(combinations(range(1, n + 1), 2))
    for _ in range(k):
        while True:
            terms = [(Fraction(rng.randint(-height, height)), m) for m in monos]
            terms = [(c, m) for c, m in terms if c]
            if terms:
                break
        gens.append(poly_text(terms, "x"))
    return ideal_text(n, "exterior", gens, comment=f"{k} random quadrics")


def gap_binomials(rng: random.Random, n: int, k: int = 2, height: int = 3) -> str:
    gens = []
    for _ in range(k):
        a, c, d, b = sorted(rng.sample(range(1, n + 1), 4))
        c1 = Fraction(rng.choice([-1, 1]) * rng.randint(1, height))
        c2 = Fraction(rng.choice([-1, 1]) * rng.randint(1, height))
        gens.append(poly_text([(c1, (a, b)), (c2, (c, d))], "x"))
    return ideal_text(n, "exterior", gens, comment=f"{k} gap binomials")


def _pairs_terms(pairs: list[list[str]]) -> list[tuple[Fraction, tuple[int, ...]]]:
    """``[["-3/4", "X1X2"], ...]`` as (coefficient, letters)."""
    out = []
    for coef, word in pairs:
        letters = tuple(int(p) for p in word.split("X")[1:]) if word != "1" else ()
        out.append((Fraction(coef), letters))
    return out


def lift_to_free_file(lift: dict) -> str:
    """The lifted basis of a ``lift --json`` result as a free ideal file."""
    elements = list(lift["anti_commutators"]) + [e["element"] for e in lift["lifted_elements"]]
    gens = [poly_text(_pairs_terms(p), "X") for p in elements]
    return ideal_text(lift["vars"], "free", gens, order=lift["order"], comment="lifted basis")


def preimage_initial_file(lift: dict) -> str:
    """The minimal generators of the preimage's initial ideal as a
    monomial free ideal file."""
    gens = [poly_text(_pairs_terms([["1", w]]), "X") for w in lift["initial_ideal_of_preimage"]]
    return ideal_text(lift["vars"], "free", gens, order=lift["order"], comment="initial ideal of the preimage")
