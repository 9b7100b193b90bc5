"""Slow reference implementations kept as differential oracles for the
fast paths in ``extlift``.  Nothing in the library imports this module."""

from __future__ import annotations

from extlift.algebra import FreePolynomial, Word
from extlift.freealg import (
    FreeGroebnerCandidate,
    Obstruction,
    PatternAutomaton,
    enumerate_obstructions,
    subword_divides,
)


def automaton_matches(auto: PatternAutomaton, word: Word) -> list[tuple[int, int]]:
    """All (pattern index, start offset) occurrences found by the automaton."""
    s, found = 0, []
    for pos, a in enumerate(word):
        s = auto.step[s][a]
        for idx in auto.out[s]:
            found.append((idx, pos + 1 - len(auto.patterns[idx])))
    found.sort()
    return found


def naive_matches(patterns: list[Word], word: Word) -> list[tuple[int, int]]:
    """Linear-scan reference for automaton_matches."""
    found = []
    for idx, pat in enumerate(patterns):
        _, offs = subword_divides(pat, word)
        found.extend((idx, o) for o in offs)
    found.sort()
    return found


def rescan_normal_form(F: FreePolynomial, G: FreeGroebnerCandidate) -> FreePolynomial:
    """Fully reduce F: rewrite the largest reducible word A in(g) B into
    A (in(g) - g) B until no word contains a leading word of G.

    Every step rescans all terms for the largest reducible word."""
    key = G.order.word_key
    current = dict(F.terms)
    while True:
        reducible = None
        hit = None
        for w in current:
            match = G.automaton.first_match(w)
            if match is not None and (reducible is None or key(w) > key(reducible)):
                reducible, hit = w, match
        if reducible is None:
            return FreePolynomial(current)
        idx, end = hit
        g = G.elements[idx]
        lead = G.leading_words[idx]
        coeff = current.pop(reducible)
        prefix = reducible[: end - len(lead)]
        suffix = reducible[end:]
        for w, c in g.terms.items():
            if w == lead:
                continue
            key_w = prefix + w + suffix
            s = current.get(key_w, 0) - coeff * c
            if s:
                current[key_w] = s
            else:
                current.pop(key_w, None)


def rescan_obstructions_resolve(G: FreeGroebnerCandidate) -> tuple[bool, list[Obstruction]]:
    """obstructions_resolve on rescan_normal_form, with the obstructions
    ordered by the tuple word key."""
    found = sorted(enumerate_obstructions(G), key=lambda t: (len(t[2]), G.order.word_key(t[2])))
    failures = []
    for i, j, word, s in found:
        rem = rescan_normal_form(s, G)
        if rem:
            failures.append(Obstruction(i, j, word, s, rem))
    return not failures, failures
