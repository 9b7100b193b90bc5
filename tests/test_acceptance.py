"""Acceptance gate: ten end-to-end criteria, one verdict line each.

Shared corpora are built once per session and reused; every random draw is
seeded so the whole gate is reproducible.
"""

import random
import sys
import time
from dataclasses import dataclass
from itertools import product

import pytest

from extlift.algebra import (
    AlgebraContext,
    ExtMonomial,
    ExtPolynomial,
    FreePolynomial,
    apply_gl_ext,
    delta,
)
from extlift.exterior import ExtIdeal, groebner_ext, hilbert_ext
from extlift.freealg import (
    FreeGroebnerCandidate,
    MonomialIdealFree,
    free_initial_ideal,
    normal_word_counts,
    obstructions_resolve,
)
from extlift.gin import (
    GinRequest,
    gin_ext,
    gin_free,
    hilbert_compare_ext,
    is_borel_fixed,
    random_gl,
)
from extlift.lifting import (
    anti_commutator_leading_words,
    anti_commutators,
    lift_groebner,
)
from extlift.orders import ExtOrderSpec, FreeOrderSpec

from helpers import cone_counts_slices, is_squeezed, is_stable, is_strongly_stable, naive_lift, random_ext_polynomial, stable_closure
from oracles import subword_divides

ORDER = FreeOrderSpec(ExtOrderSpec("deglex"))


def verdict(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'}: {detail}", file=sys.stderr)
    assert ok, detail


def mono(*idx):
    return ExtPolynomial.monomial(ExtMonomial(idx))


@dataclass
class CorpusItem:
    ctx: AlgebraContext
    I: ExtIdeal
    gb: object
    init: object
    lifted: object
    inJ: MonomialIdealFree


def _random_corpus_ideal(rng: random.Random, n: int) -> ExtIdeal:
    ctx = AlgebraContext(n)
    max_deg = max(2, n - 1)
    gens = [
        random_ext_polynomial(rng, ctx, rng.randint(2, max_deg))
        for _ in range(rng.randint(1, 3))
    ]
    return ExtIdeal(ctx, gens)


@pytest.fixture(scope="session")
def corpus():
    """>= 200 random homogeneous ideals, n in {3,4,5}, generator degrees
    2..n-1, with their lifted bases (shared by criteria 5, 6, 10)."""
    rng = random.Random(20260823)
    items = []
    for k in range(210):
        n = (3, 4, 5)[k % 3]
        I = _random_corpus_ideal(rng, n)
        gb = groebner_ext(I)
        init = gb.initial
        lifted = lift_groebner(gb)
        inJ = MonomialIdealFree(lifted.initial_mingens, n, ORDER)
        items.append(CorpusItem(I.ctx, I, gb, init, lifted, inJ))
    return items


@pytest.fixture(scope="session")
def quadric_gin():
    """Criterion 2 computation, reused by criterion 9."""
    rng = random.Random(42)
    coeffs = []
    while len(coeffs) < 3:
        c = rng.randint(-9, 9)
        if c:
            coeffs.append(c)
    ctx = AlgebraContext(3)
    q = mono(1, 2).scale(coeffs[0]) + mono(1, 3).scale(coeffs[1]) + mono(2, 3).scale(coeffs[2])
    I = ExtIdeal(ctx, [q])
    preimage_gens = anti_commutators(ctx) + [delta(q)]
    req = GinRequest(max_degree=4, seed=2026)
    res = gin_free(preimage_gens, ctx, req, ORDER)
    return ctx, I, q, preimage_gens, req, res


@pytest.fixture(scope="session")
def commutator_gin():
    """Criterion 3 computation, reused by criterion 9."""
    ctx = AlgebraContext(2)
    comm = FreePolynomial([((1, 2), 1), ((2, 1), -1)])
    req = GinRequest(max_degree=3, seed=2027)
    res = gin_free([comm], ctx, req, ORDER)
    return ctx, comm, req, res


@pytest.fixture(scope="session")
def gin_survey():
    """Criterion 8 computation (>= 100 random exterior ideals), reused by
    criterion 9.  Genericity-flag failures are retried with fresh seeds;
    persistent disagreement is kept and fails criterion 8."""
    rng = random.Random(818)
    entries = []
    for k in range(102):
        n = (3, 4, 5)[k % 3]
        I = _random_corpus_ideal(rng, n)
        res = None
        for attempt in range(4):
            req = GinRequest(max_degree=n, seed=rng.getrandbits(63), height=100 * (attempt + 1))
            res = gin_ext(I, req, groebner_ext(I).slice_dims)
            if res.agreement:
                break
        entries.append((I, req, res))
    return entries


def test_criterion_01_defining_relations_verify(tmp_path, capsys):
    import json

    from extlift.cli import EXIT_OK, main
    from extlift.parsing import free_poly_str, word_str

    failures = []
    timings = []
    for n in (2, 3, 4):
        ctx = AlgebraContext(n)
        lines = [f"vars: {n}", "algebra: free", "generators:"]
        lines += [free_poly_str(F, ORDER) for F in anti_commutators(ctx)]
        path = tmp_path / f"relations_n{n}.ideal"
        path.write_text("\n".join(lines) + "\n")
        start = time.monotonic()
        code = main(["verify", str(path), "--json"])
        elapsed = time.monotonic() - start
        data = json.loads(capsys.readouterr().out)
        expected = {word_str(w) for w in anti_commutator_leading_words(ctx)}
        timings.append(elapsed)
        if not (
            code == EXIT_OK
            and data["obstructions_resolve"]
            and data["dimensions_agree"]
            and set(data["initial_ideal"]) == expected
            and elapsed < 5.0
        ):
            failures.append(n)
    verdict(
        1,
        not failures,
        f"defining relations verify for n=2,3,4 with initial {{X_jX_i: i<=j}}, "
        f"timings {[f'{t:.2f}s' for t in timings]}",
    )


def test_criterion_02_generic_quadric_example(quadric_gin):
    ctx, I, q, _, _, res = quadric_gin
    init = groebner_ext(I).initial
    expected_gin = {(2, 3), (1, 1), (2, 2), (3, 3), (2, 1), (3, 1), (3, 2)}
    borel_ok, witness = is_borel_fixed(res.gin, ctx)
    ok = (
        set(init.gens) == {ExtMonomial([2, 3])}
        and res.agreement
        and set(res.gin.gens) == expected_gin
        and not borel_ok
        and witness == ((1, 1), (1, 2), (1, 2))
    )
    verdict(
        2,
        ok,
        "generic quadric: in(I)=(x2x3), gin(J) has the 7 expected generators, "
        "Borel check fails with witness X1X2 from X1^2",
    )


def test_criterion_03_commutator_example(commutator_gin):
    ctx, _, _, res = commutator_gin
    deg2 = {w for w in res.gin.gens if len(w) == 2}
    borel_ok, _ = is_borel_fixed(res.gin, ctx)
    ok = res.agreement and deg2 == {(2, 1)} and not borel_ok
    verdict(3, ok, "commutator ideal gin (n=2, D=3) has degree-2 part {X2X1}, not Borel-fixed")


def test_criterion_04_linear_generator_refusal():
    ctx = AlgebraContext(2)
    gb = groebner_ext(ExtIdeal(ctx, [mono(1)]))
    refused = False
    try:
        lift_groebner(gb)
    except ValueError:
        refused = True
    data = free_initial_ideal(
        [FreePolynomial.monomial((1,))] + anti_commutators(ctx), ctx, ORDER, max_degree=3
    )
    ok = (
        refused
        and len(data.initial) == 2
        and set(data.initial.gens) == {(1,), (2, 2)}
    )
    verdict(4, ok, "lift of (x1) refused; direct minimal basis has 2 elements, initial (X1, X2^2)")


def test_criterion_05_lift_is_groebner_basis(corpus):
    start = time.monotonic()
    bad = 0
    for item in corpus:
        n = item.ctx.n
        candidate = FreeGroebnerCandidate(item.ctx, item.lifted.elements(), ORDER)
        ok, _ = obstructions_resolve(candidate)
        dims = hilbert_ext(item.gb)
        counts = normal_word_counts(item.inJ.automaton(), n + 1)
        counts_ok = all(
            counts[d] == (dims[d] if d <= n else 0)
            for d in range(n + 2)
        )
        if not (ok and counts_ok):
            bad += 1
    elapsed = time.monotonic() - start
    verdict(
        5,
        bad == 0 and elapsed < 600,
        f"{len(corpus)} random ideals: every lift resolves all obstructions and "
        f"normal-word counts match dim(E/I)_d for d <= n+1 ({elapsed:.1f}s)",
    )


def test_criterion_06_minimality_iff_squeezed(corpus):
    bad = 0
    squeezed_seen = not_squeezed_seen = 0
    for item in corpus:
        squeezed = is_squeezed(item.init)
        naive = FreeGroebnerCandidate(item.ctx, naive_lift(item.gb), ORDER)
        naive_is_basis, _ = obstructions_resolve(naive)
        if naive_is_basis != squeezed:
            bad += 1
        if squeezed:
            squeezed_seen += 1
        else:
            not_squeezed_seen += 1
    verdict(
        6,
        bad == 0 and squeezed_seen and not_squeezed_seen,
        f"naive lift is a basis iff in(I) squeezed on all {len(corpus)} ideals "
        f"({squeezed_seen} squeezed, {not_squeezed_seen} not)",
    )


def test_criterion_07_stable_implies_squeezed():
    rng = random.Random(77077)
    bad = 0
    for _ in range(500):
        ctx = AlgebraContext(rng.randint(3, 6))
        L = stable_closure(rng, ctx, strongly=False)
        if not is_squeezed(L):
            bad += 1
    for _ in range(500):
        ctx = AlgebraContext(rng.randint(3, 6))
        L = stable_closure(rng, ctx, strongly=True)
        if not (is_strongly_stable(L) and is_stable(L)):
            bad += 1
    verdict(
        7,
        bad == 0,
        "500 stable ideals are all squeezed; 500 strongly stable ideals are all stable",
    )


def test_criterion_08_gin_stable_and_lift_minimal(gin_survey):
    disagreements = 0
    bad = 0
    for I, req, res in gin_survey:
        n = I.ctx.n
        if not res.agreement:
            disagreements += 1
            continue
        # generic initial ideals are strongly stable in the exchange
        # direction matching the order (x1 smallest), hence squeezed
        if not (is_strongly_stable(res.gin, toward_larger=True, n=n) and is_squeezed(res.gin)):
            bad += 1
            continue
        g = random_gl(I.ctx, req.trial_seeds()[0], req.height)
        gI = ExtIdeal(I.ctx, [apply_gl_ext(g, f) for f in I.generators], I.order)
        lifted = lift_groebner(groebner_ext(gI))
        mingens = list(lifted.initial_mingens)
        antichain = all(
            not subword_divides(a, b)
            for a in mingens
            for b in mingens
            if a != b
        )
        multipliers_trivial = all(u == ExtMonomial() for _, u, _ in lifted.lifted)
        if not (antichain and multipliers_trivial):
            bad += 1
    verdict(
        8,
        disagreements == 0 and bad == 0,
        f"{len(gin_survey)} random ideals: every gin is strongly stable "
        "(order-compatible direction) and the lifted basis of the transformed "
        f"ideal is minimal ({disagreements} persistent genericity failures)",
    )


def test_criterion_09_hilbert_preserved(quadric_gin, commutator_gin, gin_survey):
    ctx_q, _, _, preimage_gens, req_q, res_q = quadric_gin
    ctx_c, comm, req_c, res_c = commutator_gin
    dims_q = free_initial_ideal(preimage_gens, ctx_q, ORDER, req_q.max_degree).slice_dims
    dims_c = free_initial_ideal([comm], ctx_c, ORDER, req_c.max_degree).slice_dims
    ok_q = cone_counts_slices(dims_q, ctx_q, res_q.gin, req_q.max_degree)
    ok_c = cone_counts_slices(dims_c, ctx_c, res_c.gin, req_c.max_degree)
    bad = sum(
        1
        for I, _, res in gin_survey
        if res.agreement and not hilbert_compare_ext(dict(enumerate(groebner_ext(I).slice_dims)), I.ctx, res.gin)
    )
    verdict(
        9,
        ok_q and ok_c and bad == 0,
        "Hilbert series preserved by every gin from criteria 2, 3 and 8",
    )


def test_criterion_10_saturation(corpus):
    exhaustive_ok = True
    for n in (2, 3, 4):
        descents = [(j, i) for i in range(1, n + 1) for j in range(i, n + 1)]
        for w in product(range(1, n + 1), repeat=n + 1):
            if not any(subword_divides(p, w) for p in descents):
                exhaustive_ok = False
    corpus_ok = all(
        normal_word_counts(item.inJ.automaton(), item.ctx.n + 1)[-1] == 0 for item in corpus
    )
    verdict(
        10,
        exhaustive_ok and corpus_ok,
        "every word of degree n+1 (n=2,3,4) contains a descent pair, and the "
        "lifted initial ideals saturate in degree n+1 on the whole corpus",
    )
