"""Generic initial ideals in both algebras by randomized degree-wise
Gaussian elimination, with Borel-fixedness diagnostics and Hilbert-series
consistency checks.

Genericity is handled probabilistically: each trial draws a fresh random
integer matrix from a seeded PRNG, and the trials must agree.  The seeds
are recorded in the result so every run can be replayed.  Both gins share
one trial loop; each supplies only its step, which applies the coordinate
change (``apply_gl`` or ``apply_gl_ext``, a column-wise expansion with
integer partial products) and computes the initial cone.  The lifted gin's
refusals are cheap checks on the ideal, so the CLI runs them before the
first trial.
"""

from __future__ import annotations

import random
from itertools import product

from .algebra import (
    AlgebraContext,
    FreePolynomial,
    GLMatrix,
    apply_gl,
    apply_gl_ext,
)
from .exterior import ExtIdeal, MonomialIdealExt, initial_data_ext
from .freealg import MonomialIdealFree, free_initial_ideal, normal_word_counts
from .lifting import anti_commutator_leading_words, check_natural_ranking
from .orders import FreeOrderSpec


def random_gl(ctx: AlgebraContext, seed: int, height: int) -> GLMatrix:
    """Deterministic random integer matrix with entries in [-height, height],
    resampled until invertible (Mersenne-Twister PRNG keyed by the seed)."""
    if height < 1:
        raise ValueError("coefficient height must be >= 1")
    rng = random.Random(seed)
    n = ctx.n
    while True:
        entries = [[rng.randint(-height, height) for _ in range(n)] for _ in range(n)]
        try:
            return GLMatrix(entries)
        except ValueError:
            continue


class GinRequest:
    """Inputs of a gin computation.  ``trials`` independent samples must
    produce identical initial ideals for the result to count as generic."""

    __slots__ = ("max_degree", "seed", "trials", "height")

    def __init__(self, max_degree: int, seed: int, trials: int = 2, height: int = 100):
        if max_degree < 2:
            raise ValueError("degree cap must be >= 2")
        if trials < 2:
            raise ValueError("at least 2 trials are required")
        if height < 1:
            raise ValueError("coefficient height must be >= 1")
        self.max_degree, self.seed, self.trials, self.height = max_degree, seed, trials, height

    def trial_seeds(self) -> list[int]:
        rng = random.Random(self.seed)
        return [rng.getrandbits(63) for _ in range(self.trials)]


class GinResult:
    """The first trial's cone and slice dimensions, and whether every trial's cone equals it."""

    __slots__ = ("gin", "slice_dims", "trial_seeds", "agreement")

    def __init__(self, gin, slice_dims: dict[int, int], trial_seeds: tuple[int, ...], agreement: bool):
        self.gin, self.slice_dims, self.trial_seeds, self.agreement = gin, slice_dims, trial_seeds, agreement


def _gin_trials(ctx: AlgebraContext, req: GinRequest, trial) -> GinResult:
    """The trial loop of both gins: ``trial`` maps a coordinate change to
    (initial cone, slice dimensions) and runs once per trial seed.  Only
    the cones are kept; the result is the first trial's, with whether
    every cone equals it."""
    seeds = req.trial_seeds()
    first, slice_dims = trial(random_gl(ctx, seeds[0], req.height))
    cones = [trial(random_gl(ctx, s, req.height))[0] for s in seeds[1:]]
    return GinResult(first, slice_dims, tuple(seeds), all(cone == first for cone in cones))


def gin_free(
    gens: list[FreePolynomial],
    ctx: AlgebraContext,
    req: GinRequest,
    order: FreeOrderSpec = FreeOrderSpec(),
) -> GinResult:
    """Generic initial ideal of the two-sided ideal on the given homogeneous
    generators, computed up to the degree cap."""
    for g in gens:
        if g and not g.is_homogeneous():
            raise ValueError("generators must be homogeneous")

    def trial(g: GLMatrix):
        data = free_initial_ideal([apply_gl(g, f) for f in gens], ctx, order, req.max_degree)
        return data.initial, dict(data.slice_dims)

    return _gin_trials(ctx, req, trial)


def gin_ext(I: ExtIdeal, req: GinRequest) -> GinResult:
    """Generic initial ideal in E(V): transform, then read the initial
    ideal off the pivots of the slices, with no back-substitution; the
    per-degree dimensions are the first trial's slice dimensions."""

    def trial(g: GLMatrix):
        data = initial_data_ext(ExtIdeal(I.ctx, [apply_gl_ext(g, f) for f in I.generators], I.order))
        return data.initial, dict(enumerate(data.slice_dims))

    return _gin_trials(I.ctx, req, trial)


def _check_lifted_gin(I: ExtIdeal) -> None:
    """Refuses an ideal without a lifted gin, before or after its trials."""
    check_natural_ranking(I.order, I.ctx.n)
    for f in I.generators:
        if f.degree < 2:
            raise ValueError("lifted gin requires generators of degree >= 2")


def gin_lifted(I: ExtIdeal, gin: MonomialIdealExt) -> MonomialIdealFree:
    """gin of the preimage ideal, built from the exterior gin of I: delta of
    its minimal generators plus the words X_j X_i (i <= j), minimalized."""
    _check_lifted_gin(I)
    words = anti_commutator_leading_words(I.ctx) + [m.support for m in gin]
    return MonomialIdealFree(words, I.ctx.n, FreeOrderSpec(I.order))


def is_borel_fixed(
    B: MonomialIdealFree, ctx: AlgebraContext
) -> tuple[bool, tuple[tuple[int, ...], tuple[int, int], tuple[int, ...]] | None]:
    """Check invariance under the elementary coordinate changes
    X_i -> X_i + X_j with i < j, the convention matching the transformation
    X1 -> X1 + X2.

    Under X_i -> X_i + X_j a word w maps to the sum, each with coefficient
    1, of the words of w with some of its letters i replaced by j; they are
    listed in the order of the expanded product.

    Returns (True, None) or (False, (generator, (i, j), offending word)).
    """
    for w in B.gens:
        letters = sorted(set(w))
        for i in letters:
            for j in range(i + 1, ctx.n + 1):
                for word in product(*((i, j) if a == i else (a,) for a in w)):
                    if not B.member(word):
                        return False, (w, (i, j), word)
    return True, None


def hilbert_compare(
    gens: list[FreePolynomial],
    ctx: AlgebraContext,
    gin: MonomialIdealFree,
    max_degree: int,
    order: FreeOrderSpec = FreeOrderSpec(),
) -> bool:
    """dim of each original ideal slice vs the word count of the gin cone.

    This re-derives the slice dimensions from the untransformed generators,
    so it is an independent check of the Hilbert-series preservation."""
    dims = free_initial_ideal(gens, ctx, order, max_degree).slice_dims
    counts = normal_word_counts(gin, max_degree)
    return all(dims.get(d, 0) == ctx.n**d - c for d, c in enumerate(counts))


def hilbert_compare_ext(I: ExtIdeal, gin: MonomialIdealExt) -> bool:
    """Exterior analogue: slice dimensions of I vs monomial counts of the
    exterior gin cone, the former from the slices of the untransformed I."""
    return all(
        dim == gin.degree_count(I.ctx, d)
        for d, dim in enumerate(initial_data_ext(I).slice_dims)
    )
