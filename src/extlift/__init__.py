"""Exact-arithmetic Groebner bases in the exterior algebra, their lifts to
the free associative algebra, and generic initial ideals."""

from .algebra import (
    AlgebraContext,
    ExtMonomial,
    ExtPolynomial,
    FreePolynomial,
    GLMatrix,
    Word,
    apply_gl,
    apply_gl_ext,
    delta,
    pi,
)
from .exterior import (
    ExtGroebnerBasis,
    ExtIdeal,
    MonomialIdealExt,
    groebner_ext,
    hilbert_ext,
    ideal_degree_basis,
    initial_ideal_ext,
)
from .freealg import (
    FreeGroebnerCandidate,
    MonomialIdealFree,
    hilbert_rational,
    normal_form,
    normal_word_counts,
    obstructions_resolve,
    subword_divides,
)
from .gin import GinRequest, GinResult, gin_ext, gin_free, gin_lifted, is_borel_fixed, random_gl
from .lifting import (
    LiftedBasis,
    anti_commutators,
    compute_U,
    is_squeezed,
    is_stable,
    is_strongly_stable,
    lift_groebner,
    naive_lift,
)
from .orders import ExtOrderSpec, FreeOrderSpec

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
