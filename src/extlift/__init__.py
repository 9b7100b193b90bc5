"""Exact-arithmetic Groebner bases in the exterior algebra, their lifts to
the free associative algebra, and generic initial ideals.

The package exports the names of the README's "Library usage" example; the
rest of the API lives in the submodules."""

from .algebra import AlgebraContext, ExtMonomial, ExtPolynomial
from .exterior import ExtIdeal, groebner_ext
from .freealg import FreeGroebnerCandidate, obstructions_resolve
from .lifting import lift_groebner

__all__ = [
    "AlgebraContext",
    "ExtIdeal",
    "ExtMonomial",
    "ExtPolynomial",
    "groebner_ext",
    "lift_groebner",
    "FreeGroebnerCandidate",
    "obstructions_resolve",
]
__version__ = "0.1.0"
