"""Exact-arithmetic Groebner bases in the exterior algebra, their lifts to
the free associative algebra, and generic initial ideals.

The package exports the names of the README's "Library usage" example; the
rest of the API lives in the submodules.  An export is imported from its
submodule on first access, so ``python -m extlift.cli`` loads only the
modules its command uses."""

# export -> the submodule that defines it
_EXPORTS = {
    "AlgebraContext": "algebra",
    "ExtMonomial": "algebra",
    "ExtPolynomial": "algebra",
    "ExtIdeal": "exterior",
    "groebner_ext": "exterior",
    "FreeGroebnerCandidate": "freealg",
    "obstructions_resolve": "freealg",
    "lift_groebner": "lifting",
}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = __import__(f"{__name__}.{_EXPORTS[name]}", fromlist=[name])
    value = globals()[name] = getattr(module, name)
    return value
