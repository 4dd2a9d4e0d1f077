"""Exact arithmetic for dynamics of rational self-maps of the sphere.

The namespace is lazy (PEP 562): ``import ratdyn`` loads the classification
stack, and each other public name loads the module that defines it on first
use, so a session that only classifies maps never compiles the
decomposition, curve and search modules.
"""

# The submodules `classify` and `mobius` share their names with public
# functions.  Only a submodule's first import binds the package attribute to
# the module, so both are imported here, before the names are bound to the
# functions; no later import rebinds them.
from . import classify, mobius  # noqa: F401
from .classify import classify  # noqa: F811
from .ratmaps import mobius  # noqa: F811

# public name -> the submodule that defines it
_EXPORTS = {
    "UniPoly": "polynomials",
    "qq": "polynomials",
    "INF": "ratmaps",
    "RatMap": "ratmaps",
    "chebyshev": "ratmaps",
    "mobius": "ratmaps",
    "mobius_through": "ratmaps",
    "power_map": "ratmaps",
    "BiPoly": "bipolys",
    "Place": "places",
    "PLACE_INF": "places",
    "Orbifold": "orbifolds",
    "chi": "orbifolds",
    "o1_of": "orbifolds",
    "o2_of": "orbifolds",
    "pullback": "orbifolds",
    "SpecialClass": "classify",
    "classify": "classify",
    "is_lattes": "classify",
    "maximal_orbifold": "classify",
    "theta": "classify",
    "BiCurve": "curves",
    "ParamCurve": "curves",
    "genus_separated": "curves",
    "implicitize": "curves",
    "is_invariant": "curves",
    "Decomposition": "decompose",
    "Diagram": "decompose",
    "all_left_factors": "decompose",
    "complete_semiconjugacy": "decompose",
    "left_divide": "decompose",
    "max_common_right_factor": "decompose",
    "right_divide": "decompose",
    "verify_semiconjugacy": "decompose",
    "parse_curve": "parser",
    "parse_map": "parser",
    "SearchConfig": "search",
    "SearchReport": "search",
    "commuting_route": "search",
    "find_invariant_curves": "search",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__ rather than importlib.import_module: -X importtime times
    # only the former
    value = getattr(__import__(f"{__name__}.{_EXPORTS[name]}", fromlist=[name]), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
