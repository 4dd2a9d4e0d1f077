"""Exact arithmetic for dynamics of rational self-maps of the sphere."""

from .polynomials import UniPoly, qq
from .ratmaps import INF, RatMap, chebyshev, mobius, mobius_through, power_map
from .bipolys import BiPoly
from .places import PLACE_INF, Place
from .orbifolds import Orbifold, chi, o1_of, o2_of, pullback
from .classify import SpecialClass, classify, is_lattes, maximal_orbifold, theta
from .curves import BiCurve, ParamCurve, genus_separated, implicitize, is_invariant
from .decompose import (
    Decomposition,
    Diagram,
    all_left_factors,
    complete_semiconjugacy,
    left_divide,
    max_common_right_factor,
    right_divide,
    verify_semiconjugacy,
)
from .parser import parse_curve, parse_map
from .search import SearchConfig, SearchReport, commuting_route, find_invariant_curves

# importing the submodule `ratdyn.mobius` (above, through `classify`) binds
# the package attribute to the module; the public name is the constructor
from .ratmaps import mobius  # noqa: F811

__all__ = [
    "UniPoly",
    "qq",
    "INF",
    "RatMap",
    "chebyshev",
    "mobius",
    "mobius_through",
    "power_map",
    "BiPoly",
    "Place",
    "PLACE_INF",
    "Orbifold",
    "chi",
    "o1_of",
    "o2_of",
    "pullback",
    "SpecialClass",
    "classify",
    "is_lattes",
    "maximal_orbifold",
    "theta",
    "BiCurve",
    "ParamCurve",
    "genus_separated",
    "implicitize",
    "is_invariant",
    "Decomposition",
    "Diagram",
    "all_left_factors",
    "complete_semiconjugacy",
    "left_divide",
    "max_common_right_factor",
    "right_divide",
    "verify_semiconjugacy",
    "parse_curve",
    "parse_map",
    "SearchConfig",
    "SearchReport",
    "commuting_route",
    "find_invariant_curves",
]
