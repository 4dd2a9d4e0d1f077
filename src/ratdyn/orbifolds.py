"""Sphere orbifolds: Euler characteristics, the divisibility order, induced
orbifolds of a map, pullbacks, and the covering / minimal-holomorphic
predicates.

An orbifold stores its ramification as a finite, read-only map from places
to values at least 2; off the support the value is 1.  Places are Galois
orbits, so one stored pair may carry several geometric points; signatures
expand each place into its geometric points.  Pointwise conditions are checked on the
finite set support(o1) + preimages(support(o2)) + critical places, which
is enough because both sides are 1 elsewhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _igcd, lcm as _ilcm
from types import MappingProxyType

from .errors import PreconditionError
from .places import (
    Place,
    critical_places,
    critical_values,
    fiber_partition,
    image_place,
    local_degree,
    preimage_places,
)
from .ratmaps import RatMap


class Orbifold:
    __slots__ = ("ram",)

    def __init__(self, ram=None):
        clean = {}
        if ram:
            for p, v in dict(ram).items():
                if not isinstance(p, Place):
                    p = Place.of_rational(p)
                v = int(v)
                if v < 1:
                    raise PreconditionError("ramification values must be positive")
                if v > 1:
                    clean[p] = v
        self.ram = MappingProxyType(clean)

    @classmethod
    def trivial(cls) -> "Orbifold":
        return cls()

    @property
    def is_trivial(self) -> bool:
        return not self.ram

    def nu(self, p: Place) -> int:
        return self.ram.get(p, 1)

    def support(self):
        return sorted(self.ram, key=lambda p: p.sort_key())

    def items(self):
        return sorted(self.ram.items(), key=lambda t: t[0].sort_key())

    def geometric_point_count(self) -> int:
        return sum(p.degree for p in self.ram)

    def signature(self):
        """Multiset of values over geometric points, descending."""
        sig = []
        for p, v in self.ram.items():
            sig.extend([v] * p.degree)
        return tuple(sorted(sig, reverse=True))

    def is_good(self) -> bool:
        """Not the sphere with one singular point, nor with exactly two
        singular points of distinct values."""
        n = self.geometric_point_count()
        if n == 0:
            return True
        if n == 1:
            return False
        if n == 2:
            return len(set(self.ram.values())) == 1
        return True

    def __eq__(self, other):
        if not isinstance(other, Orbifold):
            return NotImplemented
        return self.ram == other.ram

    def __hash__(self):
        return hash(("Orbifold", tuple(sorted(self.ram.items(), key=lambda t: t[0].sort_key()))))

    def __repr__(self):
        if self.is_trivial:
            return "Orbifold(trivial)"
        inner = ", ".join(f"{p!r}: {v}" for p, v in self.items())
        return f"Orbifold({inner})"

    def join(self, other: "Orbifold") -> "Orbifold":
        """Pointwise least common multiple."""
        out = dict(self.ram)
        for p, v in other.ram.items():
            out[p] = _ilcm(out.get(p, 1), v)
        return Orbifold(out)


def chi(o: Orbifold) -> Fraction:
    """Euler characteristic: 2 plus the weighted sum of 1/nu - 1."""
    total = Fraction(2)
    for p, v in o.ram.items():
        total += p.degree * (Fraction(1, v) - 1)
    return total


def preceq(o1: Orbifold, o2: Orbifold) -> bool:
    """Pointwise divisibility nu1 | nu2 (value 1 off support)."""
    return all(v % o1.nu(p) == 0 for p, v in o2.ram.items()) and all(
        o2.nu(p) % v == 0 for p, v in o1.ram.items()
    )


def o2_of(f: RatMap) -> Orbifold:
    """Branch-data orbifold downstairs: at each critical value the lcm of
    the local degrees in the fiber."""
    if f.degree < 2:
        raise PreconditionError("induced orbifolds need degree at least two")
    ram = {}
    for q in critical_values(f):
        value = 1
        for mult, _ in fiber_partition(f, q):
            value = _ilcm(value, mult)
        if value > 1:
            ram[q] = value
    return Orbifold(ram)


def o1_of(f: RatMap) -> Orbifold:
    """Upstairs partner of o2_of: nu1(p) = nu2(f(p)) / local degree."""
    o2 = o2_of(f)
    ram = {}
    for q, v in o2.ram.items():
        for p in preimage_places(f, q):
            e = local_degree(f, p)
            if v % e != 0:
                raise PreconditionError("branch data does not divide evenly")
            w = v // e
            if w > 1:
                ram[p] = w
    return Orbifold(ram)


def pullback(f: RatMap, o: Orbifold) -> Orbifold:
    """The unique orbifold making f minimal holomorphic onto o:
    nu1(z) = nu2(f(z)) / gcd(local degree, nu2(f(z)))."""
    if f.degree < 1:
        raise PreconditionError("pullback needs a nonconstant map")
    ram = {}
    for q, v in o.ram.items():
        for p in preimage_places(f, q):
            e = local_degree(f, p)
            w = v // _igcd(e, v)
            if w > 1:
                ram[p] = w
    return Orbifold(ram)


def _verification_places(f: RatMap, o1: Orbifold, o2: Orbifold):
    pts = set(o1.ram)
    for q in o2.ram:
        pts.update(preimage_places(f, q))
    pts.update(critical_places(f))
    return sorted(pts, key=lambda p: p.sort_key())


def is_covering(f: RatMap, o1: Orbifold, o2: Orbifold) -> bool:
    """nu2(f(z)) = nu1(z) * deg_z f at every point (finite check)."""
    if f.degree < 1:
        raise PreconditionError("covering test needs a nonconstant map")
    for p in _verification_places(f, o1, o2):
        if o2.nu(image_place(f, p)) != o1.nu(p) * local_degree(f, p):
            return False
    return True


def is_holomorphic_map(f: RatMap, o1: Orbifold, o2: Orbifold) -> bool:
    """nu2(f(z)) divides nu1(z) * deg_z f at every point (finite check)."""
    if f.degree < 1:
        raise PreconditionError("holomorphy test needs a nonconstant map")
    for p in _verification_places(f, o1, o2):
        if (o1.nu(p) * local_degree(f, p)) % o2.nu(image_place(f, p)) != 0:
            return False
    return True


def is_min_holomorphic(f: RatMap, o1: Orbifold, o2: Orbifold) -> bool:
    """True exactly when o1 is the pullback of o2 under f."""
    return pullback(f, o2) == o1


def rh_identity_check(f: RatMap, o1: Orbifold, o2: Orbifold) -> bool:
    """chi(o1) = deg f * chi(o2); the covering predicate must hold first."""
    if not is_covering(f, o1, o2):
        raise PreconditionError("not a covering map between the orbifolds")
    return chi(o1) == f.degree * chi(o2)


def chi_inequality_check(f: RatMap, o1: Orbifold, o2: Orbifold) -> bool:
    """chi(o1) <= deg f * chi(o2), equality exactly for coverings; the
    holomorphic-map predicate must hold first."""
    if not is_holomorphic_map(f, o1, o2):
        raise PreconditionError("not a holomorphic map between the orbifolds")
    lhs = chi(o1)
    rhs = f.degree * chi(o2)
    if lhs > rhs:
        return False
    if (lhs == rhs) != is_covering(f, o1, o2):
        return False
    return True


def functoriality_check(f: RatMap, g: RatMap, o: Orbifold) -> bool:
    """(g o f)^* o = f^* (g^* o), both sides computed independently."""
    lhs = pullback(g.compose(f), o)
    rhs = pullback(f, pullback(g, o))
    return lhs == rhs


def toch_predicate(A: RatMap, o1: Orbifold, o2: Orbifold) -> bool:
    """Support inclusion c(o2) within c(o2_of(A)) for a minimal holomorphic
    A: o1 -> o2 of degree at least five with chi(o1) >= 0."""
    if A.degree < 5:
        raise PreconditionError("support inclusion needs degree at least five")
    if o1.is_trivial or o2.is_trivial:
        raise PreconditionError("both orbifolds must be nontrivial")
    if not is_min_holomorphic(A, o1, o2):
        raise PreconditionError("the map is not minimal holomorphic here")
    if chi(o1) < 0:
        raise PreconditionError("nonnegative characteristic required upstairs")
    allowed = set(o2_of(A).ram)
    return set(o2.ram).issubset(allowed)


# signature families with nonnegative Euler characteristic

ZERO_CHI_SIGNATURES = (
    (2, 2, 2, 2),
    (3, 3, 3),
    (4, 4, 2),
    (6, 3, 2),
)


def positive_chi_family(sig) -> str | None:
    """Name of the positive-characteristic family containing the signature
    (descending tuple), or None."""
    sig = tuple(sorted(sig, reverse=True))
    if len(sig) == 2 and sig[0] == sig[1] and sig[0] >= 2:
        return "cyclic"
    if len(sig) == 3 and sig[1] == 2 and sig[2] == 2 and sig[0] >= 2:
        return "dihedral"
    if sig == (3, 3, 2):
        return "tetrahedral"
    if sig == (4, 3, 2):
        return "octahedral"
    if sig == (5, 3, 2):
        return "icosahedral"
    return None
