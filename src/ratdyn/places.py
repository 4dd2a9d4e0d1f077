"""Closed points of the rational projective line and local map data.

A place is either the point at infinity or a monic irreducible polynomial
over Q, standing for the Galois orbit of its roots.  Local degrees,
fibers, critical points and values, and forward images of places are all
computed here.  Local degrees come from the multiplicity of a place in
the Wronskian, and a fiber is read off the preimage places with their
local degrees, so every multiplicity question stays over Q.  The
preimages of a place m are the factors of den^d m(num/den), built by
`polynomials.homogenize`; its image is the resultant of m(z) against the
pencil num(z) - w den(z) from `bipolys.separated`.
"""

from __future__ import annotations

from .bipolys import BiPoly, resultant_x, separated
from .errors import PreconditionError, TheoremViolation
from .factoring import factor_univariate, rational_roots
from .memo import memo
from .polynomials import UniPoly, homogenize, qq
from .ratmaps import INF, RatMap


class Place:
    """INF or the Galois orbit cut out by a monic irreducible polynomial."""

    __slots__ = ("minpoly",)

    def __init__(self, minpoly=None):
        if minpoly is not None:
            if not isinstance(minpoly, UniPoly):
                minpoly = UniPoly((-qq(minpoly), 1))
            if minpoly.degree < 1:
                raise PreconditionError("a finite place needs positive degree")
            minpoly = minpoly.monic()
        self.minpoly = minpoly

    @classmethod
    def infinity(cls) -> "Place":
        return cls(None)

    @classmethod
    def of_rational(cls, v) -> "Place":
        if v is INF:
            return cls.infinity()
        return cls(UniPoly((-qq(v), 1)))

    @property
    def is_infinity(self) -> bool:
        return self.minpoly is None

    @property
    def degree(self) -> int:
        return 1 if self.is_infinity else self.minpoly.degree

    def rational_value(self):
        """The point itself when the place has degree one."""
        if self.is_infinity:
            return INF
        if self.minpoly.degree != 1:
            return None
        return -self.minpoly.coeff(0)

    def __eq__(self, other):
        if not isinstance(other, Place):
            return NotImplemented
        return self.minpoly == other.minpoly

    def __hash__(self):
        return hash(("Place", None if self.is_infinity else self.minpoly))

    def sort_key(self):
        if self.is_infinity:
            return (1, 0, ())
        return (0, self.minpoly.degree, self.minpoly.c)

    def __lt__(self, other):
        return self.sort_key() < other.sort_key()

    def __repr__(self):
        if self.is_infinity:
            return "Place(INF)"
        v = self.rational_value()
        if v is not None:
            return f"Place({v})"
        return f"Place({self.minpoly.to_str()})"


PLACE_INF = Place.infinity()


# ----------------------------------------------------------------------
# local degrees


@memo
def local_degree(f: RatMap, p: Place) -> int:
    """Local degree of f at (each point of) the place p."""
    if f.degree < 1:
        raise PreconditionError("local degree needs a nonconstant map")
    if p.is_infinity:
        return _local_degree_finite(f.inverted_source(), Place(UniPoly.x()))
    return _local_degree_finite(f, p)


def local_degree_profile(f: RatMap, p: Place):
    """(multiplicity, number of geometric points): the local degree is
    constant across the Galois orbit, and the orbit size is the place
    degree."""
    return local_degree(f, p), p.degree


def _local_degree_finite(f: RatMap, p: Place) -> int:
    m = p.minpoly
    w = f.wronskian()
    if w.is_zero:
        raise TheoremViolation("vanishing derivative for a nonconstant map")
    e = 1
    cur = w
    while True:
        q, r = divmod(cur, m)
        if not r.is_zero:
            return e
        e += 1
        cur = q


@memo
def fiber_partition(f: RatMap, q: Place):
    """Multiplicity profile of the fiber of f over one geometric point of q:
    sorted tuple of (multiplicity, number of geometric points)."""
    if f.degree < 1:
        raise PreconditionError("fibers need a nonconstant map")
    # Galois permutes the points of a preimage place p transitively, so each
    # point of q receives deg p / deg q of them, all of local degree e_p
    counts: dict[int, int] = {}
    for p in preimage_places(f, q):
        e = local_degree(f, p)
        counts[e] = counts.get(e, 0) + p.degree // q.degree
    if sum(e * n for e, n in counts.items()) != f.degree:
        raise TheoremViolation("fiber multiplicities do not add up to the degree")
    return tuple(sorted(counts.items()))


@memo
def image_place(f: RatMap, p: Place) -> Place:
    """The place of f(alpha) for alpha running over the points of p."""
    if f.degree < 1:
        raise PreconditionError("images need a nonconstant map")
    if p.is_infinity:
        v = f.value_at_infinity()
        return Place.of_rational(v)
    m = p.minpoly
    if m.degree == 1:
        return Place.of_rational(f(p.rational_value()))
    if m.divides(f.den):
        return PLACE_INF
    # resultant in z of m(z) and num(z) - w*den(z); its roots are f(points of p)
    pencil = separated(f.num, f.den, UniPoly.x(), UniPoly.one())
    r = resultant_x(BiPoly.from_unipoly(m, "x"), pencil)
    if r.is_zero:
        raise TheoremViolation("degenerate image pencil")
    _, facs = factor_univariate(r)
    places = {Place(g) for g, _ in facs}
    if len(places) != 1:
        raise TheoremViolation("image of a place split into several orbits")
    return places.pop()


@memo
def preimage_places(f: RatMap, q: Place):
    """All places mapping onto q, sorted."""
    if f.degree < 1:
        raise PreconditionError("preimages need a nonconstant map")
    out = set()
    if q.is_infinity:
        if f.den.degree >= 1:
            for g, _ in factor_univariate(f.den)[1]:
                out.add(Place(g))
        if f.num.degree > f.den.degree:
            out.add(PLACE_INF)
    else:
        m = q.minpoly
        (acc,) = homogenize([m], f.num, f.den, m.degree)
        if acc.is_zero:
            raise TheoremViolation("degenerate preimage polynomial")
        if acc.degree >= 1:
            for g, _ in factor_univariate(acc)[1]:
                out.add(Place(g))
        if image_place(f, PLACE_INF) == q:
            out.add(PLACE_INF)
    return sorted(out, key=lambda p: p.sort_key())


def critical_places(f: RatMap):
    """Places of critical points (local degree >= 2), sorted."""
    if f.degree < 2:
        return []
    out = set()
    w = f.wronskian()
    if w.degree >= 1:
        for g, _ in factor_univariate(w)[1]:
            out.add(Place(g))
    if local_degree(f, PLACE_INF) >= 2:
        out.add(PLACE_INF)
    return sorted(out, key=lambda p: p.sort_key())


@memo
def critical_values(f: RatMap):
    """Branch-point places of f, sorted; at most 2 deg f - 2 geometric points."""
    if f.degree < 2:
        raise PreconditionError("critical values need degree at least two")
    return sorted({image_place(f, p) for p in critical_places(f)}, key=lambda p: p.sort_key())


def rh_defect(f: RatMap) -> int:
    """Total ramification: sum of (e - 1) over geometric critical points;
    equals 2 deg f - 2 for every nonconstant map."""
    total = 0
    for q in critical_values(f):
        for mult, cnt in fiber_partition(f, q):
            total += (mult - 1) * cnt * q.degree
    return total


def rational_fixed_points(f: RatMap):
    """All rational fixed points of f, INF included when fixed."""
    out = []
    fix = f.num - f.den * UniPoly.x()
    if not fix.is_zero:
        out.extend(rational_roots(fix))
    else:
        raise PreconditionError("the identity map fixes everything")
    if f.value_at_infinity() is INF:
        out.append(INF)
    return out


def rational_points_in_fiber(f: RatMap, v):
    """Rational solutions of f(z) = v, INF included when it maps to v."""
    h = f.fiber_poly(v)
    pts = list(rational_roots(h)) if h.degree >= 1 else []
    if f.value_at_infinity() == v or (v is INF and f.value_at_infinity() is INF):
        pts.append(INF)
    return pts
