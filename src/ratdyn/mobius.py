"""Degree-one symmetry solvers.

Two exact solvers cover every question asked of degree-one maps:

* mu_right_transports(f, g): all mu with f o mu = g.  A candidate mu is
  pinned by the images of three rational base points, and each image must
  be a rational point of a known fiber of f, so the search space is finite
  and every candidate is verified exactly.

* conjugacy_transporters(a, b): all mu with mu o a = b o mu.  A transporter
  sends the marked points of a (critical points, their images, fixed
  points and their preimages) to marked points of b with equal labels.  Up
  to three marks of a are sources, and label-matched marks of b are their
  targets; with three there is nothing more to choose.  With fewer, the
  sources are completed by the orbit z0, a(z0), ... of one further point
  and the targets by w, b(w), ... with w = mu(z0), so mu is a matrix of
  polynomials in w.  The identity mu o a = b o mu specialised at enough
  integers z = t gives univariate polynomials in w whose gcd pins down
  finitely many rational candidates; w = INF is checked directly.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .errors import PreconditionError, TheoremViolation
from .factoring import rational_roots
from .memo import memo
from .places import PLACE_INF, Place, local_degree, rational_fixed_points, rational_points_in_fiber
from .polynomials import UniPoly, homogenize
from .ratmaps import INF, RatMap, _homogeneous, _matrix_through, mobius_through


def mu_right_transports(f: RatMap, g: RatMap):
    """All degree-one mu over Q with f o mu = g, in canonical order."""
    if f.degree != g.degree or f.degree < 1:
        return []
    base = [Fraction(0), Fraction(1), Fraction(2)]
    fibers = [rational_points_in_fiber(f, g(z)) for z in base]
    return _maps_through(base, itertools.product(*fibers), lambda mu: f.compose(mu) == g)


def _maps_through(base, target_triples, verify):
    """The degree-one maps sending the three base points to one of the
    target triples, pairwise distinct, that pass verify; sorted."""
    found = set()
    for targets in target_triples:
        if len(set(targets)) < 3:
            continue
        mu = mobius_through(base, targets)
        if mu not in found and verify(mu):
            found.add(mu)
    return sorted(found, key=lambda m: m.sort_key())


def mu_equivalent(f: RatMap, g: RatMap) -> bool:
    """Whether g = f o mu for some degree-one mu."""
    return bool(mu_right_transports(f, g))


# ----------------------------------------------------------------------
# conjugacy transporters


@memo
def _marked_points(f: RatMap):
    """Rational points pinned by the dynamics, with conjugation-invariant
    labels: critical points, two steps of their images, fixed points, and
    one level of rational preimages of all of those."""
    pts = set()
    w = f.wronskian()
    if w.degree >= 1:
        pts.update(rational_roots(w))
    if local_degree(f, PLACE_INF) >= 2:
        pts.add(INF)
    for p in list(pts):
        v = f(p)
        pts.add(v)
        pts.add(f(v))
    for p in rational_fixed_points(f):
        pts.add(p)
    for p in sorted(pts, key=_inf_last):
        if len(pts) > 40:
            break
        for q in rational_points_in_fiber(f, p):
            pts.add(q)

    def ldeg(v):
        return local_degree(f, Place.of_rational(v))

    labels = {}
    for p in pts:
        v1 = f(p)
        v2 = f(v1)
        labels[p] = (ldeg(p), ldeg(v1), ldeg(v2), v1 == p)
    return labels


def _inf_last(v):
    return (1, Fraction(0)) if v is INF else (0, v)


def _orbit(f: RatMap, v, n: int):
    """[v, f(v), ..., f^(n-1)(v)] on the sphere."""
    out = []
    for _ in range(n):
        out.append(v)
        v = f(v)
    return out


@memo
def conjugacy_transporters(a: RatMap, b: RatMap):
    """All degree-one mu over Q with mu o a = b o mu, for deg a = deg b >= 2."""
    if a.degree != b.degree:
        return []
    if a.degree < 2:
        raise PreconditionError("transporters need degree at least two")
    ma, mb = _marked_points(a), _marked_points(b)
    if sorted(ma.values()) != sorted(mb.values()):
        return []
    marks = sorted(ma, key=_inf_last)[:3]
    choices = [[q for q, lab in mb.items() if lab == ma[p]] for p in marks]
    # fewer than three marks: complete them by the orbit of the least
    # z0 = 0, 1, ... that gives three distinct sources
    sources, z0 = marks, 0
    while len(set(sources)) < 3:
        sources = marks + _orbit(a, Fraction(z0), 3 - len(marks))
        z0 += 1
    targets = _targets(a, b, sources, choices)
    return _maps_through(sources, targets, lambda mu: mu.compose(a) == b.compose(mu))


def _targets(a: RatMap, b: RatMap, sources, choices):
    """Target triples for the sources: label-matched marks of b, completed
    when there are fewer than three by w, b(w), ... for each candidate w
    of `_parameters` and for w = INF."""
    for marks in itertools.product(*choices):
        if len(marks) == 3:
            yield marks
        elif len(set(marks)) == len(marks):
            for w in _parameters(a, b, sources, marks) + [INF]:
                yield [*marks, *_orbit(b, w, 3 - len(marks))]


def _parameters(a: RatMap, b: RatMap, sources, marks):
    """The rational w for which mu_w, the degree-one map sending the sources
    to the marks followed by w, b(w), ..., can solve mu o a = b o mu.

    In homogeneous coordinates the targets are polynomials in w, so the
    matrix of mu_w is too, and E(z, w) is the numerator of
    mu_w(a(z)) - b(mu_w(z)).  A transporter makes E(z, w0) vanish
    identically in z, so w0 is a root of the content of E in z.  Since
    deg_z E <= deg a + deg b, that content is the gcd of the images E(t, w)
    at t = 0, 1, ..., deg a + deg b; the running gcd stops once it is
    constant."""
    S = [_homogeneous(p) for p in sources]
    T = [tuple(map(UniPoly.constant, _homogeneous(q))) for q in marks]
    T.append((UniPoly.x(), UniPoly.one()))
    while len(T) < 3:
        T.append(tuple(homogenize((b.num, b.den), *T[-1], b.degree)))
    A, B, C, D = _matrix_through(S, T)
    g = UniPoly.zero()
    for t in range(a.degree + b.degree + 1):
        # left side mu_w(a(t)); right side b(mu_w(t))
        n, d = a.num(t), a.den(t)
        Rn, Rd = homogenize((b.num, b.den), A * t + B, C * t + D, b.degree)
        g = g.gcd((A * n + B * d) * Rd - (C * n + D * d) * Rn)
        if g.degree == 0:
            return []
    if g.is_zero:
        raise TheoremViolation("transporter identity degenerated")
    return rational_roots(g)


def are_conjugate(a: RatMap, b: RatMap) -> bool:
    if a.degree != b.degree:
        return False
    if a == b:
        return True
    return bool(conjugacy_transporters(a, b))


# ----------------------------------------------------------------------
# symmetry groups


class MobiusGroup:
    """A finite set of degree-one maps closed under composition and inverse."""

    def __init__(self, elements):
        elems = set(elements)
        if not elems:
            raise PreconditionError("a group needs at least the identity")
        self.elements = tuple(sorted(elems, key=lambda m: m.sort_key()))

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, mu):
        return mu in set(self.elements)

    def verify_group(self) -> bool:
        elems = set(self.elements)
        if RatMap.identity() not in elems:
            return False
        for m in elems:
            if m.mobius_inverse() not in elems:
                return False
            for n in elems:
                if m.compose(n) not in elems:
                    return False
        return True

    def __repr__(self):
        inner = ", ".join(m.to_str() for m in self.elements)
        return f"MobiusGroup({inner})"


def mobius_left_stabilizer(B: RatMap) -> MobiusGroup:
    """All mu with B o mu = B."""
    if B.degree < 1:
        raise PreconditionError("stabilizers need a nonconstant map")
    return MobiusGroup(mu_right_transports(B, B))


def mobius_commutant(B: RatMap) -> MobiusGroup:
    """All mu with mu o B = B o mu."""
    if B.degree < 2:
        raise PreconditionError("the commutant needs degree at least two")
    return MobiusGroup(conjugacy_transporters(B, B))
