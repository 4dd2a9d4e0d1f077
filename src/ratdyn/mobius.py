"""Degree-one symmetry solvers.

Two exact solvers cover every question asked of degree-one maps:

* mu_right_transports(f, g): all mu with f o mu = g.  A candidate mu is
  pinned by the images of three rational base points, and each image must
  be a rational point of a known fiber of f, so the search space is finite
  and every candidate is verified exactly.

* conjugacy_transporters(a, b): all mu with mu o a = b o mu.  When each
  map has three marked points, mu is pinned by their images as above.
  Otherwise mu(a^k(z0)) = b^k(mu(z0)), so mu is a one-parameter family in
  w = mu(z0); the commutation identity E(z, w) = 0 specialised at enough
  integers z = t gives univariate polynomials in w whose gcd pins down
  finitely many rational candidates.  Conjugated reruns cover parameters
  that escape to infinity.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .errors import PreconditionError, TheoremViolation
from .factoring import rational_roots
from .memo import memo
from .places import rational_points_in_fiber
from .polynomials import UniPoly, homogenize
from .ratmaps import INF, RatMap, mobius, mobius_through


def mu_right_transports(f: RatMap, g: RatMap):
    """All degree-one mu over Q with f o mu = g, in canonical order."""
    if f.degree != g.degree or f.degree < 1:
        return []
    base = [Fraction(0), Fraction(1), Fraction(2)]
    fibers = [rational_points_in_fiber(f, g(z)) for z in base]
    return _maps_through(base, fibers, lambda mu: f.compose(mu) == g)


def _maps_through(base, choices, verify):
    """The degree-one maps sending the three base points to three distinct
    targets, the k-th drawn from choices[k], that pass verify; sorted."""
    found = set()
    for targets in itertools.product(*choices):
        if len(set(targets)) < 3:
            continue
        try:
            mu = mobius_through(base, targets)
        except PreconditionError:
            continue
        if mu not in found and verify(mu):
            found.add(mu)
    return sorted(found, key=lambda m: m.sort_key())


def mu_equivalent(f: RatMap, g: RatMap) -> bool:
    """Whether g = f o mu for some degree-one mu."""
    return bool(mu_right_transports(f, g))


# ----------------------------------------------------------------------
# conjugacy transporters


def _orbit_base(a: RatMap):
    """A rational z0 with z0, a(z0), a(a(z0)) pairwise distinct and finite."""
    t = Fraction(0)
    for _ in range(200):
        z0 = t
        t += 1
        v1 = a(z0)
        if v1 is INF:
            continue
        v2 = a(v1)
        if v2 is INF:
            continue
        if len({z0, v1, v2}) == 3:
            return z0, v1, v2
    raise PreconditionError("no usable base orbit found")


def _transporter_candidates(a: RatMap, b: RatMap):
    """Rational candidates w for mu(z0) solving mu o a = b o mu.

    mu_w is the degree-one map through (z0, z1, z2) -> (w, b(w), b^2(w)),
    and E(z, w) is the numerator of mu_w(a(z)) - b(mu_w(z)).  A transporter
    makes E(z, w0) vanish identically in z, so w0 is a root of the content
    of E in z.  Since deg_z E <= deg a + deg b, that content is the gcd of
    the images E(t, w) at t = 0, 1, ..., deg a + deg b, each built from
    univariate pieces in w; the running gcd stops once it is constant."""
    z0, z1, z2 = _orbit_base(a)
    w = UniPoly.x()
    b2 = b.compose(b)
    # q1 = b(w), q2 = b^2(w) as numerator over denominator in w;
    # E1 = q1 - q2 over q1d q2d and E2 = q1 - w over q1d
    E1 = b.num * b2.den - b2.num * b.den
    E2 = b.num - w * b.den
    wE1, q2nE2, q2dE2 = w * E1, b2.num * E2, b2.den * E2

    def mu_w(n, d):
        # mu_w at n/d, through the cross-ratio of (n/d, z0, z1, z2)
        cn, cd = (n - z0 * d) * (z1 - z2), (n - z2 * d) * (z1 - z0)
        return wE1 * cd - q2nE2 * cn, E1 * cd - q2dE2 * cn

    g = UniPoly.zero()
    for t in range(a.degree + b.degree + 1):
        # left side mu_w(a(t)); right side b(mu_w(t))
        Ln, Ld = mu_w(a.num(t), a.den(t))
        Rn, Rd = homogenize((b.num, b.den), *mu_w(t, 1), b.degree)
        g = g.gcd(Ln * Rd - Ld * Rn)
        if g.degree == 0:
            return z0, z1, z2, []
    if g.is_zero:
        raise TheoremViolation("transporter identity degenerated")
    return z0, z1, z2, rational_roots(g)


@memo
def _marked_points(f: RatMap):
    """Rational points pinned by the dynamics, with conjugation-invariant
    labels: critical points, two steps of their images, fixed points, and
    one level of rational preimages of all of those."""
    from .places import (
        PLACE_INF,
        Place,
        local_degree,
        rational_fixed_points,
        rational_points_in_fiber,
    )

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
    for p in sorted(pts, key=lambda v: (1, Fraction(0)) if v is INF else (0, v)):
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
        labels[p] = (p, (ldeg(p), ldeg(v1), ldeg(v2), v1 == p))
    return labels


@memo
def conjugacy_transporters(a: RatMap, b: RatMap):
    """All degree-one mu over Q with mu o a = b o mu, for deg a = deg b >= 2."""
    if a.degree != b.degree:
        return []
    if a.degree < 2:
        raise PreconditionError("transporters need degree at least two")
    ma = _marked_points(a)
    mb = _marked_points(b)
    la = sorted(lab for _, lab in ma.values())
    lb = sorted(lab for _, lab in mb.values())
    if la != lb:
        return []
    if len(ma) >= 3:
        return _transporters_by_marks(a, b, ma, mb)
    return _transporters_symbolic(a, b)


def _transporters_by_marks(a, b, ma, mb):
    pool_a = sorted(ma.values(), key=lambda t: (1, 0) if t[0] is INF else (0, t[0]))
    base = [pool_a[i][0] for i in range(3)]
    choices = [[pt for pt, lab in mb.values() if lab == pool_a[i][1]] for i in range(3)]
    return _maps_through(base, choices, lambda mu: mu.compose(a) == b.compose(mu))


def _transporters_symbolic(a: RatMap, b: RatMap):
    # reruns with b conjugated by z -> 1/(z - c) make w = mu(z0) finite
    # when it is infinite in the plain run
    found = set()
    for ic in [RatMap.identity()] + [mobius(0, 1, 1, -c) for c in range(3)]:
        back = ic.mobius_inverse()
        bb = ic.compose(b).compose(back)
        z0, z1, z2, cands = _transporter_candidates(a, bb)
        for w in cands:
            t1 = bb(w)
            t2 = bb(t1) if t1 is not INF else bb.value_at_infinity()
            targets = [w, t1, t2]
            if len(set(targets)) != 3:
                continue
            try:
                nu = mobius_through([z0, z1, z2], targets)
            except PreconditionError:
                continue
            mu = back.compose(nu)
            if mu.compose(a) == b.compose(mu):
                found.add(mu)
    return sorted(found, key=lambda m: m.sort_key())


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
