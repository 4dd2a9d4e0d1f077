"""Classification of rational maps: power / Chebyshev conjugacy detection,
Lattes and generalized Lattes recognition, the maximal self-orbifold, and
Galois-covering constructors for the positive-characteristic signatures.

The maximal-orbifold search rests on three exact facts about a minimal
holomorphic self-map orbifold: its support is forward invariant and
finite, so it consists of preperiodic places of the critical-value
orbits; its periodic part carries a constant value coprime to the local
degrees along the cycle; and every supporting cycle passes through a
critical value (otherwise the backward orbit would be infinite).  Cycles
are therefore found by iterating critical values.  A value m on a cycle
forces m / gcd(m, E(p)) at a place p behind it, E(p) the product of the
local degrees on the path from p into the cycle, so the values that work
are the divisors of one number: the gcd of E(q) over the boundary places
q outside the preperiodic set, less the primes of the cycle's degrees.
One backward walk finds it, so values have no cap.  A cycle with no
boundary place is an exceptional point (the polynomial infinity, up to
conjugacy); it only joins the two-point candidate that a bad join
leaves.  Every orbifold found is verified as a pullback fixed point.
A critical orbit is proved infinite once one of its places has height
above log K / (d - 1), where log K bounds d h(P) - h(A(P)) (Call and
Silverman): its canonical height is then positive.  Every infinite orbit
passes that bound, so only an orbit still open at the place cap makes
the verdict Inconclusive.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import comb as _comb
from math import gcd as _igcd

from .errors import (
    Inconclusive,
    NonRationalPosition,
    NotDefined,
    PreconditionError,
    TheoremViolation,
)
from .memo import memo
from .orbifolds import Orbifold, chi, is_covering, o2_of, positive_chi_family, pullback
from .places import (
    Place,
    critical_values,
    fiber_partition,
    image_place,
    local_degree,
    preimage_places,
)
from .polynomials import UniPoly, qq
from .ratmaps import INF, RatMap, chebyshev, mobius, mobius_through, power_map

PLACE_CAP = 64


# kind: power | chebyshev | lattes | generalized_lattes | non_special_non_gl;
# n, sign, witness (a RatMap) and orbifold (an Orbifold) default to None
SpecialClass = namedtuple(
    "SpecialClass",
    ("kind", "n", "sign", "witness", "orbifold", "extension_needed"),
    defaults=(None, None, None, None, False),
)


# ----------------------------------------------------------------------
# power and Chebyshev detection


def _int_kth_root(n: int, k: int) -> int:
    """Floor of the k-th root, exact integer Newton iteration."""
    if n < 2:
        return n
    x = 1 << ((n.bit_length() + k - 1) // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _fraction_root(q: Fraction, k: int):
    """A rational x with x**k = q, or None."""
    if k <= 0:
        raise PreconditionError("root index must be positive")
    if q == 0:
        return Fraction(0)
    if q < 0 and k % 2 == 0:
        return None
    sign = -1 if q < 0 else 1
    num, den = abs(q.numerator), q.denominator
    a = _int_kth_root(num, k)
    b = _int_kth_root(den, k)
    if a**k == num and b**k == den:
        return sign * Fraction(a, b)
    return None


def _totally_ramified(A: RatMap, q: Place) -> bool:
    return fiber_partition(A, q) == ((A.degree, 1),)


def detect_power_conjugacy(A: RatMap):
    """SpecialClass('power', ...) when A is conjugate to z^(+-n); the witness
    mu satisfies mu o A o mu^{-1} = z^(+-n) when it exists over Q."""
    if A.degree < 2:
        raise PreconditionError("detection needs degree at least two")
    n = A.degree
    o2 = o2_of(A)
    items = o2.items()
    if sum(p.degree for p, _ in items) != 2 or any(v != n for _, v in items):
        return None
    if not all(_totally_ramified(A, p) for p, _ in items):
        return None
    support = [p for p, _ in items]
    if any(image_place(A, p) not in support for p in support):
        return None
    if len(support) == 1 and support[0].degree == 2:
        # singular pair is an irrational Galois orbit; it is invariant and
        # totally ramified, so it is a two-point exceptional set, and a map
        # with one is conjugate to z^(+-n) over the field of the pair
        return SpecialClass("power", n=n, extension_needed=True)
    v1 = support[0].rational_value()
    v2 = support[1].rational_value()
    third = next(t for t in (Fraction(0), Fraction(1), Fraction(2)) if t not in (v1, v2))
    mu0 = mobius_through([v1, v2, third], [Fraction(0), INF, Fraction(1)])
    A0 = A.conjugate(mu0)
    for sign in (1, -1):
        # shape A0 = c * z^n (sign +) or A0 = c / z^n (sign -); then a scaling
        # lambda * z normalizes away c when the needed rational root exists
        if sign == 1:
            if not (A0.den.is_constant and A0.num == UniPoly.monomial(n)):
                continue
            c = 1 / A0.den.coeff(0)
            lam = _fraction_root(c, n - 1)
        else:
            if not (A0.den == UniPoly.monomial(n) and A0.num.is_constant and not A0.num.is_zero):
                continue
            c = A0.num.coeff(0)
            lam = _fraction_root(1 / c, n + 1)
        if lam is None:
            # the shape c * z^(+-n) is verified over Q above; only the
            # scaling root lambda lies outside Q
            return SpecialClass("power", n=n, sign=sign, extension_needed=True)
        model = power_map(sign * n)
        for scale in (lam, -lam):
            mu = mobius(scale, 0, 0, 1).compose(mu0)
            if A.conjugate(mu) == model:
                return SpecialClass("power", n=n, sign=sign, witness=mu)
        raise TheoremViolation("power normalization failed to verify")
    return None


def detect_chebyshev_conjugacy(A: RatMap):
    """SpecialClass('chebyshev', ...) when A is conjugate to +-T_n."""
    if A.degree < 2:
        raise PreconditionError("detection needs degree at least two")
    n = A.degree
    o2 = o2_of(A)
    items = o2.items()
    # the point under the fully ramified fixed end
    anchors = [
        p
        for p, v in items
        if v == n and p.degree == 1 and _totally_ramified(A, p) and image_place(A, p) == p
    ]
    for anchor in anchors:
        others = [(p, v) for p, v in items if p != anchor]
        if n >= 3:
            if any(v != 2 for _, v in others):
                continue
            total = sum(p.degree for p, _ in others)
            if total != 2:
                continue
            if len(others) == 1 and others[0][0].degree == 2:
                return _chebyshev_over_pair(A, anchor, others[0][0])
            pts = [p.rational_value() for p, _ in others]
            assignments = [(pts[0], pts[1]), (pts[1], pts[0])]
        else:
            # degree two: signature {2, 2}; the second singular point maps to
            # a regular point which must sit at the other Chebyshev end
            if len(others) != 1 or others[0][1] != 2 or others[0][0].degree != 1:
                continue
            v = others[0][0].rational_value()
            w_place = image_place(A, others[0][0])
            if w_place.degree != 1:
                continue
            w = w_place.rational_value()
            if w in (v, anchor.rational_value()):
                continue
            assignments = [(v, w)]
        a_pt = anchor.rational_value()
        conjugations = []
        for minus_one, plus_one in assignments:
            try:
                mu = mobius_through([minus_one, plus_one, a_pt], [Fraction(-1), Fraction(1), INF])
            except PreconditionError:
                continue
            conjugations.append((mu, A.conjugate(mu)))
        tn = chebyshev(n)
        for sign in (1, -1):
            target = tn if sign == 1 else -tn
            for mu, conj in conjugations:
                if conj == target:
                    return SpecialClass("chebyshev", n=n, sign=sign, witness=mu)
    return None


def _chebyshev_over_pair(A: RatMap, anchor: Place, pair: Place):
    """SpecialClass('chebyshev', ...) when A is conjugate to +-T_n by a map
    sending the anchor to INF and the Galois-conjugate pair to {-1, 1}.

    +-T_n with n odd fixes {-1, 1} as a set; with n even it sends both ends
    to one point, which a conjugate pair cannot share, so the pair must map
    to itself.  Then, with the anchor moved to INF and the pair written
    c +- h, h^2 = D, the conjugacy is A0(c + h u) = c + s h T_n(u), which
    over Q reads A0(c + v) - c = s sum over odd k of t_k D^((1-k)/2) v^k."""
    if image_place(A, pair) != pair:
        return None
    n = A.degree
    mu0 = RatMap.identity() if anchor.is_infinity else mobius(0, 1, 1, -anchor.rational_value())
    A0 = A.conjugate(mu0)
    m = image_place(mu0, pair).minpoly
    c = -m.coeff(1) / 2
    D = c * c - m.coeff(0)
    tn = chebyshev(n)
    odd = [Fraction(0)] * (n + 1)
    for k in range(1, n + 1, 2):
        odd[k] = tn.num.coeff(k) / tn.den.coeff(0) * D ** ((1 - k) // 2)
    odd_part = UniPoly(odd).taylor_shift(-c)
    for sign in (1, -1):
        if A0 == RatMap.from_poly(odd_part * sign + UniPoly.constant(c)):
            return SpecialClass("chebyshev", n=n, sign=sign, extension_needed=True)
    return None


# ----------------------------------------------------------------------
# postcritical orbit structure


def _height_bound(A: RatMap):
    """(K^2, d - 1) with d h(P) - h(A(P)) <= log K at every algebraic point P.

    Write A = F/G with F, G coprime integer binary forms of degree d.  The
    cofactors of their Sylvester matrix give R X^(2d-1) and R Y^(2d-1) as
    combinations of F and G with forms of degree d - 1, R the resultant;
    by Hadamard each cofactor is at most ||F||_2^d ||G||_2^d.  At every
    archimedean place that bounds max(|x|, |y|)^d |R| by
    K max(|F(x, y)|, |G(x, y)|) with K = 2d ||F||_2^d ||G||_2^d, at every
    other place by 1, and the product formula cancels R (Call and
    Silverman, Compositio Math. 89, 1993)."""
    d = A.degree
    f, g = A.num, A.den
    F = [v * g.denom for v in f.nums]
    G = [v * f.denom for v in g.nums]
    content = _igcd(*F, *G)
    nf = sum((v // content) ** 2 for v in F)
    ng = sum((v // content) ** 2 for v in G)
    return 4 * d * d * nf**d * ng**d, d - 1


def _escapes(bound, p: Place) -> bool:
    """True when the canonical height of p is certified positive, so p is
    not preperiodic (Northcott).

    Telescoping the height bound gives hhat(P) >= h(P) - log K / (d - 1).
    For a place with primitive integer minimal polynomial m of degree D,
    h(P) = log M(m) / D and Mahler's ||m||_inf <= C(D, D // 2) M(m) make
    ||m||_inf^(2(d-1)) > K^(2D) C(D, D // 2)^(2(d-1)) sufficient.  INF has
    height 0 and never escapes."""
    if p.is_infinity:
        return False
    k2, e = bound
    m = p.minpoly.nums
    D = len(m) - 1
    top = max(abs(v) for v in m) // _igcd(*m)
    return top ** (2 * e) > k2**D * _comb(D, D // 2) ** (2 * e)


def postcritical_data(A: RatMap):
    """(cycles, preperiodic, unresolved): cycles of places reachable from
    critical values, the set of certified preperiodic postcritical places,
    and orbit heads that neither cycled nor escaped within the step cap.

    An orbit is retired as non-preperiodic once a place on it passes the
    height bound (`_escapes`); every wandering orbit does so after finitely
    many steps, since its canonical height is positive."""
    if A.degree < 2:
        raise PreconditionError("postcritical data needs degree at least two")
    bound = _height_bound(A)
    cycles = []
    seen_cycles = set()
    preperiodic: set[Place] = set()
    dead: set[Place] = set()  # certified non-preperiodic
    unresolved = []
    for v in critical_values(A):
        orbit = [v]
        index = {v: 0}
        resolved = False
        for _ in range(PLACE_CAP):
            head = orbit[-1]
            if head in preperiodic:
                preperiodic.update(orbit)
                resolved = True
                break
            if head in dead or _escapes(bound, head):
                dead.update(orbit)
                resolved = True
                break
            w = image_place(A, head)
            if w in index:
                cyc = tuple(orbit[index[w]:])
                key = frozenset(cyc)
                if key not in seen_cycles:
                    seen_cycles.add(key)
                    cycles.append(cyc)
                preperiodic.update(orbit)
                resolved = True
                break
            index[w] = len(orbit)
            orbit.append(w)
        if not resolved:
            unresolved.append(v)
    return cycles, preperiodic, unresolved


def _top_value(A: RatMap, seeds, allowed):
    """(M, E) from one backward walk from the forward-invariant seeds
    through the places in allowed.  E(p) is the product of the local
    degrees on the forward path from p into seeds; M is the gcd of E(q)
    over the boundary places q, preimages outside seeds and allowed, with
    the primes of the seed degrees removed, or 0 when there is none.  The
    values the seeds can carry are the divisors of M."""
    E = {p: 1 for p in seeds}
    queue = list(seeds)
    top, seed_degrees = 0, 1
    while queue:
        w = queue.pop()
        for p in preimage_places(A, w):
            e = local_degree(A, p)
            if p in seeds:
                seed_degrees *= e
            elif p in allowed:
                E[p] = e * E[w]
                queue.append(p)
            else:
                top = _igcd(top, e * E[w])
    while top and (g := _igcd(top, seed_degrees)) > 1:
        top //= g
    return top, E


@memo
def maximal_orbifold(A: RatMap):
    """The largest orbifold carried into itself by A minimally
    holomorphically, or None when only the trivial one works.

    Raises NotDefined for maps conjugate to powers or Chebyshev maps (over
    any field), and Inconclusive when a postcritical orbit stays unsettled
    within the place cap."""
    if A.degree < 2:
        raise PreconditionError("the maximal orbifold needs degree at least two")
    if detect_power_conjugacy(A) is not None:
        raise NotDefined("maximal orbifold undefined for power-conjugate maps")
    if detect_chebyshev_conjugacy(A) is not None:
        raise NotDefined("maximal orbifold undefined for Chebyshev-conjugate maps")
    cycles, preperiodic, unresolved = postcritical_data(A)
    if unresolved:
        raise Inconclusive("postcritical orbit unresolved within the cap")
    join = Orbifold.trivial()
    exceptional = []
    for cyc in cycles:
        top, E = _top_value(A, cyc, preperiodic)
        if top == 0:
            # no boundary place: a point that is its own only preimage
            exceptional.extend(cyc)
            continue
        tree = Orbifold({p: top // _igcd(top, e) for p, e in E.items()})
        if pullback(A, tree) != tree:
            raise TheoremViolation("propagated tree is not a self-orbifold")
        join = join.join(tree)
    if pullback(A, join) != join:
        raise TheoremViolation("join of self-orbifolds is not a self-orbifold")
    if exceptional and join.geometric_point_count() >= 2:
        # it would carry (2, 2, m) self-orbifolds for unbounded m, which
        # only Chebyshev maps do
        raise TheoremViolation("exceptional point beside a join of several points")
    if join.is_good() and not join.is_trivial:
        return join
    # a bad join has at most two geometric points, and a good solution
    # carries one value on two of them; with the exceptional points the
    # whole support is therefore the only candidate
    support = join.support() + exceptional
    if sum(p.degree for p in support) != 2:
        return None
    top, _ = _top_value(A, support, ())
    if top == 0:
        raise TheoremViolation("totally invariant pair of a map that is not a power")
    if top == 1:
        return None
    o = Orbifold({p: top for p in support})
    if not (o.is_good() and pullback(A, o) == o):
        raise TheoremViolation("two-point self-orbifold failed to verify")
    return o


def is_lattes(A: RatMap):
    """The unique orbifold through which A is a covering self-map, or None."""
    if A.degree < 2:
        raise PreconditionError("Lattes detection needs degree at least two")
    try:
        o0 = maximal_orbifold(A)
    except NotDefined:
        return None
    if o0 is not None and chi(o0) == 0 and is_covering(A, o0, o0):
        return o0
    return None


@memo
def classify(A: RatMap) -> SpecialClass:
    """Apply the detectors in order: power, Chebyshev, Lattes, then the
    maximal orbifold deciding generalized Lattes against plain maps."""
    if A.degree < 2:
        raise PreconditionError("classification needs degree at least two")
    pw = detect_power_conjugacy(A)
    if pw is not None:
        return pw
    ch = detect_chebyshev_conjugacy(A)
    if ch is not None:
        return ch
    o0 = maximal_orbifold(A)
    if o0 is None:
        return SpecialClass("non_special_non_gl")
    if chi(o0) == 0:
        if not is_covering(A, o0, o0):
            raise TheoremViolation("flat orbifold without the covering property")
        return SpecialClass("lattes", orbifold=o0)
    return SpecialClass("generalized_lattes", orbifold=o0)


# ----------------------------------------------------------------------
# Galois coverings for the positive-characteristic signatures


def _theta_dihedral(n: int) -> RatMap:
    num = UniPoly.monomial(2 * n) + UniPoly.one()
    den = UniPoly.monomial(n, 2)
    return RatMap(num, den)


_THETA_TETRA = RatMap(UniPoly.of(0, 8, 0, 0, 1) ** 3, 64 * (UniPoly.of(-1, 0, 0, 1) ** 3))
_THETA_OCTA = RatMap(
    UniPoly.of(1, 0, 0, 0, 14, 0, 0, 0, 1) ** 3,
    UniPoly.monomial(4, 108) * (UniPoly.of(-1, 0, 0, 0, 1) ** 4),
)


def _klein_forms():
    z = UniPoly.x()
    f = UniPoly.monomial(11) + 11 * UniPoly.monomial(6) - z
    h = -(UniPoly.monomial(20) + UniPoly.one()) + 228 * (
        UniPoly.monomial(15) - UniPoly.monomial(5)
    ) - 494 * UniPoly.monomial(10)
    t = (UniPoly.monomial(30) + UniPoly.one()) + 522 * (
        UniPoly.monomial(25) - UniPoly.monomial(5)
    ) - 10005 * (UniPoly.monomial(20) + UniPoly.monomial(10))
    return f, h, t


def _theta_icosa() -> RatMap:
    f, _, t = _klein_forms()
    return RatMap(1728 * f**5, t**2)


def theta(o: Orbifold) -> RatMap:
    """A Galois covering with branch orbifold exactly o, for the signatures
    of positive Euler characteristic at rational singular positions."""
    if o.is_trivial:
        raise PreconditionError("the trivial orbifold needs no covering")
    if chi(o) <= 0:
        raise PreconditionError("coverings stored only for positive characteristic")
    if not o.is_good():
        raise PreconditionError("the orbifold is not good")
    family = positive_chi_family(o.signature())
    if family is None:
        raise PreconditionError("signature outside the positive lists")
    for p in o.ram:
        if p.degree != 1:
            raise NonRationalPosition("singular places must be rational points")
    pts = {}
    for p, v in o.items():
        pts.setdefault(v, []).append(p.rational_value())
    if family == "cyclic":
        n = o.signature()[0]
        (a, b) = sorted(pts[n], key=_pt_key)
        base = power_map(n)
        normalized = [Fraction(0), INF, Fraction(1)]
        third = _spare_point((a, b))
        mu = mobius_through(normalized, [a, b, third])
        return mu.compose(base)
    if family == "dihedral":
        n = o.signature()[0]
        base = _theta_dihedral(n)
        if n == 2:
            # all three values equal; any assignment works
            targets = sorted((pt for v in pts for pt in pts[v]), key=_pt_key)
        else:
            twos = sorted(pts[2], key=_pt_key)
            targets = [twos[0], twos[1], pts[n][0]]
        mu = mobius_through([Fraction(-1), Fraction(1), INF], targets)
        return mu.compose(base)
    if family == "tetrahedral":
        threes = sorted(pts[3], key=_pt_key)
        mu = mobius_through([Fraction(0), INF, Fraction(1)], [threes[0], threes[1], pts[2][0]])
        return mu.compose(_THETA_TETRA)
    if family == "octahedral":
        mu = mobius_through([Fraction(0), INF, Fraction(1)], [pts[3][0], pts[4][0], pts[2][0]])
        return mu.compose(_THETA_OCTA)
    mu = mobius_through([Fraction(0), Fraction(1), INF], [pts[5][0], pts[3][0], pts[2][0]])
    return mu.compose(_theta_icosa())


def _pt_key(v):
    return (1, Fraction(0)) if v is INF else (0, qq(v))


def _spare_point(used):
    t = Fraction(0)
    while t in used:
        t += 1
    return t
