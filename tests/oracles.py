"""Independent oracles used by the tests.

Everything here recomputes expected values by a route different from the
library code under test: uni- and bivariate ring arithmetic, evaluation
(of polynomials, ratios and bivariate terms one power at a time),
composition, interpolation, division and gcds by schoolbook `Fraction`
arithmetic on coefficient lists and dicts and Euclid's algorithm over Q,
resultants by Sylvester determinants with plain Gaussian elimination
(Res_y through them and interpolation), shifts z^k p by rebuilding the
coefficient list,
the Zassenhaus prime by splitting every prime tried completely,
genus counts by the raw pairing formula, commuting maps by coordinate
series at a superattracting fixed point, invariant graphs by the same
series plus exact verification, fiber partitions by gcd chains over the
number field of the target place, Chebyshev cubics by their
centred-monic normal form, transporter candidates by elimination in
Q[z, w] and factoring, conjugacy transporters through one base orbit
and conjugated reruns with no marked points, curve periods by iterating
elimination images, membership of a parametrization by substituting it into the curve,
wandering critical orbits by contraction balls around attracting
rational periodic points, maximal orbifolds by propagating and
pulling back every candidate value up to a cap, and parsed maps by the
same grammar with every subexpression a reduced `RatMap`.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

from ratdyn.bipolys import BiPoly
from ratdyn.classify import detect_chebyshev_conjugacy, detect_power_conjugacy, postcritical_data
from ratdyn.curves import image_curve, substitute_maps
from ratdyn.factoring import (
    _degree_subset_sums,
    _gf_edf,
    _good_primes,
    factor_univariate,
    rational_roots,
)
from ratdyn.intpoly import _m_divmod, _m_gcd, _m_pow_mod, _m_sub
from ratdyn.numberfields import NumberField
from ratdyn.errors import Inconclusive, NotDefined, ParseError, PreconditionError, TheoremViolation
from ratdyn.orbifolds import Orbifold, pullback
from ratdyn.parser import _Parser
from ratdyn.places import critical_values, image_place, local_degree, preimage_places
from ratdyn.polynomials import UniPoly, homogenize
from ratdyn.ratmaps import INF, RatMap, chebyshev, mobius, mobius_through
from ratdyn.series import pade_reconstruct


def schoolbook_mul(f: UniPoly, g: UniPoly) -> UniPoly:
    """Product by one `Fraction` multiplication per coefficient pair."""
    if f.is_zero or g.is_zero:
        return UniPoly.zero()
    out = [Fraction(0)] * (len(f.c) + len(g.c) - 1)
    for i, a in enumerate(f.c):
        for j, b in enumerate(g.c):
            out[i + j] += a * b
    return UniPoly(out)


def fraction_divmod(f: UniPoly, g: UniPoly):
    """Long division over Q with `Fraction` coefficients."""
    rem = list(f.c)
    dq = len(rem) - len(g.c)
    if dq < 0:
        return UniPoly.zero(), f
    quo = [Fraction(0)] * (dq + 1)
    for k in range(dq, -1, -1):
        q = rem[k + len(g.c) - 1] / g.lc
        quo[k] = q
        for j, v in enumerate(g.c):
            rem[k + j] -= q * v
    return UniPoly(quo), UniPoly(rem)


def euclid_gcd(f: UniPoly, g: UniPoly) -> UniPoly:
    """Monic gcd by Euclid's remainder sequence over Q."""
    while not g.is_zero:
        f, g = g, fraction_divmod(f, g)[1]
    if f.is_zero:
        return f
    return UniPoly([v / f.lc for v in f.c])


# ----------------------------------------------------------------------
# coefficient-list oracles: tuples of Fractions, lowest degree first,
# trimmed of leading zeros


def _trimmed(c) -> tuple:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def frac_add(a, b, sign=1) -> tuple:
    """a + sign * b, coefficient by coefficient."""
    n = max(len(a), len(b))
    return _trimmed(
        (a[i] if i < len(a) else Fraction(0)) + sign * (b[i] if i < len(b) else Fraction(0))
        for i in range(n)
    )


def frac_mul(a, b) -> tuple:
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return _trimmed(out)


def frac_eval(a, x) -> Fraction:
    acc = Fraction(0)
    for v in reversed(a):
        acc = acc * x + v
    return acc


def frac_compose(a, b) -> tuple:
    acc = ()
    for v in reversed(a):
        acc = frac_add(frac_mul(acc, b), (v,))
    return acc


def frac_ratio(num, den, t):
    """num(t) / den(t) for coefficient lists, or None where den(t) = 0."""
    d = frac_eval(den, t)
    return None if d == 0 else frac_eval(num, t) / d


def shift_up(p: UniPoly, k: int) -> UniPoly:
    """p * z**k, rebuilt from the shifted Fraction coefficients."""
    return UniPoly((Fraction(0),) * k + tuple(p.c))


def compose_by_gcd(f: RatMap, g: RatMap) -> RatMap:
    """f after g by the general constructor: the homogenised pair
    sum c_i r^i s^(m-i) summed one Fraction product at a time, for g = r/s
    and m = deg f, then reduced by the constructor's normalising gcd."""
    m = f.degree
    r, s = g.num.c, g.den.c
    out = []
    for p in (f.num.c, f.den.c):
        acc = ()
        for i, c in enumerate(p):
            term = (c,)
            for _ in range(i):
                term = frac_mul(term, r)
            for _ in range(m - i):
                term = frac_mul(term, s)
            acc = frac_add(acc, term)
        out.append(UniPoly(acc))
    return RatMap(*out)


def mobius_by_cases(sources, targets) -> RatMap:
    """The degree-one map through three point pairs, by the case analysis of
    z -> (z - p0)(p1 - p2) / ((z - p2)(p1 - p0)) with INF among p0, p1, p2:
    the target triple's map inverted by its adjugate, after the source
    triple's, composed by `compose_by_gcd`."""

    def to_zero_one_inf(p0, p1, p2):
        if p0 is INF:
            return 0, p1 - p2, 1, -p2
        if p1 is INF:
            return 1, -p0, 1, -p2
        if p2 is INF:
            return 1, -p0, 0, p1 - p0
        return p1 - p2, -p0 * (p1 - p2), p1 - p0, -p2 * (p1 - p0)

    def as_map(a, b, c, d):
        return RatMap(UniPoly((Fraction(b), Fraction(a))), UniPoly((Fraction(d), Fraction(c))))

    s = as_map(*to_zero_one_inf(*(p if p is INF else Fraction(p) for p in sources)))
    a, b, c, d = to_zero_one_inf(*(p if p is INF else Fraction(p) for p in targets))
    return compose_by_gcd(as_map(d, -b, -c, a), s)


def ser_mul(a, b, k) -> list:
    """The first k coefficients of a * b, one `Fraction` product per pair."""
    out = [Fraction(0)] * k
    for i, u in enumerate(a[:k]):
        for j, v in enumerate(b[: k - i]):
            out[i + j] += u * v
    return out


def frac_interpolate(points) -> tuple:
    """Lagrange's formula, one basis polynomial at a time."""
    out = ()
    for i, (xi, yi) in enumerate(points):
        basis, den = (Fraction(1),), Fraction(1)
        for j, (xj, _) in enumerate(points):
            if i != j:
                basis = frac_mul(basis, (-xj, Fraction(1)))
                den *= xi - xj
        out = frac_add(out, frac_mul(basis, (yi / den,)))
    return out


# bivariate oracle: dicts (i, j) -> nonzero Fraction


def _bi_clean(terms) -> dict:
    return {k: v for k, v in terms.items() if v}


def bi_add(f, g, sign=1) -> dict:
    out = dict(f)
    for k, v in g.items():
        out[k] = out.get(k, Fraction(0)) + sign * v
    return _bi_clean(out)


def bi_mul(f, g) -> dict:
    out = {}
    for (i1, j1), u in f.items():
        for (i2, j2), v in g.items():
            k = (i1 + i2, j1 + j2)
            out[k] = out.get(k, Fraction(0)) + u * v
    return _bi_clean(out)


def bi_eval_x(f, a) -> tuple:
    """f(a, y) as a coefficient tuple in y."""
    out = [Fraction(0)] * (max((j for _, j in f), default=-1) + 1)
    for (i, j), v in f.items():
        out[j] += v * Fraction(a) ** i
    return _trimmed(out)


def bi_eval_y(f, a) -> tuple:
    """f(x, a) as a coefficient tuple in x."""
    return bi_eval_x({(j, i): v for (i, j), v in f.items()}, a)


def bi_value(f, a, b) -> Fraction:
    """f(a, b), one power product per term."""
    return sum((v * Fraction(a) ** i * Fraction(b) ** j for (i, j), v in f.items()), Fraction(0))


def bi_coeffs_in_x(f) -> list:
    """The coefficient tuples in y of each power of x."""
    rows = [[Fraction(0)] * (max((j for _, j in f), default=-1) + 1)
            for _ in range(max((i for i, _ in f), default=-1) + 1)]
    for (i, j), v in f.items():
        rows[i][j] = v
    return [_trimmed(r) for r in rows]


def _pseudo_rem_x(a: BiPoly, b: BiPoly) -> BiPoly:
    """lc_x(b)^k a mod b in Q[y][x]: each step cross-multiplies by the two
    leading x-coefficients and cancels the top x-term of a."""
    lb = BiPoly.from_unipoly(b.coeffs_in_x()[-1], "y")
    while not a.is_zero and a.deg_x >= b.deg_x:
        la = BiPoly.from_unipoly(a.coeffs_in_x()[-1], "y")
        a = a * lb - la * BiPoly({(a.deg_x - b.deg_x, 0): 1}) * b
    return a


def prs_gcd_x(f: BiPoly, g: BiPoly) -> BiPoly:
    """gcd in x over Q(y) by the primitive pseudo-remainder sequence."""
    if f.is_zero:
        return g.primitive_part_x().canonical()
    if g.is_zero:
        return f.primitive_part_x().canonical()
    a = f.primitive_part_x()
    b = g.primitive_part_x()
    if a.deg_x < b.deg_x:
        a, b = b, a
    while True:
        if b.is_zero:
            return a.primitive_part_x().canonical()
        if b.deg_x == 0:
            return BiPoly.constant(1)
        a, b = b, _pseudo_rem_x(a, b).primitive_part_x()


def bi_exact_div(f: BiPoly, g: BiPoly):
    """f / g over Q[x, y], or None: long division in x whose quotient rows
    are exact divisions in Q[y]."""
    a = f.coeffs_in_x()
    b = g.coeffs_in_x()
    db = len(b) - 1
    q = [UniPoly.zero()] * max(len(a) - db, 0)
    for k in range(len(q) - 1, -1, -1):
        top = a[k + db]
        if top.is_zero:
            continue
        qt, rt = divmod(top, b[-1])
        if not rt.is_zero:
            return None
        q[k] = qt
        for j in range(db):
            a[k + j] = a[k + j] - qt * b[j]
    if any(a[:db]):
        return None
    return BiPoly.from_coeffs_in_x(q)


def gf_factor_squarefree(f, p, rng):
    """The monic irreducible factors of a monic squarefree f over GF(p),
    sorted: every distinct-degree piece split by equal-degree
    factorization as soon as it is found."""
    if len(f) == 2:
        return [f]
    out = []
    h = [0, 1]
    v = list(f)
    d = 0
    while len(v) - 1 >= 2 * (d + 1):
        d += 1
        h = _m_pow_mod(h, p, v, p)
        g = _m_gcd(_m_sub(h, [0, 1], p), v, p)
        if len(g) > 1:
            out.extend(_gf_edf(g, d, p, rng))
            v = _m_divmod(v, g, p)[0]
            h = _m_divmod(h, v, p)[1]
    if len(v) > 1:
        out.append(v)
    out.sort(key=lambda c: (len(c), c))
    return out


def full_split_pick_modular(f):
    """(p, modular factors, possible factor degrees) as `_pick_modular`
    defines them, from a complete split over every prime tried: the first
    of up to four good primes with strictly fewest factors, stopping at one
    factor or at a degree set of {0, n}."""
    n = len(f) - 1
    rng = random.Random(20240801)
    best = None
    possible = None
    for tried, (p, fp) in enumerate(_good_primes(f), 1):
        facs = gf_factor_squarefree(fp, p, rng)
        sums = _degree_subset_sums([len(g) - 1 for g in facs], n)
        possible = sums if possible is None else (possible & sums)
        if best is None or len(facs) < len(best[1]):
            best = (p, facs)
        if len(facs) == 1 or possible <= {0, n} or tried == 4:
            return best[0], best[1], possible


def sylvester_resultant(f: UniPoly, g: UniPoly) -> Fraction:
    """Determinant of the Sylvester matrix, by fraction-free-ish Gaussian
    elimination over exact rationals."""
    m, n = f.degree, g.degree
    if m < 0 or n < 0:
        return Fraction(0)
    if m == 0 and n == 0:
        return Fraction(1)
    if m == 0:
        return f.c[0] ** n
    if n == 0:
        return g.c[0] ** m
    size = m + n
    rows = []
    fc = [f.coeff(m - i) for i in range(m + 1)]
    gc = [g.coeff(n - i) for i in range(n + 1)]
    for i in range(n):
        rows.append([Fraction(0)] * i + fc + [Fraction(0)] * (size - m - 1 - i))
    for i in range(m):
        rows.append([Fraction(0)] * i + gc + [Fraction(0)] * (size - n - 1 - i))
    det = Fraction(1)
    for col in range(size):
        pivot = None
        for r in range(col, size):
            if rows[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, size):
            if rows[r][col] != 0:
                factor = rows[r][col] * inv
                for c in range(col, size):
                    rows[r][c] -= factor * rows[col][c]
    return det


def resultant_y(f: BiPoly, g: BiPoly) -> UniPoly:
    """Res_y as a polynomial in x: Sylvester determinants of f(x0, y) and
    g(x0, y) at integer x0 that keep both degrees in y, interpolated through
    one more point than the degree bound deg_x f deg_y g + deg_y f deg_x g."""
    points = []
    x0 = 0
    while len(points) <= f.deg_x * g.deg_y + f.deg_y * g.deg_x:
        fy, gy = f.eval_x(Fraction(x0)), g.eval_x(Fraction(x0))
        if fy.degree == f.deg_y and gy.degree == g.deg_y:
            points.append((Fraction(x0), sylvester_resultant(fy, gy)))
        x0 += 1
    return UniPoly(frac_interpolate(points))


def bottcher_series(A: RatMap, k: int):
    """For A with a superattracting fixed point at infinity of full local
    degree (a polynomial-like normal form is not required: only
    A = z^d (1 + O(1/z)) up to the leading coefficient): the series phi
    with phi(A(z)) = phi(z)^d, phi(z) = z (1 + O(1/z)), in the 1/z chart.

    Returns the coefficient list of psi(w) = w + c2 w^2 + ... with
    psi = 1/phi(1/w); only defined for monic polynomial A."""
    if not (A.is_polynomial and A.num.lc == 1):
        raise ValueError("the series normal form needs a monic polynomial")
    d = A.degree
    g = A.conjugate_by_inversion()  # fixes 0 with local degree d
    # solve psi(g(w)) = psi(w)^d coefficient by coefficient,
    # psi(w) = w (1 + a1 w + a2 w^2 + ...)
    psi = [Fraction(0), Fraction(1)] + [Fraction(0)] * (k - 2)
    gser = _ratmap_series(g, k + d)
    for m in range(2, k):
        # match the coefficient of w^(d + m - 1) in psi(g) = psi^d; the
        # unknown psi_m enters linearly, with a slope found by a unit bump
        idx = d + m - 1
        lhs = _compose_series(psi, gser, k + d)
        rhs = _power_series(psi, d, k + d)
        residue = rhs[idx] - lhs[idx]
        slope = _psi_m_gap(g, psi, m, d, k)
        psi[m] -= residue / slope
        lhs = _compose_series(psi, gser, k + d)
        rhs = _power_series(psi, d, k + d)
        assert lhs[idx] == rhs[idx]
    return psi


def _ratmap_series(g: RatMap, k: int):
    num = [g.num.coeff(i) for i in range(k)]
    den = [g.den.coeff(i) for i in range(k)]
    inv = _ser_inverse(den, k)
    return ser_mul(num, inv, k)


def _ser_inverse(a, k):
    out = [Fraction(0)] * k
    out[0] = 1 / a[0]
    for i in range(1, k):
        acc = Fraction(0)
        for j in range(1, i + 1):
            if j < len(a):
                acc += a[j] * out[i - j]
        out[i] = -acc * out[0]
    return out


def _compose_series(p, s, k):
    out = [Fraction(0)] * k
    power = [Fraction(1)] + [Fraction(0)] * (k - 1)
    for i, coeff in enumerate(p):
        if i > 0:
            power = ser_mul(power, s, k)
        if coeff:
            for t in range(k):
                out[t] += coeff * power[t]
    return out


def _power_series(p, d, k):
    out = [Fraction(1)] + [Fraction(0)] * (k - 1)
    for _ in range(d):
        out = ser_mul(out, p, k)
    return out


def _psi_m_gap(g, psi, m, d, k):
    eps = Fraction(1)
    bumped = list(psi)
    bumped[m] += eps
    idx = d + m - 1
    lhs0 = _compose_series(psi, _ratmap_series(g, k + d), k + d)[idx]
    rhs0 = _power_series(psi, d, k + d)[idx]
    lhs1 = _compose_series(bumped, _ratmap_series(g, k + d), k + d)[idx]
    rhs1 = _power_series(bumped, d, k + d)[idx]
    gap = (rhs1 - rhs0) - (lhs1 - lhs0)
    assert gap != 0
    return gap


def commuting_maps_by_series(A: RatMap, degree: int):
    """All maps U of the given degree over Q commuting with a monic
    polynomial A whose finite rational fixed points are absent, found by
    matching coordinates at the superattracting point and verified exactly.

    This is the independent route for the invariant-curve oracle: every
    commuter fixes infinity, so it solves h(A) = h^j in the coordinate
    where A itself is w^d, forcing U = psi_inv(psi^j)."""
    d = A.degree
    k = 2 * degree + 6
    psi = bottcher_series(A, k + 4)
    out = []
    for j in (degree,):
        # candidate series in the 1/z chart: sigma with psi(sigma) = psi^j
        target = _power_series(psi, j, k + 4)
        sigma = _invert_through(psi, target, k + 4)
        rec = pade_reconstruct(UniPoly(sigma), k + 4, degree, degree)
        if rec is None:
            continue
        a, b = rec
        inv_chart = RatMap(a, b)
        U = inv_chart.conjugate_by_inversion()
        if U.degree == degree and U.compose(A) == A.compose(U):
            out.append(U)
    return out


def _invert_through(psi, target, k):
    """sigma with psi(sigma(w)) = target(w), both vanishing at 0 with
    nonzero linear terms solved order by order."""
    sigma = [Fraction(0)] * k
    sigma[1] = target[1] / psi[1]
    for m in range(2, k):
        cur = _compose_series(psi, sigma, k)
        diff = target[m] - cur[m]
        sigma[m] = diff / psi[1]
        cur = _compose_series(psi, sigma, k)
        assert cur[m] == target[m]
    return sigma


def brute_pairing_genus(Y1: RatMap, Y2: RatMap) -> int:
    """Genus by the raw fiber-pairing count over every shared place,
    recomputed directly from fibers (the cross-check formula)."""
    from ratdyn.places import critical_values, fiber_partition
    from math import gcd

    p, q = Y1.degree, Y2.degree
    places = set()
    if p >= 2:
        places.update(critical_values(Y1))
    if q >= 2:
        places.update(critical_values(Y2))
    total = 0
    for c in places:
        for a, ca in fiber_partition(Y1, c):
            for b, cb in fiber_partition(Y2, c):
                total += ca * cb * (a * b - gcd(a, b)) * c.degree
    assert (2 * p * q - total) % 2 == 0
    return (2 - (2 * p * q - total)) // 2


# polynomials over a number field: lists of elements, lowest degree first


def kp_trim(field, a):
    while a and field.is_zero(a[-1]):
        a.pop()
    return a


def kp_divmod(field, a, b):
    inv = field.inv(b[-1])
    rem = list(a)
    dq = len(rem) - len(b)
    if dq < 0:
        return [], kp_trim(field, rem)
    quo = [field.el(0) for _ in range(dq + 1)]
    for k in range(dq, -1, -1):
        top = rem[k + len(b) - 1]
        if not top.is_zero:
            c = field.mul(top, inv)
            quo[k] = c
            for j, bj in enumerate(b):
                rem[k + j] = field.sub(rem[k + j], field.mul(c, bj))
    return kp_trim(field, quo), kp_trim(field, rem[: len(b) - 1])


def kp_monic(field, a):
    inv = field.inv(a[-1])
    return [field.mul(v, inv) for v in a]


def kp_gcd(field, a, b):
    a, b = list(a), list(b)
    while b:
        a, b = b, kp_divmod(field, a, b)[1]
    return kp_monic(field, a)


def kp_derivative(field, a):
    return kp_trim(field, [field.mul(v, field.el(i)) for i, v in enumerate(a)][1:])


def kp_multiplicity_profile(field, a):
    """Yun's gcd chain over the field: (multiplicity, degree of the
    squarefree slice) for a nonzero polynomial."""
    a = kp_monic(field, list(a))
    out = []
    if len(a) < 2:
        return out
    g = kp_gcd(field, a, kp_derivative(field, a))
    w = kp_divmod(field, a, g)[0]
    i = 1
    while len(w) >= 2:
        y = kp_gcd(field, w, g)
        fpart = kp_divmod(field, w, y)[0]
        if len(fpart) >= 2:
            out.append((i, len(fpart) - 1))
        w, g = y, kp_divmod(field, g, y)[0]
        i += 1
    return out


def kp_fiber_partition(f: RatMap, q):
    """Fiber of f over one root gamma of the place q: the multiplicity
    profile of num - gamma * den over Q(gamma), plus the degree drop at
    infinity; over q = INF the fiber polynomial is den over Q."""
    if q.is_infinity:
        field = NumberField(UniPoly.x())
        h = kp_trim(field, [field.el(v) for v in f.den.c])
    else:
        field = NumberField(q.minpoly)
        gamma = field.gen()
        num = list(f.num.c) + [Fraction(0)] * (f.degree + 1 - len(f.num.c))
        den = list(f.den.c) + [Fraction(0)] * (f.degree + 1 - len(f.den.c))
        h = kp_trim(field, [field.sub(field.el(a), field.mul(gamma, field.el(b))) for a, b in zip(num, den)])
    counts = {}
    for mult, deg in kp_multiplicity_profile(field, h):
        counts[mult] = counts.get(mult, 0) + deg
    drop = f.degree - (len(h) - 1)
    if drop:
        counts[drop] = counts.get(drop, 0) + 1
    return tuple(sorted(counts.items()))


def chebyshev_cubic_sign(A: RatMap):
    """+1 or -1 when the cubic polynomial A is affinely conjugate over C to
    +T_3 or -T_3, else 0.  Centring A = a z^3 + b z^2 + c z + e by
    z -> z - b/(3a) gives a z^3 + p z + r; scaling to monic z^3 + p z + s
    needs sqrt(a) but keeps p and s^2 = a r^2.  T_3 = 4z^3 - 3z normalises
    to z^3 - 3z and -T_3 to z^3 + 3z."""
    assert A.den.is_constant and A.degree == 3
    a, b, c, e = (A.num.coeff(i) / A.den.coeff(0) for i in (3, 2, 1, 0))
    t = -b / (3 * a)
    p = 3 * a * t * t + 2 * b * t + c
    r = a * t**3 + b * t * t + c * t + e - t
    if r != 0:
        return 0
    return {Fraction(-3): 1, Fraction(3): -1}.get(p, 0)


def bivariate_transporter_candidates(a: RatMap, b: RatMap, sources, marks):
    """The rational w for which the degree-one map sending the sources to
    the marks followed by w, b(w), ... can solve mu o a = b o mu, by the
    transporter identity E(z, w) built in Q[z, w] with `BiPoly` arithmetic
    and the linear factors of its content in z.  The map is applied through
    its cross-ratio equation: M = mu(Z) solves
    det(M, T0) det(T1, T2) rd = det(M, T2) det(T1, T0) rn
    for rn / rd = det(Z, S0) det(S1, S2) / (det(Z, S2) det(S1, S0))."""

    def point(v):
        if v is INF:
            return BiPoly.constant(1), BiPoly.zero()
        return BiPoly.constant(v), BiPoly.constant(1)

    def apply(f, P):
        # f at the homogeneous point P, one BiPoly product at a time
        return [
            sum((P[0] ** i * P[1] ** (f.degree - i) * c for i, c in enumerate(p.c)), BiPoly.zero())
            for p in (f.num, f.den)
        ]

    def det(P, Q):
        return P[0] * Q[1] - P[1] * Q[0]

    S = [point(v) for v in sources]
    T = [point(v) for v in marks] + [(BiPoly.var_y(), BiPoly.constant(1))]
    while len(T) < 3:
        T.append(apply(b, T[-1]))

    def mu(Z):
        k1 = det(T[1], T[2]) * det(Z, S[2]) * det(S[1], S[0])
        k2 = det(T[1], T[0]) * det(Z, S[0]) * det(S[1], S[2])
        return T[0][0] * k1 - T[2][0] * k2, T[0][1] * k1 - T[2][1] * k2

    Ln, Ld = mu(apply(a, (BiPoly.var_x(), BiPoly.constant(1))))
    Rn, Rd = apply(b, mu((BiPoly.var_x(), BiPoly.constant(1))))
    E = Ln * Rd - Ld * Rn
    assert not E.is_zero
    g = E.content_x()
    facs = factor_univariate(g)[1] if g.degree >= 1 else []
    return sorted(-f.coeff(0) for f, _ in facs if f.degree == 1)


# ----------------------------------------------------------------------
# conjugacy transporters through the orbit of one base point, with no
# marked points: the reference for `mobius.conjugacy_transporters`


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


def _symbolic_transporter_candidates(a: RatMap, b: RatMap):
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


def symbolic_transporters(a: RatMap, b: RatMap):
    """All degree-one mu with mu o a = b o mu, through the orbit
    (z0, a(z0), a^2(z0)) -> (w, b(w), b^2(w)) alone.  w = mu(z0) is finite
    in the plain run, or else in the rerun with b conjugated by
    z -> 1/(z - c), which sends it to 1/(w - c); three values of c leave
    spares."""
    found = set()
    for ic in [RatMap.identity()] + [mobius(0, 1, 1, -c) for c in range(3)]:
        back = ic.mobius_inverse()
        bb = ic.compose(b).compose(back)
        z0, z1, z2, cands = _symbolic_transporter_candidates(a, bb)
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


def periodicity_by_images(C, A1: RatMap, A2: RatMap, max_n: int):
    """Least n <= max_n with the n-th image of C equal to C, following the
    forward orbit one eliminated image at a time."""
    cur = C
    for n in range(1, max_n + 1):
        cur = image_curve(cur, A1, A2)
        if cur == C:
            return n
    return None


def vanishes_on_parametrization(F: BiPoly, X1: RatMap, X2: RatMap) -> bool:
    """Whether F(X1(t), X2(t)) is identically zero: whether x - y divides
    the numerator of F(X1(x), X2(y))."""
    return (BiPoly.var_x() - BiPoly.var_y()).divides(substitute_maps(F, X1, X2))


def _contraction_data(M: RatMap, c: Fraction):
    """(r, kappa) certifying |M(c+h) - c| <= kappa |h| for |h| <= r, or None."""
    if M.den(c) == 0:
        return None
    lam = M.derivative()(c)
    if lam is INF or abs(lam) >= 1:
        return None
    num_s = M.num.taylor_shift(c)
    den_s = M.den.taylor_shift(c)
    # P(h) = num(c+h) - (c + lam h) den(c+h) has order >= 2 at h = 0
    P = num_s - den_s * UniPoly((c,)) - shift_up(den_s * lam, 1)
    assert P.coeff(0) == 0 and P.coeff(1) == 0
    q0 = abs(den_s.coeff(0))
    r0 = Fraction(1, 2)
    for _ in range(64):
        tail = sum(abs(den_s.coeff(i)) * r0**i for i in range(1, den_s.degree + 1))
        if tail <= q0 / 2:
            break
        r0 /= 2
    else:
        return None
    cbound = sum(abs(P.coeff(i)) * r0 ** (i - 2) for i in range(2, P.degree + 1)) / (q0 / 2)
    if cbound == 0:
        return r0, abs(lam)
    r = min(r0, (1 - abs(lam)) / (2 * cbound))
    return (r, abs(lam) + cbound * r) if abs(lam) + cbound * r < 1 else None


def _attracting_basins(A: RatMap):
    """(M, c, inverted, rho): inside |x - c| < rho the iterate M contracts
    towards its attracting rational fixed point c, and no other preimage of
    c lies that close, so a point there never lands on c nor returns; it is
    non-preperiodic.  `inverted` puts the data in the 1/z chart.  Periods
    up to 3, since a basin of an iterate certifies for the map."""
    configs = []
    max_period = 3 if A.degree == 2 else (2 if A.degree <= 4 else 1)
    for k in range(1, max_period + 1):
        Ak = A.iterate(k)
        fix = Ak.num - Ak.den * UniPoly.x()
        if not fix.is_zero and fix.degree >= 1:
            configs += [(Ak, c, False) for c in rational_roots(fix)]
        if Ak.value_at_infinity() is INF:
            configs.append((Ak.conjugate_by_inversion(), Fraction(0), True))
    basins = []
    for M, c, inverted in configs:
        data = _contraction_data(M, c)
        if data is None:
            continue
        rho = data[0]
        fiber = M.num - M.den * c
        if fiber.degree >= 1:
            for g, _mult in factor_univariate(fiber)[1]:
                if g != UniPoly((-c, 1)):
                    # a lower bound for the distance from c to the roots of g
                    shifted = g.taylor_shift(c)
                    c0 = abs(shifted.coeff(0))
                    height = max(abs(shifted.coeff(i)) for i in range(1, shifted.degree + 1))
                    rho = min(rho, c0 / (c0 + height))
        basins.append((c, inverted, rho))
    return basins


def _quadratic_point_within(m: UniPoly, c: Fraction, rho: Fraction) -> bool:
    """Whether some root of the monic quadratic m lies strictly within rho
    of c in the complex plane."""
    if m.coeff(1) ** 2 - 4 * m.coeff(0) < 0:
        # conjugate pair: m(c) is the squared distance
        return m(c) < rho * rho
    lo, hi = m(c - rho), m(c + rho)
    if lo * hi < 0:
        return True
    vertex = -m.coeff(1) / 2
    return lo > 0 and hi > 0 and abs(vertex - c) < rho and m(vertex) <= 0


def _basin_resolves(basins, p) -> bool:
    """Whether some point of the place p enters a certified basin ball."""
    if p.is_infinity:
        return False
    for c, inverted, rho in basins:
        m = p.minpoly
        if inverted:
            if m.coeff(0) == 0:
                continue
            m = m.reversed_to(m.degree) * (1 / m.coeff(0))
        val = m(c)
        if val == 0:
            continue
        if p.degree == 2:
            if _quadratic_point_within(m, c, rho):
                return True
        elif abs(val) < rho**m.degree:
            # m(c) is the product of the distances from c to the conjugates
            return True
    return False


def basin_postcritical_data(A: RatMap, place_cap: int = 64, height_cap: int = 10**150):
    """(cycles, preperiodic, unresolved) as `classify.postcritical_data`
    returns them, with wandering orbits retired only by attracting-basin
    balls; an orbit that reaches a place of naive height above height_cap
    stays unresolved."""
    basins = _attracting_basins(A)
    cycles, seen, preperiodic, dead, unresolved = [], set(), set(), set(), []
    for v in critical_values(A):
        orbit, index = [v], {v: 0}
        for _ in range(place_cap):
            head = orbit[-1]
            if head in preperiodic:
                preperiodic.update(orbit)
                break
            if head in dead or _basin_resolves(basins, head):
                dead.update(orbit)
                break
            if not head.is_infinity and max(
                max(abs(c.numerator), c.denominator) for c in head.minpoly.c
            ) > height_cap:
                unresolved.append(v)
                break
            w = image_place(A, head)
            if w in index:
                cyc = tuple(orbit[index[w]:])
                if frozenset(cyc) not in seen:
                    seen.add(frozenset(cyc))
                    cycles.append(cyc)
                preperiodic.update(orbit)
                break
            index[w] = len(orbit)
            orbit.append(w)
        else:
            unresolved.append(v)
    return cycles, preperiodic, unresolved


def _scan_tree(A: RatMap, cycle, m: int, preperiodic):
    """Backward value propagation from a cycle carrying m; None when no
    solution over the preperiodic set exists."""
    ram = {p: m for p in cycle}
    queue = list(cycle)
    while queue:
        w = queue.pop()
        for p in preimage_places(A, w):
            forced = ram[w] // gcd(local_degree(A, p), ram[w])
            if forced == 1:
                continue
            if p in ram:
                if ram[p] != forced:
                    return None
                continue
            if p not in preperiodic:
                return None
            ram[p] = forced
            queue.append(p)
    return Orbifold(ram)


def scan_maximal_orbifold(A: RatMap, nu_cap: int = 60):
    """`classify.maximal_orbifold` by trying every value 2..nu_cap on each
    cycle, keeping the propagated trees that pull back to themselves, and,
    when their join is bad, every value on each two-point subset of it.
    Values above nu_cap are missed, and an exceptional point (its own only
    preimage) gets the lcm of the values up to nu_cap coprime to its local
    degree."""
    if detect_power_conjugacy(A) is not None:
        raise NotDefined("maximal orbifold undefined for power-conjugate maps")
    if detect_chebyshev_conjugacy(A) is not None:
        raise NotDefined("maximal orbifold undefined for Chebyshev-conjugate maps")
    cycles, preperiodic, unresolved = postcritical_data(A)
    if unresolved:
        raise Inconclusive("postcritical orbit unresolved within the cap")
    join = Orbifold.trivial()
    for cyc in cycles:
        degs = [local_degree(A, p) for p in cyc]
        for m in range(2, nu_cap + 1):
            if any(gcd(m, d) != 1 for d in degs):
                continue
            tree = _scan_tree(A, cyc, m, preperiodic)
            if tree is not None and pullback(A, tree) == tree:
                join = join.join(tree)
    if join.is_trivial:
        return None
    if join.is_good():
        return join
    supp = join.support()
    pairs = [(p,) for p in supp if p.degree == 2]
    pairs += [(p, q) for i, p in enumerate(supp) for q in supp[i + 1:] if p.degree + q.degree == 2]
    best = None
    for pair in pairs:
        big = 1
        for m in range(2, nu_cap + 1):
            o = Orbifold({p: m for p in pair})
            if pullback(A, o) == o:
                big = big * m // gcd(big, m)
        if big > 1:
            if best is not None:
                raise TheoremViolation("incomparable maximal orbifolds")
            best = Orbifold({p: big for p in pair})
    return best


class _RatMapParser(_Parser):
    """The map grammar with every constant, variable, sum, product and
    power a reduced `RatMap`: one gcd at every step."""

    def degrees(self, value):
        return (value.degree,)

    def sum_degrees(self, terms):
        dens = sum(t.den.degree for t in terms)
        return (max(dens + max(t.num.degree - t.den.degree for t in terms), dens),)

    def constant(self, n):
        return RatMap.constant(n)

    def identifier(self, name, pos):
        if name == "z":
            return RatMap.identity()
        if name.startswith("T") and name[1:].isdigit():
            k = int(name[1:])
            if 1 <= k <= 12:
                return chebyshev(k)
        raise ParseError(f"unknown name {name!r}", position=pos)

    def compose(self, f, g):
        return f.compose(g)

    def iterate(self, f, k):
        return f.iterate(k)


def reference_parse_map(text: str) -> RatMap:
    """`parse_map` by `RatMap` arithmetic at every node."""
    value = _RatMapParser(text).parse()
    if not isinstance(value, RatMap):
        raise ParseError("expression did not produce a map")
    if value.den.is_zero:
        raise ParseError("denominator vanished")
    return value
