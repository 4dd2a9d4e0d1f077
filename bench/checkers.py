"""Independent answer checkers for the benchmark.

Nothing here imports ratdyn.  Maps are pairs ``(num, den)`` of coefficient
tuples of ``Fraction`` values, lowest degree first, and curves are dicts
``{(i, j): Fraction}`` for the monomial ``x^i y^j``.  Every check is exact:
an identity between rational functions is proved by evaluation at more
points than the degree bound allows a nonzero difference to vanish at.
"""

from __future__ import annotations

from fractions import Fraction

INF = "inf"  # the point at infinity of the projective line


# ----------------------------------------------------------------------
# polynomials and maps


def poly(*coeffs):
    """Coefficient tuple, lowest degree first, trailing zeros removed."""
    c = [Fraction(v) for v in coeffs]
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_degree(p) -> int:
    return len(poly(*p)) - 1


def poly_eval(p, x):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_add(p, q):
    n = max(len(p), len(q))
    return poly(*(
        (p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)
    ))


def poly_mul(p, q):
    if not p or not q:
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return poly(*out)


def poly_pow(p, n):
    out = (Fraction(1),)
    for _ in range(n):
        out = poly_mul(out, p)
    return out


def ratmap(num, den=(1,)):
    return (poly(*num), poly(*den))


def map_degree(f) -> int:
    return max(poly_degree(f[0]), poly_degree(f[1]))


def map_eval(f, x):
    """Value of f at a point of the projective line (INF allowed both ways);
    f must be in lowest terms."""
    num, den = f
    if x == INF:
        dn, dd = poly_degree(num), poly_degree(den)
        if dn > dd:
            return INF
        if dn < dd:
            return Fraction(0)
        return num[-1] / den[-1]
    n, d = poly_eval(num, x), poly_eval(den, x)
    if d == 0:
        if n == 0:
            raise ValueError("map is not in lowest terms")
        return INF
    return n / d


def compose(f, g):
    """f o g from the homogeneous forms; lowest terms in, lowest terms out
    (the forms of f o g have degree deg f * deg g and no common root)."""
    m = map_degree(f)
    gn, gd = g
    num, den = (), ()
    for i in range(m + 1):
        cross = poly_mul(poly_pow(gn, i), poly_pow(gd, m - i))
        a = f[0][i] if i < len(f[0]) else 0
        b = f[1][i] if i < len(f[1]) else 0
        num = poly_add(num, tuple(a * v for v in cross))
        den = poly_add(den, tuple(b * v for v in cross))
    return (num, den)


def chain_eval(chain, x):
    """Apply the maps of chain in order: chain = [f1, f2] gives f2(f1(x))."""
    for f in chain:
        x = map_eval(f, x)
    return x


def chain_degree(chain) -> int:
    d = 1
    for f in chain:
        d *= map_degree(f)
    return d


def sample_points(count):
    """count distinct rationals 0, 1, -1, 2, -2, 1/2, ..."""
    out = []
    k = 0
    while len(out) < count:
        k += 1
        for v in (Fraction(k - 1), Fraction(-(k - 1)), Fraction(1, k + 1), Fraction(-1, k + 1)):
            if v not in out:
                out.append(v)
    return out[:count]


def identity_holds(lhs, rhs) -> bool:
    """Proof that the compositions lhs and rhs (lists of maps, innermost
    first) are the same rational function: two distinct maps of degree at
    most D agree at no more than 2D points of the line."""
    bound = max(chain_degree(lhs), chain_degree(rhs))
    for t in sample_points(2 * bound + 1):
        if chain_eval(lhs, t) != chain_eval(rhs, t):
            return False
    return True


def chebyshev(n: int):
    """T_n by the recurrence T_{k+1} = 2 z T_k - T_{k-1}."""
    a, b = poly(1), poly(0, 1)
    for _ in range(n - 1):
        a, b = b, poly_add(poly_mul(poly(0, 2), b), tuple(-c for c in a))
    return b if n >= 1 else a


# ----------------------------------------------------------------------
# Moebius maps as integer or rational matrices (a, b, c, d): (a z + b)/(c z + d)


def mobius_map(m):
    a, b, c, d = m
    if a * d - b * c == 0:
        raise ValueError("degenerate Moebius matrix")
    return ratmap((b, a), (d, c))


def mobius_inverse(m):
    a, b, c, d = m
    return (d, -b, -c, a)


def mobius_compose(m, n):
    """Matrix of m o n."""
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def transport_points(m, points):
    """Images of points (Fraction or INF) under the Moebius matrix m."""
    f = mobius_map(m)
    return {map_eval(f, p) for p in points}


# ----------------------------------------------------------------------
# orbifolds, the genus gate and the Chebyshev cubic test


def chi(entries) -> Fraction:
    """Euler characteristic 2 - sum deg(p) (1 - 1/nu(p)) over entries
    (geometric degree of the place, value)."""
    total = Fraction(2)
    for degree, nu in entries:
        total -= degree * (1 - Fraction(1, nu))
    return total


def genus_gate(n: int, m: int, g: int) -> bool:
    """g > (m - 84 n + 168) / 84, decided over the integers."""
    return 84 * g > m - 84 * n + 168


def is_pm_t3_cubic(p) -> bool:
    """Whether the monic cubic p is affinely conjugate to T_3 or -T_3.

    Conjugating by the translation w = z + a/3 brings z^3 + a z^2 + b z + c
    to w^3 + P w + Q; the only affine conjugations keeping it monic and
    centred are w -> +-w, which fix P and flip Q.  T_3 and -T_3 centre to
    w^3 - 3w and w^3 + 3w."""
    p = poly(*p)
    if len(p) != 4 or p[3] != 1:
        raise ValueError("expected a monic cubic")
    c, b, a = p[0], p[1], p[2]
    big_p = b - a * a / 3
    big_q = 2 * a**3 / 27 - a * b / 3 + c + a / 3
    return big_q == 0 and big_p in (-3, 3)


# ----------------------------------------------------------------------
# curves in the product of two lines


def curve(terms):
    return {(int(i), int(j)): Fraction(v) for (i, j), v in dict(terms).items() if Fraction(v) != 0}


def bidegree(C):
    return (max(i for i, _ in C), max(j for _, j in C))


def curve_eval(C, x, y):
    return sum(v * x**i * y**j for (i, j), v in C.items())


def vanishes_on(C, X1, X2) -> bool:
    """Proof that C(X1(t), X2(t)) = 0: after clearing denominators it is a
    polynomial in t of degree at most dx deg X1 + dy deg X2, checked at one
    more point than that where both coordinates are finite."""
    if not C:
        return False
    dx, dy = bidegree(C)
    need = dx * map_degree(X1) + dy * map_degree(X2) + 1
    found = 0
    for t in sample_points(need + map_degree(X1) + map_degree(X2) + 2):
        x, y = map_eval(X1, t), map_eval(X2, t)
        if x == INF or y == INF:
            continue
        if curve_eval(C, x, y) != 0:
            return False
        found += 1
        if found == need:
            return True
    raise ValueError("too few finite sample points")


def normalized(C):
    """C scaled so that its lexicographically largest monomial has
    coefficient one; equal results mean equal curves up to a scalar."""
    lead = C[max(C)]
    return {k: v / lead for k, v in C.items()}


def _substitute(C, m, var):
    """C with var replaced by the Moebius image (a v + b)/(c v + d),
    denominators cleared to stay polynomial of the same bidegree."""
    a, b, c, d = m
    top = bidegree(C)[var]
    out = {}
    numer, denom = poly(b, a), poly(d, c)
    for (i, j), v in C.items():
        e = (i, j)[var]
        factor = poly_mul(poly_pow(numer, e), poly_pow(denom, top - e))
        for k, w in enumerate(factor):
            key = (k, j) if var == 0 else (i, k)
            out[key] = out.get(key, Fraction(0)) + v * w
    return {k: v for k, v in out.items() if v != 0}


def pullback_y(C, m):
    """The curve {(x, y) : (x, m(y)) in C}, as a polynomial."""
    return _substitute(C, m, 1)


def pullback_xy(C, m):
    """The curve {(x, y) : (m(x), m(y)) in C}."""
    return _substitute(_substitute(C, m, 0), m, 1)


def graph_curve(f):
    """y = f(x) as the polynomial y den(x) - num(x)."""
    num, den = f
    out = {}
    for i, v in enumerate(den):
        if v:
            out[(i, 1)] = out.get((i, 1), Fraction(0)) + v
    for i, v in enumerate(num):
        if v:
            out[(i, 0)] = out.get((i, 0), Fraction(0)) - v
    return {k: v for k, v in out.items() if v != 0}


def swap(C):
    return {(j, i): v for (i, j), v in C.items()}


def same_curve_sets(got, want) -> bool:
    """Equality of two collections of curves up to nonzero scalars."""
    key = lambda C: tuple(sorted(normalized(C).items()))  # noqa: E731
    return sorted(map(key, got)) == sorted(map(key, want))
