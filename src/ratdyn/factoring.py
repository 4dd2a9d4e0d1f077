"""Exact polynomial factorization over the rationals.

Univariate: Yun squarefree decomposition, then Zassenhaus on each
squarefree primitive integer polynomial.  A quadratic is decided by its
discriminant: a non-square proves it irreducible, and a square gives a
rational root whose linear factor is certified by exact division.  Higher
degrees are factored modulo one good odd prime: up to four primes are
compared by their distinct-degree factorizations alone, which give the
number and degrees of the modular factors, and only the prime kept is split
by equal-degree factorization (Cantor and Zassenhaus, Math. Comp. 1981);
then Hensel lifting past twice the Mignotte bound and recombination by
subset search, where a subset whose values at 0 and 1 cannot divide the
polynomial's is rejected before any trial division.  Rational roots need
no factoring: the roots mod one good prime are Newton-lifted p-adically
and certified by exact integer evaluation.

Bivariate: content/primitive split in x, squarefree reduction over Q(y),
then specialization at the smallest good integer y0, lifting the
univariate factors y-adically, and subset recombination with an exact
divisibility certificate.  The lifting works in tau = y - y0 mod tau^K,
one order of tau at a time against partial products kept order by order,
and returns `BiPoly` factors in (x, tau); a candidate is their product
truncated by `BiPoly.trunc_y`, read back with `shift_y(-y0)`.

Both recombinations run one subset search, `_recombine`, with a `split`
closure that tries a subset.  The search is capped; hitting the cap raises
Inconclusive rather than silently truncating.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import isqrt

from .bipolys import BiPoly, squarefree_reduction_x
from .errors import Inconclusive, PreconditionError, TheoremViolation
from .intpoly import (
    _centered,
    _m_add,
    _m_deriv,
    _m_divmod,
    _m_gcd,
    _m_monic,
    _m_mod,
    _m_mul,
    _m_pow_mod,
    _m_sub,
    _m_value,
    _m_xgcd,
    _next_prime,
    _z_exact_div,
    _z_mul,
    _z_primitive,
    _z_value,
)
from .memo import memo
from .polynomials import UniPoly

SUBSET_CAP = 1 << 16

# ----------------------------------------------------------------------
# factorization over GF(p), p odd


def _gf_ddf(f, p):
    """Distinct-degree factorization of a monic squarefree f over GF(p):
    [(g, d)] with g the product of the irreducible factors of degree d,
    so g holds deg g / d of them."""
    pieces = []
    h = [0, 1]
    v = list(f)
    d = 0
    while len(v) - 1 >= 2 * (d + 1):
        d += 1
        h = _m_pow_mod(h, p, v, p)
        g = _m_gcd(_m_sub(h, [0, 1], p), v, p)
        if len(g) > 1:
            pieces.append((g, d))
            v = _m_divmod(v, g, p)[0]
            h = _m_divmod(h, v, p)[1]
    if len(v) > 1:
        pieces.append((v, len(v) - 1))
    return pieces


def _gf_edf(f, d, p, rng):
    n = len(f) - 1
    if n == d:
        return [f]
    exponent = (p**d - 1) // 2
    while True:
        r = [rng.randrange(p) for _ in range(n)] + [1]
        h = _m_pow_mod(r, exponent, f, p)
        g = _m_gcd(_m_sub(h, [1], p), f, p)
        if 1 < len(g) < len(f):
            return _gf_edf(g, d, p, rng) + _gf_edf(_m_divmod(f, g, p)[0], d, p, rng)


# ----------------------------------------------------------------------
# Hensel lifting; the exponent is a power of two so every quadratic step
# stays inside exactly known precision


def _hensel_step(m, f, g, h, s, t):
    """Quadratic step: from f = g*h, s*g + t*h = 1 (mod m, h monic) to the
    same congruences mod m*m."""
    mm = m * m
    e = _m_mod(_m_sub(_m_mod(f, mm), _z_mul(g, h), mm), mm)
    q, r = _m_divmod(_m_mul(s, e, mm), h, mm)
    u = _m_add(_m_mul(t, e, mm), _m_mul(q, g, mm), mm)
    gg = _m_mod(_m_add(g, u, mm), mm)
    hh = _m_mod(_m_add(h, r, mm), mm)
    u = _m_add(_m_mul(s, gg, mm), _m_mul(t, hh, mm), mm)
    b = _m_mod(_m_sub(u, [1], mm), mm)
    c, d = _m_divmod(_m_mul(s, b, mm), hh, mm)
    u = _m_add(_m_mul(t, b, mm), _m_mul(c, gg, mm), mm)
    ss = _m_mod(_m_sub(s, d, mm), mm)
    tt = _m_mod(_m_sub(t, u, mm), mm)
    return gg, hh, ss, tt


def _hensel_lift(p, f_mod, factors, l):
    """Lift monic GF(p) factors whose product is monic-normalized f_mod to
    monic factors mod p**l (l a power of two); f_mod is exact mod p**l."""
    target = p**l
    if len(factors) == 1:
        inv = pow(f_mod[-1] % target, -1, target)
        return [_m_mod([v * inv for v in f_mod], target)]
    k = len(factors) // 2
    g = [f_mod[-1] % p]
    for fac in factors[:k]:
        g = _m_mul(g, fac, p)
    h = [1]
    for fac in factors[k:]:
        h = _m_mul(h, fac, p)
    s, t = _m_xgcd(g, h, p)
    g, h, s, t = (_centered(c, p) for c in (g, h, s, t))
    m = p
    while m < target:
        g, h, s, t = _hensel_step(m, f_mod, g, h, s, t)
        m *= m
        g, h, s, t = (_centered(c, m) for c in (g, h, s, t))
    return _hensel_lift(p, _m_mod(g, target), factors[:k], l) + _hensel_lift(
        p, _m_mod(h, target), factors[k:], l
    )


# ----------------------------------------------------------------------
# Zassenhaus over the integers


def _degree_subset_sums(degrees, n):
    """Achievable factor degrees from combining modular pieces."""
    possible = 1  # bitmask
    for d in degrees:
        possible |= possible << d
    return {k for k in range(n + 1) if possible >> k & 1}


def _good_primes(f):
    """Yield (p, f mod p made monic) for the odd primes p that divide no
    leading coefficient of the squarefree integer polynomial f and keep it
    squarefree mod p; only the finitely many primes dividing lc(f) times
    its discriminant are skipped."""
    p = 2
    while True:
        p = _next_prime(p)
        if f[-1] % p == 0:
            continue
        fp = _m_monic([v % p for v in f], p)
        if len(_m_gcd(fp, _m_deriv(fp, p), p)) == 1:
            yield p, fp


def _pick_modular(f):
    """(p, modular factors, possible factor degrees) for a good odd prime.
    Primes are compared by their distinct-degree factorizations alone,
    which give the number and degrees of the modular factors; the degree
    set is intersected over the primes tried, so a {0, n} result certifies
    irreducibility without any lifting.  Only the kept prime, the first
    with strictly fewest factors, is split by equal-degree factorization."""
    n = len(f) - 1
    best = None
    possible = None
    for tried, (p, fp) in enumerate(_good_primes(f), 1):
        pieces = _gf_ddf(fp, p)
        degrees = [d for g, d in pieces for _ in range((len(g) - 1) // d)]
        sums = _degree_subset_sums(degrees, n)
        possible = sums if possible is None else (possible & sums)
        if best is None or len(degrees) < best[0]:
            best = (len(degrees), p, pieces)
        if len(degrees) == 1 or possible <= {0, n} or tried == 4:
            break
    _, p, pieces = best
    rng = random.Random(20240801)
    modular = [fac for g, d in pieces for fac in _gf_edf(g, d, p, rng)]
    modular.sort(key=lambda c: (len(c), c))
    return p, modular, possible


def _split_quadratic(f):
    """The factors of a squarefree primitive integer quadratic, decided by
    its discriminant: a non-square proves it irreducible; a square gives a
    rational root, whose linear factor divides f exactly."""
    c, b, a = f
    disc = b * b - 4 * a * c
    if disc < 0 or isqrt(disc) ** 2 != disc:
        return [list(f)]
    s = isqrt(disc)
    # the root (s - b) / 2a: the linear factor 2a z + b - s, made primitive
    # with a positive leading coefficient
    g = _z_primitive([b - s, 2 * a] if a > 0 else [s - b, -2 * a])
    q = _z_exact_div(f, g)
    if q is None:
        raise TheoremViolation("a rational root's linear factor did not divide the quadratic")
    return [g, q if q[-1] > 0 else [-v for v in q]]


def _zassenhaus(f):
    """The primitive irreducible integer factors of a squarefree primitive
    integer polynomial of degree >= 1."""
    n = len(f) - 1
    if n == 1:
        return [list(f)]
    if n == 2:
        return _split_quadratic(f)
    p, modular, possible = _pick_modular(f)
    if len(modular) == 1 or possible <= {0, n}:
        return [list(f)]
    height = max(abs(v) for v in f)
    bound = (isqrt(n + 1) + 1) * (1 << n) * height * abs(f[-1])
    l = 1
    while p**l <= 2 * bound:
        l *= 2
    target = p**l
    lifted = _hensel_lift(p, _m_mod(f, target), modular, l)
    result = []
    current = list(f)
    at_zero = [h[0] for h in lifted]
    at_one = [sum(h) % target for h in lifted]

    def split(combo):
        nonlocal current
        if sum(len(lifted[i]) - 1 for i in combo) not in possible:
            return False
        # below the bound the centred product of a true factor g is exactly
        # (lc current / lc g) * g, and the bound covers its 1-norm, so its
        # values at 0 and 1 are nonzero divisors of lc(current) times
        # current's values there, wherever those are nonzero
        lc = current[-1]
        for values, value in ((at_zero, current[0]), (at_one, sum(current))):
            if value:
                c = lc
                for i in combo:
                    c = c * values[i] % target
                if c > target // 2:
                    c -= target
                if c == 0 or lc * value % c:
                    return False
        g = [lc % target]
        for i in combo:
            g = _m_mul(g, lifted[i], target)
        g = _z_primitive(_centered(g, target))
        # g and current are primitive, so by Gauss's lemma g divides
        # current over Q exactly when it does over Z
        q = _z_exact_div(current, g)
        if q is None:
            return False
        result.append(g)
        current = q if q[-1] > 0 else [-v for v in q]
        return True

    _recombine(len(lifted), split, "factor recombination exceeded the subset cap")
    if len(current) > 1:
        result.append(current)
    return result


def _recombine(count, split, message):
    """Zassenhaus's subset search over the lifted factors 0 .. count - 1.
    Subsets of the pool are visited by size s = 1, 2, ... while 2 s is at
    most the pool's size; split(combo) tries a subset and returns True when
    it split off a factor, whose members then leave the pool, and the
    search tries size s again.  More than SUBSET_CAP visits raise
    Inconclusive(message) rather than silently truncating."""
    pool = list(range(count))
    visited = 0
    s = 1
    while 2 * s <= len(pool):
        for combo in itertools.combinations(pool, s):
            visited += 1
            if visited > SUBSET_CAP:
                raise Inconclusive(message)
            if split(combo):
                pool = [i for i in pool if i not in combo]
                break
        else:
            s += 1


# ----------------------------------------------------------------------
# public univariate interface


@memo
def factor_univariate(p: UniPoly):
    """Complete factorization over Q: (content, [(monic irreducible, mult)])
    with p = content * prod g**m, factors sorted canonically."""
    if p.is_zero:
        raise PreconditionError("cannot factor the zero polynomial")
    if p.degree < 1:
        return p.lc, []
    return p.lc, _monic_factors(p)


def _monic_factors(p: UniPoly):
    """[(monic irreducible, mult)] of a p of degree >= 1, sorted canonically.
    Strips the power of z, then runs Zassenhaus on the primitive part of
    each squarefree (Yun) part."""
    out = []
    work = p.monic()
    k = 0
    while not work.nums[k]:
        k += 1
    if k:
        out.append((UniPoly.x(), k))
        work = UniPoly._of(list(work.nums[k:]), work.denom)
    for sqf, mult in work.yun_decomposition():
        _, zz = sqf.content_and_primitive()
        for fac in _zassenhaus(list(zz.nums)):
            out.append((UniPoly._of(list(fac), fac[-1]), mult))
    out.sort(key=lambda fm: (fm[0].degree, fm[0].c))
    return out


def is_irreducible(p: UniPoly) -> bool:
    if p.degree < 1:
        return False
    _, facs = factor_univariate(p)
    return len(facs) == 1 and facs[0][1] == 1


def rational_roots(p: UniPoly):
    """All rational roots, without multiplicity, sorted.

    By p-adic lifting, without factoring (Loos, SIAM J. Comput. 1983).  For
    f the squarefree primitive integer part of p and q its first good prime,
    a root a/b in lowest terms has b | lc(f), so it is a simple root of f
    mod q.  Each root of gcd(f, x^q - x) mod q is Newton-lifted past
    2 |lc(f)| height(f) >= 2 |lc(f) a / b|, so the centred lift of lc(f) r
    is lc(f) a / b.  Candidates are certified by sum f_i a^i b^(n-i) = 0."""
    if p.is_zero:
        raise PreconditionError("the zero polynomial has every point as a root")
    if p.degree < 1:
        return []
    f = list(p.squarefree_part().content_and_primitive()[1].nums)
    q, fq = next(_good_primes(f))
    split = _m_gcd(_m_sub(_m_pow_mod([0, 1], q, fq, q), [0, 1], q), fq, q)
    if len(split) == 1:
        return []
    lc, df = f[-1], [i * v for i, v in enumerate(f)][1:]
    bound = 2 * abs(lc) * max(abs(v) for v in f)
    roots = []
    for lin in _gf_edf(split, 1, q, random.Random(20240801)):
        r, m = -lin[0] % q, q
        while m <= bound:
            m *= m
            r = (r - _m_value(f, r, m) * pow(_m_value(df, r, m), -1, m)) % m
        c = lc * r % m
        root = Fraction(c - m if c > m // 2 else c, lc)
        if _z_value(f, root.numerator, root.denominator) == 0:
            roots.append(root)
    return sorted(roots)


# ----------------------------------------------------------------------
# bivariate factorization


@memo
def factor_bivariate(F: BiPoly):
    """Complete factorization over Q: (unit, [(canonical irreducible BiPoly,
    multiplicity)]) with F = unit * prod f**m."""
    if F.is_zero:
        raise PreconditionError("cannot factor the zero polynomial")
    if F.deg_x <= 0 and F.deg_y <= 0:
        return F.terms.get((0, 0), Fraction(0)), []
    factors = []
    if F.deg_x == 0:
        _, facs = factor_univariate(F.coeffs_in_x()[0])
        factors = [(BiPoly.from_unipoly(g, "y").canonical(), m) for g, m in facs]
        factors.sort(key=_bi_sort_key)
        return _unit_for(F, factors), factors
    if F.deg_y == 0:
        _, facs = factor_univariate(F.eval_y(0))
        factors = [(BiPoly.from_unipoly(g, "x").canonical(), m) for g, m in facs]
        factors.sort(key=_bi_sort_key)
        return _unit_for(F, factors), factors
    cont = F.content_x()
    prim = F.primitive_part_x()
    if cont.degree >= 1:
        _, cfacs = factor_univariate(cont)
        for g, m in cfacs:
            factors.append((BiPoly.from_unipoly(g, "y").canonical(), m))
    sf = squarefree_reduction_x(prim)
    irrs = _factor_squarefree_bi(sf.primitive_part_x().canonical())
    if sf is prim:  # squarefree: every multiplicity is 1
        factors += [(irr, 1) for irr in irrs]
    else:
        # divide the cofactor down, dividing by irr again only while the
        # degrees leave room for it beside the factors still to come
        rx, ry = sum(f.deg_x for f in irrs), sum(f.deg_y for f in irrs)
        for irr in irrs:
            rx, ry, mult, q = rx - irr.deg_x, ry - irr.deg_y, 0, prim.exact_div(irr)
            while q is not None:
                prim, mult = q, mult + 1
                room = prim.deg_x - rx >= irr.deg_x and prim.deg_y - ry >= irr.deg_y
                q = prim.exact_div(irr) if room else None
            if mult == 0:
                raise PreconditionError("squarefree factor does not divide the input")
            factors.append((irr, mult))
    factors.sort(key=_bi_sort_key)
    return _unit_for(F, factors), factors


def _bi_sort_key(fm):
    f = fm[0] if isinstance(fm, tuple) else fm
    return (f.deg_x + f.deg_y, f.deg_x, sorted(f.terms.items()))


def _unit_for(F, factors):
    """F over the product of the factors, from leading terms alone: the order
    of `leading_term_key` is a monomial order, so the product's leading
    exponents are the factors' times their multiplicities, summed."""
    i = j = 0
    pv = Fraction(1)
    for f, m in factors:
        fi, fj = f.leading_term_key()
        i, j = i + m * fi, j + m * fj
        pv *= f.terms[(fi, fj)] ** m
    if F.leading_term_key() != (i, j):
        raise PreconditionError("factorization lost the leading term")
    return F.terms[(i, j)] / pv


def bi_is_irreducible(F: BiPoly) -> bool:
    _, facs = factor_bivariate(F)
    return len(facs) == 1 and facs[0][1] == 1


def _factor_squarefree_bi(G: BiPoly):
    """Irreducible canonical factors of a squarefree, x-primitive BiPoly
    with deg_x >= 1."""
    if G.deg_x == 1:
        return [G.canonical()]
    lcx = G.coeffs_in_x()[-1]
    for a in range(41 + 4 * (G.deg_y + 1)):
        y0 = Fraction(a)
        if lcx(y0) != 0:
            slice0 = G.eval_y(y0)
            if slice0.degree == G.deg_x and slice0.is_squarefree():
                break
    else:
        raise Inconclusive("no squarefree specialization point found")
    _, ufacs = factor_univariate(slice0)
    base = [f for f, _ in ufacs]
    if len(base) == 1:
        return [G.canonical()]
    rows = G.shift_y(y0).coeffs_in_x()
    K = G.deg_y + max(lcx.degree, 0) + 1
    inv_lc = rows[-1].inv_trunc(K)
    ghat = [c.mul_trunc(inv_lc, K) for c in rows]
    lifted = _bi_hensel(ghat, base, K)
    out = []
    current = G
    lc_now = BiPoly.from_unipoly(rows[-1], "y")

    def split(combo):
        nonlocal current, lc_now
        prod = lc_now
        for i in combo:
            prod = (prod * lifted[i]).trunc_y(K)
        cand = prod.shift_y(-y0).primitive_part_x().canonical()
        if cand.deg_x < 1:
            return False
        q = current.exact_div(cand)
        if q is None:
            return False
        out.append(cand)
        current = q.primitive_part_x().canonical()
        lc_now = BiPoly.from_unipoly(current.coeffs_in_x()[-1].taylor_shift(y0), "y")
        return True

    _recombine(len(lifted), split, "bivariate recombination exceeded the subset cap")
    if current.deg_x >= 1:
        out.append(current.primitive_part_x().canonical())
    return out


def _bi_hensel(ghat, base, K):
    """Lift pairwise coprime monic univariate factors (product = ghat at
    tau = 0) to monic x-polynomials mod tau**K, as BiPolys in (x, tau).

    Linear lifting, one order of tau at a time (von zur Gathen and Gerhard,
    *Modern Computer Algebra*, section 15.4), on the coefficients of tau^t,
    which are polynomials in x.  The partial products L_j = F_1 ... F_j are
    kept order by order, so the error at order k comes from the order-k
    parts alone: O(r k) products of polynomials in x per order, with no
    product of the factors to full precision."""
    r = len(base)
    partials = []
    for i in range(r):
        P = UniPoly.one()
        for j in range(r):
            if j != i:
                P = P * base[j]
        g, _, v = base[i].xgcd(P)
        if g.degree != 0:
            raise PreconditionError("specialization factors are not coprime")
        partials.append(v)
    zero = UniPoly.zero()
    want = BiPoly.from_coeffs_in_x(ghat).coeffs_in_y()
    # F[j][t] and L[j][t]: coefficients of tau^t in F_(j+1) and in L_j
    F = [[b] for b in base]
    L = [[UniPoly.one()] + [zero] * (K - 1)]
    for b in base:
        L.append([L[-1][0] * b])
    for k in range(1, K):
        # S[j]: the order-k part of L_(j+1) that involves neither
        # L[j][k] nor F[j][k]
        S = []
        have = zero
        for j in range(r):
            acc = zero
            for t in range(1, k):
                a, f = L[j][t], F[j][k - t]
                if a and f:
                    acc = acc + a * f
            S.append(acc)
            have = acc + have * base[j]
        err = (want[k] if k < len(want) else zero) - have
        have = zero
        for j in range(r):
            delta = (err * partials[j]) % base[j] if err else zero
            F[j].append(delta)
            have = S[j] + have * base[j] + L[j][0] * delta
            L[j + 1].append(have)
    return [BiPoly.from_coeffs_in_x(Fj).swap() for Fj in F]
