"""Dense polynomials over Z and Z/p as int lists, lowest degree first.

This is the integer kernel under `UniPoly` and `BiPoly` and, through
them, under `series` and `factoring`.  `UniPoly` and `BiPoly` store
integer numerators over one common denominator and call the kernel on
them directly; `to_ints` and `from_ints` convert `Fraction` coefficients
at the edges (constructors and the `.c` view).  Every operation is plain
`int` arithmetic:

* Z/m arithmetic (`_m_*`) for factoring and for modular images;
* integer convolution, full and truncated at t^k, the truncated series
  inverse over one denominator (`_z_inv_trunc`), and exact integer
  division that stops at the first non-integral quotient and updates only
  at the divisor's nonzero entries; `BiPoly` makes every product and exact
  quotient one call of these on Kronecker images, mostly zero padding;
* homogenised substitution sum p[i] r^i s^(m-i), by Horner's rule in r
  over one table of the powers of s (`_z_homogenize`), under map
  composition and every other `UniPoly` substitution;
* division over Q of integer polynomials, scaling by the divisor's
  leading coefficient only when a quotient is not integral;
* Lagrange interpolation of several columns of values at shared nodes;
* a modular gcd (Brown 1971; von zur Gathen and Gerhard, *Modern Computer
  Algebra*, ch. 6) whose every answer is certified: by a prime, dividing
  neither leading coefficient, at which the inputs are coprime, or by
  exact division of both inputs;
* the resultant along the subresultant remainder sequence, whose
  divisions are all exact over Z.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import PreconditionError

# ----------------------------------------------------------------------
# conversion between Fraction coefficients and integer numerators


def _frac(n: int, d: int) -> Fraction:
    """The Fraction n/d for coprime n and d > 0, built without renormalising
    (as `Fraction`'s own arithmetic builds its results)."""
    f = object.__new__(Fraction)
    f._numerator = n
    f._denominator = d
    return f


def _q(n: int, d: int) -> Fraction:
    """The reduced Fraction n/d for d != 0."""
    if d < 0:
        n, d = -n, -d
    g = gcd(n, d)
    if g != 1:
        n //= g
        d //= g
    return _frac(n, d)


def to_ints(coeffs):
    """(nums, den) with coeffs[i] == nums[i] / den and den > 0 the least
    common denominator."""
    den = 1
    for v in coeffs:
        d = v.denominator
        if d != 1 and den % d:
            den = den * d // gcd(den, d)
    if den == 1:
        return [v.numerator for v in coeffs], 1
    return [v.numerator * (den // v.denominator) for v in coeffs], den


def from_ints(nums, den: int = 1) -> tuple:
    """The tuple of reduced Fractions nums[i] / den, for den != 0."""
    if den == 1:
        return tuple([_frac(v, 1) for v in nums])
    return tuple([_q(v, den) for v in nums])


# ----------------------------------------------------------------------
# integer polynomials


def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _z_primitive(a):
    g = gcd(*a)
    if g <= 1:
        return list(a)
    return [v // g for v in a]


def _z_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b, i):
                out[j] += ai * bj
    return _trim(out)


def _z_mul_trunc(a, b, k):
    """The first k coefficients of a*b, zero-padded to length k."""
    out = [0] * k
    for i, ai in enumerate(a[:k]):
        if ai:
            for j, bj in enumerate(b[: k - i], i):
                out[j] += ai * bj
    return out


def _z_inv_trunc(a, k):
    """(ints, den) with 1 / sum(a[i] t^i) = sum(ints[i] t^i) / den mod t^k,
    for an integer series a with a[0] != 0 and k >= 1.  With c = a[0] the
    inverse is sum w_i t^i / c^(i+1), where w_0 = 1 and
    w_i = -sum_j a[j] c^(j-1) w_(i-j); over den = c^k, ints[i] = w_i c^(k-1-i)."""
    c = a[0]
    n = min(len(a), k)
    b = [0] * n
    cj = 1
    for j in range(1, n):
        b[j] = a[j] * cj
        cj *= c
    w = [1] + [0] * (k - 1)
    for i in range(1, k):
        acc = 0
        for j in range(1, min(i, n - 1) + 1):
            acc += b[j] * w[i - j]
        w[i] = -acc
    ck = 1
    for i in range(k - 1, -1, -1):
        w[i] *= ck
        ck *= c
    return w, ck


def _z_value(a, p, q=1):
    """sum a_i p^i q^(n-i) for a nonzero a of degree n: the integer
    q^n a(p/q), by Horner's rule on the homogenised numerators."""
    acc = a[-1]
    if q == 1:
        for v in reversed(a[:-1]):
            acc = acc * p + v
        return acc
    qk = 1
    for v in reversed(a[:-1]):
        qk *= q
        acc = acc * p + v * qk
    return acc


def _z_homogenize(rows, r, s, m):
    """[sum_i p[i] r^i s^(m-i) for p in rows], for integer polynomials r, s
    and trimmed rows p of degree at most m: Horner's rule in r on each row
    homogenised to degree m, over one table of the powers of s."""
    sp = [[1]]
    for _ in range(m):
        sp.append(_z_mul(sp[-1], s))
    out = []
    for p in rows:
        d = len(p) - 1
        acc = []
        for i in range(d, -1, -1):
            acc = _z_mul(acc, r)
            if p[i]:
                t = sp[d - i]
                acc += [0] * (len(t) - len(acc))
                for k, v in enumerate(t):
                    acc[k] += p[i] * v
        out.append(_trim(_z_mul(acc, sp[m - d]) if 0 <= d < m else acc))
    return out


def _z_interpolate(nodes, values):
    """(cols, den) with cols[k] / den the interpolant of least degree of
    column k, for distinct nodes p_i/q_i given as pairs (p_i, q_i) with
    q_i > 0, and values[i] = (nums, d) holding nums[k] / d, the value of
    column k at node i.  cols is a fresh list of int lists; den > 0.

    With W the integer polynomial prod (q_j z - p_j), the basis polynomial of
    node i is L_i(z) / L_i(p_i/q_i) for the exact integer quotient
    L_i = W / (q_i z - p_i), and q_i^(n-1) L_i(p_i/q_i) is the integer
    D_i = prod_{j != i} (q_j p_i - p_j q_i).  W, each L_i and each D_i are
    built once for all columns, and every column is summed over one
    denominator, the lcm of the d_i D_i."""
    m = len(nodes) - 1
    used = []
    den = 1
    for i, (p, q) in enumerate(nodes):
        nums, d = values[i]
        if not any(nums):
            continue
        D = 1
        for j, (pj, qj) in enumerate(nodes):
            if j != i:
                D *= qj * p - pj * q
        if D == 0:
            raise ZeroDivisionError("interpolation points share an x value")
        used.append((i, d * D))
        den = lcm(den, d * D)
    W = [1]
    for p, q in nodes:
        W = _z_mul(W, (-p, q))
    cols = [[0] * (m + 1) for _ in range(max((len(nums) for nums, _ in values), default=0))]
    for i, s in used:
        p, q = nodes[i]
        L = _z_exact_div(W, [-p, q])
        scale = den // s * q**m
        for col, v in zip(cols, values[i][0]):
            if v:
                t = v * scale
                for k, c in enumerate(L):
                    col[k] += t * c
    return cols, den


def _z_exact_div(a, b):
    """The integer polynomial a / b, or None when b does not divide a in
    Z[x]; gives up at the first quotient coefficient that is not an integer.
    b must be nonzero and trimmed.  The updates run over the nonzero
    entries of b alone, so the padding of a Kronecker image costs nothing."""
    nb = len(b)
    dq = len(a) - nb
    if dq < 0:
        return None if a else []
    if b[0] and a[0] % b[0]:
        return None
    lb = b[-1]
    low = [(j, v) for j, v in enumerate(b[:-1]) if v]
    r = list(a)
    q = [0] * (dq + 1)
    for k in range(dq, -1, -1):
        top = r[k + nb - 1]
        if top:
            c, rem = divmod(top, lb)
            if rem:
                return None
            q[k] = c
            for j, v in low:
                r[k + j] -= c * v
    if any(r[: nb - 1]):
        return None
    return q


def _z_divmod(a, b):
    """Division over Q of integer polynomials: (q, r, s) with s*a = q*b + r,
    deg r < deg b and s a power of lc(b).  The running remainder is scaled
    by lc(b) only at a step whose quotient is not an integer, so a division
    that is exact over Z stays at s = 1.  b must be nonzero and trimmed."""
    nb = len(b)
    dq = len(a) - nb
    if dq < 0:
        return [], _trim(list(a)), 1
    lb = b[-1]
    r = list(a)
    q = [0] * (dq + 1)
    s = 1
    for k in range(dq, -1, -1):
        top = r[k + nb - 1]
        if not top:
            continue
        c, rem = divmod(top, lb)
        if rem:
            s *= lb
            for i in range(k + nb - 1):
                r[i] *= lb
            for i in range(k + 1, dq + 1):
                q[i] *= lb
            c = top
        q[k] = c
        for j in range(nb - 1):
            r[k + j] -= c * b[j]
    return _trim(q), _trim(r[: nb - 1]), s


def _centered(a, m):
    out = []
    for v in a:
        v %= m
        out.append(v - m if v > m // 2 else v)
    return _trim(out)


# ----------------------------------------------------------------------
# polynomials over Z/m


def _m_mul(a, b, m):
    return _trim([v % m for v in _z_mul(a, b)])


def _m_add(a, b, m):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, v in enumerate(b):
        out[i] = (out[i] + v) % m
    return _trim(out)


def _m_sub(a, b, m):
    out = list(a) + [0] * max(0, len(b) - len(a))
    for i, v in enumerate(b):
        out[i] = (out[i] - v) % m
    return _trim(out)


def _m_divmod(a, b, m):
    """Quotient and remainder over Z/m, for b with a unit leading
    coefficient; the running remainder is reduced only where it is read."""
    if not b:
        raise ZeroDivisionError
    nb = len(b)
    inv = pow(b[-1], -1, m)
    dq = len(a) - nb
    if dq < 0:
        return [], _m_mod(a, m)
    a = list(a)
    q = [0] * (dq + 1)
    for k in range(dq, -1, -1):
        top = a[k + nb - 1] % m
        if top:
            c = top * inv % m
            q[k] = c
            for j in range(nb - 1):
                a[k + j] -= c * b[j]
    return _trim(q), _m_mod(a[: nb - 1], m)


def _m_monic(a, m):
    if not a:
        return []
    inv = pow(a[-1], -1, m)
    return _trim([v * inv % m for v in a])


def _m_gcd(a, b, p):
    """Monic gcd over GF(p) of reduced, trimmed polynomials."""
    a, b = list(a), list(b)
    while b:
        if len(b) == 1:
            return [1]
        # a <- a mod b, in place
        nb = len(b)
        inv = pow(b[-1], -1, p)
        for k in range(len(a) - nb, -1, -1):
            c = a[k + nb - 1] * inv % p
            if c:
                for j in range(nb - 1):
                    a[k + j] = (a[k + j] - c * b[j]) % p
        del a[nb - 1 :]
        a, b = b, _trim(a)
    return _m_monic(a, p)


def _m_xgcd(a, b, p):
    """For gcd(a, b) = 1 over GF(p): (s, t) with s*a + t*b = 1,
    deg s < deg b, deg t < deg a."""
    r0, r1 = list(a), list(b)
    s0, s1 = [1], []
    while r1:
        q, r = _m_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _m_sub(s0, _m_mul(q, s1, p), p)
    if len(r0) != 1:
        raise PreconditionError("modular inputs are not coprime")
    inv = pow(r0[0], -1, p)
    s = _trim([v * inv % p for v in s0])
    s = _m_divmod(s, b, p)[1]
    num = _m_sub([1], _m_mul(s, a, p), p)
    t, rem = _m_divmod(num, b, p)
    if rem:
        raise PreconditionError("inconsistent modular Bezout data")
    return s, t


def _m_mod(a, m):
    return _trim([v % m for v in a])


def _m_pow_mod(a, n, f, p):
    result = [1]
    base = _m_divmod(a, f, p)[1]
    while n:
        if n & 1:
            result = _m_divmod(_m_mul(result, base, p), f, p)[1]
        base = _m_divmod(_m_mul(base, base, p), f, p)[1]
        n >>= 1
    return result


def _m_value(a, x, m):
    """a(x) mod m, by Horner's rule reduced at every step."""
    acc = 0
    for v in reversed(a):
        acc = (acc * x + v) % m
    return acc


def _m_deriv(a, p):
    return _trim([i * v % p for i, v in enumerate(a)][1:])


# ----------------------------------------------------------------------
# primes

# the sixteen largest primes below 2^31
PRIMES = (
    2147483647, 2147483629, 2147483587, 2147483579, 2147483563, 2147483549,
    2147483543, 2147483497, 2147483489, 2147483477, 2147483423, 2147483399,
    2147483353, 2147483323, 2147483269, 2147483249,
)

# Miller-Rabin with these bases is deterministic below 3.3 * 10^24
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _next_prime(n: int) -> int:
    """The least prime above n."""
    n += 1
    while not _is_prime(n):
        n += 1
    return n


def _gcd_primes():
    """The table, then primes above 2^31 found one by one."""
    yield from PRIMES
    p = 1 << 31
    while True:
        p = _next_prime(p)
        yield p


# ----------------------------------------------------------------------
# modular gcd


def _z_gcd(a, b):
    """gcd of primitive integer polynomials a, b of degree >= 1: the
    primitive gcd with positive leading coefficient.

    Images mod primes dividing neither leading coefficient have degree at
    least that of the true gcd; an image of degree 0 proves a and b coprime.
    Images of least degree are scaled to leading coefficient
    gcd(lc a, lc b), combined by CRT and lifted symmetrically; the lift's
    primitive part is returned once it divides both a and b exactly.  That
    division is tried at the first image of least degree and then only when
    the lift repeats, since a lift still growing cannot be the gcd yet."""
    la, lb = a[-1], b[-1]
    gamma = gcd(la, lb)
    best = None
    h = m = prev = None
    for p in _gcd_primes():
        if la % p == 0 or lb % p == 0:
            continue
        g = _m_gcd([v % p for v in a], [v % p for v in b], p)
        if len(g) == 1:
            return [1]
        if best is None or len(g) < best:
            # every earlier image had too high a degree
            best = len(g)
            h = [gamma * v % p for v in g]
            m = p
            prev = None
        elif len(g) > best:
            continue
        else:
            u = pow(m, -1, p)
            h = [hv + m * ((gamma * gv - hv) * u % p) for hv, gv in zip(h, g)]
            m *= p
        cand = _z_primitive(_centered(h, m))
        if cand[-1] < 0:
            cand = [-v for v in cand]
        if prev is None or cand == prev:
            if _z_exact_div(a, cand) is not None and _z_exact_div(b, cand) is not None:
                return cand
        prev = cand


# ----------------------------------------------------------------------
# resultants


def _z_resultant(a, b) -> int:
    """Resultant of nonzero integer polynomials, with the Sylvester-
    determinant sign, by the subresultant remainder sequence (Cohen, *A
    Course in Computational Algebraic Number Theory*, Algorithm 3.3.7):
    every division in it is exact over Z."""
    if len(a) == 1:
        return a[0] ** (len(b) - 1)
    if len(b) == 1:
        return b[0] ** (len(a) - 1)
    ca, cb = gcd(*a), gcd(*b)
    t = ca ** (len(b) - 1) * cb ** (len(a) - 1)
    a = [v // ca for v in a]
    b = [v // cb for v in b]
    sign = 1
    if len(a) < len(b):
        a, b = b, a
        if len(a) % 2 == 0 and len(b) % 2 == 0:
            sign = -1
    g = h = 1
    while True:
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        if da % 2 and db % 2:
            sign = -sign
        # the full pseudo-remainder lc(b)^(delta+1) a mod b, divided by g h^delta
        _, r, s = _z_divmod(a, b)
        scale = b[-1] ** (delta + 1) // s
        div = g * h**delta
        a, b = b, [v * scale // div for v in r]
        g = a[-1]
        h = g**delta // h ** (delta - 1) if delta else h
        if len(b) <= 1:
            break
    if not b:
        return 0
    da = len(a) - 1
    return sign * t * (b[-1] ** da // h ** (da - 1))
