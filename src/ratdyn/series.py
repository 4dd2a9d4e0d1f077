"""Power-series lifting and rational reconstruction for functional division.

Solving X(R(z)) = F(z) for R: expand F around a generic rational center,
Newton-lift a simple rational root of X(w) = F(t0) to a series solution,
reconstruct a rational function from the series by the extended Euclidean
algorithm, and verify the candidate exactly.  The series precision is
2 deg F + 4 terms; on reconstruction failure the precision is doubled
once before reporting no root.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import Inconclusive, PreconditionError
from .factoring import rational_roots
from .intpoly import ser_inv, ser_mul
from .polynomials import UniPoly, qq
from .ratmaps import RatMap

# truncated series: list of Fractions, index = power of tau


def ser_trunc(a, k):
    out = [Fraction(0)] * k
    for i, v in enumerate(a[:k]):
        out[i] = Fraction(v)
    return out


def ser_add(a, b, k):
    return [
        (a[i] if i < len(a) else Fraction(0)) + (b[i] if i < len(b) else Fraction(0))
        for i in range(k)
    ]


def ser_sub(a, b, k):
    return [
        (a[i] if i < len(a) else Fraction(0)) - (b[i] if i < len(b) else Fraction(0))
        for i in range(k)
    ]


def expand_ratmap(f: RatMap, t0, k):
    """Series of f(t0 + tau) to k terms; t0 must avoid the poles of f."""
    t0 = qq(t0)
    num = f.num.taylor_shift(t0)
    den = f.den.taylor_shift(t0)
    if den(0) == 0:
        raise ZeroDivisionError("center is a pole")
    return ser_mul(ser_trunc(list(num.c), k), ser_inv(ser_trunc(list(den.c), k), k), k)


def eval_poly_on_series(p: UniPoly, w, k):
    acc = [Fraction(0)] * k
    for c in reversed(p.c):
        acc = ser_mul(acc, w, k)
        acc[0] += c
    return acc


def newton_series_root(X: RatMap, target, w0, k):
    """Series w with X(w(tau)) = target(tau) mod tau^k, w(0) = w0 a simple
    root of num(X) - target(0) * den(X)."""
    w0 = qq(w0)
    g0 = X.num(w0) - qq(target[0]) * X.den(w0)
    if g0 != 0:
        raise PreconditionError("center value is not a root")
    w = [w0] + [Fraction(0)] * (k - 1)
    prec = 1
    while prec < k:
        prec = min(2 * prec, k)
        num_w = eval_poly_on_series(X.num, w, prec)
        den_w = eval_poly_on_series(X.den, w, prec)
        g = ser_sub(num_w, ser_mul(ser_trunc(target, prec), den_w, prec), prec)
        nprime = eval_poly_on_series(X.num.derivative(), w, prec)
        dprime = eval_poly_on_series(X.den.derivative(), w, prec)
        gprime = ser_sub(nprime, ser_mul(ser_trunc(target, prec), dprime, prec), prec)
        if gprime[0] == 0:
            raise PreconditionError("root is not simple at the center")
        w = ser_sub(w, ser_mul(g, ser_inv(gprime, prec), prec), prec)
    return ser_trunc(w, k)


def pade_reconstruct(series, dn, dd):
    """Rational function a/b with deg a <= dn, deg b <= dd, b(0) != 0 and
    a - b * series = O(tau^(dn + dd + 1)); None when no such pair exists."""
    k = dn + dd + 1
    if len(series) < k:
        return None
    r0 = UniPoly.monomial(k)
    r1 = UniPoly(series[:k])
    u0, u1 = UniPoly.zero(), UniPoly.one()
    while not r1.is_zero and r1.degree > dn:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
    if u1.is_zero or u1.degree > dd or u1(0) == 0:
        return None
    # exactness check against the requested order
    prod = ser_mul(ser_trunc(list(u1.c), k), ser_trunc(series, k), k)
    diff = ser_sub(ser_trunc(list(r1.c), k), prod, k)
    if any(diff):
        return None
    return r1, u1


def ratmap_roots_over_function_field(X: RatMap, F: RatMap):
    """All rational maps R over Q with X o R = F, in canonical order.

    An empty result is a valid answer (no root over Q), not an error."""
    if X.degree < 1 or F.degree < 1:
        raise PreconditionError("functional division needs nonconstant maps")
    if F.degree % X.degree != 0:
        return []
    n = F.degree // X.degree
    base_prec = 2 * F.degree + 4
    center = None
    t = Fraction(0)
    attempts = 0
    while center is None:
        attempts += 1
        if attempts > 200:
            raise Inconclusive("no generic center found for functional division")
        t0 = t
        t = -t if t > 0 else -t + 1
        if F.den(t0) == 0:
            continue
        c = F(t0)
        pencil = X.num - X.den * c
        if pencil.degree != X.degree or not pencil.is_squarefree():
            continue
        center = t0
    pencil = X.num - X.den * F(center)
    candidates = rational_roots(pencil)
    roots = []
    for prec in (base_prec, 2 * base_prec):
        roots = []
        retry = False
        target = expand_ratmap(F, center, prec)
        for w0 in candidates:
            w = newton_series_root(X, target, w0, prec)
            rec = pade_reconstruct(w, n, n)
            if rec is None:
                # a genuine root reconstructs at base precision; retry once,
                # then treat the candidate as spurious
                if prec == base_prec:
                    retry = True
                continue
            a, b = rec
            cand = RatMap(a.taylor_shift(-center), b.taylor_shift(-center))
            if X.compose(cand) == F:
                roots.append(cand)
        if not retry:
            break
    return sorted(set(roots), key=lambda r: r.sort_key())
