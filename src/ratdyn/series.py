"""Power-series lifting and rational reconstruction for functional division.

Solving X(R(z)) = F(z) for R: expand F around a generic rational center,
Newton-lift a simple rational root of X(w) = F(t0) to a series solution,
reconstruct a rational function from the series by the extended Euclidean
algorithm, and verify the candidate exactly.  A truncated series in tau is
a `UniPoly` read mod tau^k, so the lifting runs on the integer kernel
through `UniPoly.mul_trunc`, `inv_trunc` and `compose_trunc`.  A root R of
degree n is reconstructed from the first 2n + 1 terms, which determine
its [n/n] Pade approximant; each candidate is certified by X o R == F.
"""

from __future__ import annotations

from itertools import islice

from .errors import Inconclusive, PreconditionError
from .factoring import rational_roots
from .polynomials import UniPoly, _centres, qq
from .ratmaps import RatMap


def expand_ratmap(f: RatMap, t0, k):
    """Series of f(t0 + tau) mod tau^k; t0 must avoid the poles of f."""
    t0 = qq(t0)
    num = f.num.taylor_shift(t0)
    den = f.den.taylor_shift(t0)
    if den.coeff(0) == 0:
        raise ZeroDivisionError("center is a pole")
    return num.mul_trunc(den.inv_trunc(k), k)


def newton_series_root(X: RatMap, target: UniPoly, w0, k):
    """Series w with X(w(tau)) = target(tau) mod tau^k, w(0) = w0 a simple
    root of num(X) - target(0) * den(X)."""
    w0 = qq(w0)
    num, den = X.num, X.den
    if num(w0) - target.coeff(0) * den(w0) != 0:
        raise PreconditionError("center value is not a root")
    dnum, dden = num.derivative(), den.derivative()
    w = UniPoly.constant(w0)
    prec = 1
    while prec < k:
        # g(w) = num(w) - target den(w) vanishes mod tau^prec, so the Newton
        # correction g / g' mod tau^new needs g' only mod tau^(new - prec)
        new = min(2 * prec, k)
        g = num.compose_trunc(w, new) - target.mul_trunc(den.compose_trunc(w, new), new)
        low = new - prec
        gprime = dnum.compose_trunc(w, low) - target.mul_trunc(dden.compose_trunc(w, low), low)
        if gprime.coeff(0) == 0:
            raise PreconditionError("root is not simple at the center")
        w = w - g.mul_trunc(gprime.inv_trunc(low), new)
        prec = new
    return w


def pade_reconstruct(series: UniPoly, prec: int, dn: int, dd: int):
    """Rational function a/b with deg a <= dn, deg b <= dd, b(0) != 0 and
    a - b * series = O(tau^(dn + dd + 1)), for a series known mod tau^prec;
    None when no such pair exists or prec < dn + dd + 1."""
    k = dn + dd + 1
    if prec < k:
        return None
    # every step keeps r_i = u_i * series mod tau^k, so the pair found
    # needs no further check
    r0 = UniPoly.monomial(k)
    r1 = series.trunc(k)
    u0, u1 = UniPoly.zero(), UniPoly.one()
    while not r1.is_zero and r1.degree > dn:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
    if u1.is_zero or u1.degree > dd or u1.coeff(0) == 0:
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
    for center in islice(_centres(), 200):
        if F.den(center) == 0:
            continue
        pencil = X.num - X.den * F(center)
        if pencil.degree == X.degree and pencil.is_squarefree():
            break
    else:
        raise Inconclusive("no generic center found for functional division")
    candidates = rational_roots(pencil)
    prec = 2 * n + 1
    target = expand_ratmap(F, center, prec)
    roots = []
    for w0 in candidates:
        w = newton_series_root(X, target, w0, prec)
        rec = pade_reconstruct(w, prec, n, n)
        if rec is None:
            continue
        a, b = rec
        cand = RatMap(a.taylor_shift(-center), b.taylor_shift(-center))
        if X.compose(cand) == F:
            roots.append(cand)
    return sorted(set(roots), key=lambda r: r.sort_key())
