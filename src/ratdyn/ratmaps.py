"""Rational self-maps of the sphere as coprime numerator/denominator pairs.

Canonical scaling: the denominator is monic when nonconstant; when the
denominator is constant the numerator is made monic instead (so the
polynomial 3z^2 is stored as z^2 over 1/3), on integer numerators.
Equality of maps is equality of canonical forms.  The constructor divides
by gcd(num, den); constants, the identity, polynomials, negation,
composition, sums, products and quotients, degree-one maps, their
inverses and `inverted_source` make provably coprime pairs and skip it
(`_coprime`).
The point at infinity is handled by explicit case analysis, except in
`mobius_through`, which works in integer homogeneous coordinates.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import PreconditionError
from .intpoly import to_ints
from .memo import memo
from .polynomials import UniPoly, homogenize, qq


class _Infinity:
    """The point at infinity on the rational projective line."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INF"

    def __eq__(self, other):
        return isinstance(other, _Infinity)

    def __hash__(self):
        return hash("ratdyn-INF")


INF = _Infinity()


class RatMap:
    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if not isinstance(num, UniPoly):
            num = UniPoly.constant(qq(num))
        if den is None:
            den = UniPoly.one()
        elif not isinstance(den, UniPoly):
            den = UniPoly.constant(qq(den))
        if den.is_zero:
            raise PreconditionError("denominator is the zero polynomial")
        g = num.gcd(den)
        if g.degree >= 1:
            num, den = num // g, den // g
        self.num, self.den = _canonical(num, den)

    @classmethod
    def _coprime(cls, num: UniPoly, den: UniPoly) -> "RatMap":
        """num / den for den != 0 and num, den proved coprime (so num = 0
        only over a constant den), with no gcd."""
        f = object.__new__(cls)
        f.num, f.den = _canonical(num, den)
        return f

    # ------------------------------------------------------------------

    @classmethod
    def identity(cls) -> "RatMap":
        return cls._coprime(UniPoly.x(), UniPoly.one())

    @classmethod
    def from_poly(cls, p: UniPoly) -> "RatMap":
        return cls._coprime(p, UniPoly.one())

    @classmethod
    def constant(cls, v) -> "RatMap":
        return cls._coprime(UniPoly.constant(v), UniPoly.one())

    @property
    def degree(self) -> int:
        return max(self.num.degree, self.den.degree)

    @property
    def is_constant(self) -> bool:
        return self.degree <= 0

    @property
    def is_polynomial(self) -> bool:
        return self.den.is_constant

    def __eq__(self, other):
        if not isinstance(other, RatMap):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash(("RatMap", self.num, self.den))

    def __repr__(self):
        return f"RatMap({self.to_str()})"

    def to_str(self, var: str = "z") -> str:
        pn, pd, s = self.scale_to_integers()
        num = pn * s.numerator
        den = pd * s.denominator
        if den == UniPoly.one():
            return num.to_str(var)
        return f"({num.to_str(var)}) / ({den.to_str(var)})"

    def sort_key(self):
        return (self.degree, self.num.c, self.den.c)

    # ------------------------------------------------------------------
    # pointwise evaluation on the sphere

    def value_at_infinity(self):
        dn, dd = self.num.degree, self.den.degree
        if dn > dd:
            return INF
        if dn < dd:
            return Fraction(0)
        return self.num.lc / self.den.lc

    def __call__(self, x):
        if x is INF:
            return self.value_at_infinity()
        x = qq(x)
        d = self.den(x)
        if d == 0:
            return INF
        return self.num(x) / d

    # ------------------------------------------------------------------
    # field arithmetic on map values (pointwise operations)

    @staticmethod
    def _co(other):
        if isinstance(other, RatMap):
            return other
        if isinstance(other, UniPoly):
            return RatMap.from_poly(other)
        if isinstance(other, (int, Fraction)):
            return RatMap.constant(other)
        return None

    def __add__(self, other):
        """Sum by Henrici's rule: over the denominators d1, d2 reduced by
        their gcd g, the cross sum t is prime to d1 d2 (it is n1 d2 modulo
        d1, with n1 prime to d1), so gcd(t, g) is all that can cancel."""
        o = self._co(other)
        if o is None:
            return NotImplemented
        g = self.den.gcd(o.den)
        d1, d2 = (self.den // g, o.den // g) if g.degree >= 1 else (self.den, o.den)
        t = self.num * d2 + o.num * d1
        if t.is_zero:
            return RatMap.constant(0)
        h = t.gcd(g)
        if h.degree >= 1:
            t, g = t // h, g // h
        return RatMap._coprime(t, g * d1 * d2)

    __radd__ = __add__

    def __neg__(self):
        return RatMap._coprime(-self.num, self.den)

    def __sub__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    @staticmethod
    def _product(n1: UniPoly, d1: UniPoly, n2: UniPoly, d2: UniPoly) -> "RatMap":
        """n1 n2 / (d1 d2) for coprime pairs n1/d1 and n2/d2 with d1, d2
        nonzero, by cross gcds: once n1, d2 and n2, d1 are divided by their
        gcds, every numerator factor is prime to every denominator factor.
        A zero side is 0/1, and its gcd with the other denominator takes
        all of it, so a zero product comes out as 0/1."""
        g = n1.gcd(d2)
        if g.degree >= 1:
            n1, d2 = n1 // g, d2 // g
        h = n2.gcd(d1)
        if h.degree >= 1:
            n2, d1 = n2 // h, d1 // h
        return RatMap._coprime(n1 * n2, d1 * d2)

    def __mul__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        return RatMap._product(self.num, self.den, o.num, o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        if o.num.is_zero:
            raise ZeroDivisionError("division by the zero map")
        return RatMap._product(self.num, self.den, o.den, o.num)

    def __rtruediv__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        return o / self

    # ------------------------------------------------------------------
    # composition

    @memo
    def compose(self, inner: "RatMap") -> "RatMap":
        """self after inner, s^m N(r/s) / s^m D(r/s) for self = N/D of degree
        m and inner = r/s, with no gcd: a common root z0 would make the point
        [r(z0) : s(z0)] a common zero of the coprime degree-m forms
        Y^m N(X/Y) and Y^m D(X/Y)."""
        inner = self._co(inner)
        if inner.is_constant:
            v = inner(Fraction(0)) if inner.den(0) != 0 else inner.value_at_infinity()
            w = self(v)
            if w is INF:
                raise PreconditionError("composition degenerates to infinity")
            return RatMap.constant(w)
        num, den = homogenize((self.num, self.den), inner.num, inner.den, self.degree)
        return RatMap._coprime(num, den)

    def iterate(self, k: int) -> "RatMap":
        if k < 1:
            raise PreconditionError("iterate needs k >= 1")
        result = self
        for _ in range(k - 1):
            result = result.compose(self)
        return result

    def conjugate(self, mu: "RatMap") -> "RatMap":
        """mu o self o mu^{-1} for a degree-one map mu."""
        return mu.compose(self).compose(mu.mobius_inverse())

    def mobius_inverse(self) -> "RatMap":
        if self.degree != 1:
            raise PreconditionError("only degree-one maps are invertible")
        # self = (a z + b) e1 / ((c z + d) e) for numerators over denominators e, e1
        (b, a), e = (self.num.nums + (0,))[:2], self.num.denom
        (d, c), e1 = (self.den.nums + (0,))[:2], self.den.denom
        return _from_matrix(e * d, -e1 * b, -e * c, e1 * a)

    # ------------------------------------------------------------------
    # derived data

    def wronskian(self) -> UniPoly:
        """num' * den - num * den'; vanishes exactly at finite critical points."""
        return self.num.derivative() * self.den - self.num * self.den.derivative()

    def derivative(self) -> "RatMap":
        """wronskian / den^2, both divided first by their gcd, which for num
        and den coprime is gcd(den, den'): a root of den of multiplicity e
        is a root of the wronskian of multiplicity e - 1."""
        w, den = self.wronskian(), self.den
        g = den.gcd(den.derivative())
        if g.degree >= 1:
            w, den = w // g, den // g
        return RatMap(w, den * self.den)

    def inverted_source(self) -> "RatMap":
        """The map z -> self(1/z); moves behaviour at infinity to zero."""
        d = self.degree
        # coprime: 0 is no common root (one side has degree d), and any other
        # common root c of the reversals makes 1/c a common root of num, den
        return RatMap._coprime(self.num.reversed_to(d), self.den.reversed_to(d))

    def conjugate_by_inversion(self) -> "RatMap":
        """(1/z) o self o (1/z); swaps the roles of zero and infinity."""
        inner = self.inverted_source()
        return RatMap(inner.den, inner.num)

    def fiber_poly(self, v) -> UniPoly:
        """Numerator of self - v (or the denominator for v = INF); its roots
        are the finite points of the fiber over v."""
        if v is INF:
            return self.den
        return self.num - self.den * qq(v)

    def scale_to_integers(self):
        """Common integer-coefficient model (n, d, s): self = (n/d)*s with
        n, d integer polynomials."""
        cn, pn = self.num.content_and_primitive()
        cd, pd = self.den.content_and_primitive()
        return pn, pd, cn / cd


def mobius(a, b, c, d) -> RatMap:
    """(a z + b) / (c z + d)."""
    nums, _ = to_ints([qq(a), qq(b), qq(c), qq(d)])
    return _from_matrix(*nums)


def _from_matrix(a: int, b: int, c: int, d: int) -> RatMap:
    """(a z + b) / (c z + d) for integers; ad != bc, checked before any
    polynomial work, makes the two sides coprime."""
    if a * d == b * c:
        raise PreconditionError("degenerate coefficients for a degree-one map")
    return RatMap._coprime(UniPoly._of([b, a]), UniPoly._of([d, c]))


def mobius_through(sources, targets) -> RatMap:
    """The unique degree-one map sending three distinct sources to three
    distinct targets; entries may be INF.  It is built in integer
    homogeneous coordinates by `_matrix_through`; a triple that repeats a
    point makes that matrix singular, and `_from_matrix` refuses it."""
    if len(sources) != 3 or len(targets) != 3:
        raise PreconditionError("need exactly three points on each side")
    S, T = ([_homogeneous(p) for p in pts] for pts in (sources, targets))
    return _from_matrix(*_matrix_through(S, T))


def _homogeneous(p):
    """The integer pair (x, w) in lowest terms with p = x/w; INF = (1, 0)."""
    return (1, 0) if p is INF else qq(p).as_integer_ratio()


def _matrix_through(S, T):
    """The entries (a, b, c, d) of a matrix of the degree-one map sending
    the three points S to the three points T, both given as homogeneous
    pairs (x, w) for x/w, INF = (1, 0), in any commutative ring: the
    adjugate of T's cross-ratio matrix times S's.  Its determinant is the
    product of the pairwise determinants of both triples, so it vanishes
    exactly when two points of one triple coincide."""
    (a, b), (c, d) = _cross_ratio_matrix(S)
    (e, f), (g, h) = _cross_ratio_matrix(T)
    return h * a - f * c, h * b - f * d, e * c - g * a, e * d - g * b


def _cross_ratio_matrix(pts):
    """The matrix of the degree-one map sending (p0, p1, p2) to (0, 1, INF):
    with det(P, Q) = P_x Q_w - P_w Q_x on homogeneous pairs P = (x, w), it is
    Z -> det(Z, P0) det(P1, P2) / (det(Z, P2) det(P1, P0))."""
    (x0, w0), (x1, w1), (x2, w2) = pts
    s, t = x1 * w2 - w1 * x2, x1 * w0 - w1 * x0
    return (s * w0, -s * x0), (t * w2, -t * x2)


def _canonical(num: UniPoly, den: UniPoly):
    """(num, den) over the leading coefficient of den, when den is
    nonconstant or num zero, else of num: the other side is multiplied by
    that coefficient's denominator over its numerator."""
    lead, other = (den, num) if den.degree >= 1 or num.is_zero else (num, den)
    scaled = UniPoly._of([v * lead.denom for v in other.nums], other.denom * lead.nums[-1])
    return (scaled, den.monic()) if lead is den else (num.monic(), scaled)


def chebyshev(n: int) -> RatMap:
    """The degree-n Chebyshev polynomial as a map (T_1 = z, T_2 = 2z^2 - 1)."""
    return RatMap.from_poly(_chebyshev_poly(n))


def _chebyshev_poly(n: int) -> UniPoly:
    """T_n as a polynomial, by T_(k+1) = 2z T_k - T_(k-1)."""
    if n < 0:
        raise PreconditionError("Chebyshev index must be nonnegative")
    a, b = UniPoly.one(), UniPoly.x()
    if n == 0:
        return a
    two_x = UniPoly((0, 2))
    for _ in range(n - 1):
        a, b = b, two_x * b - a
    return b


def power_map(n: int) -> RatMap:
    """z^n for any nonzero integer n, negative meaning 1/z^|n|."""
    if n == 0:
        raise PreconditionError("z^0 is constant")
    if n > 0:
        return RatMap(UniPoly.monomial(n))
    return RatMap(UniPoly.one(), UniPoly.monomial(-n))
