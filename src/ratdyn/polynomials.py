"""Dense univariate polynomials with exact rational coefficients.

Coefficients are stored lowest degree first as `fractions.Fraction`
values; the leading coefficient is nonzero unless the polynomial is
zero.  All arithmetic is exact.  The zero polynomial has degree -1.
Coefficients stay `Fraction`s, while multiplication, division, gcd and the
monic and primitive normal forms run on integer numerators in `intpoly`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _igcd

from .intpoly import (
    _trim,
    _z_divmod,
    _z_gcd,
    _z_mul,
    _z_primitive,
    _z_resultant,
    from_ints,
    monic_from_ints,
    to_ints,
)


def qq(x) -> Fraction:
    """Coerce an int / Fraction / string into an exact rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"cannot coerce {x!r} into an exact rational")


class UniPoly:
    __slots__ = ("c",)

    def __init__(self, coeffs=()):
        c = [qq(v) for v in coeffs]
        while c and c[-1] == 0:
            c.pop()
        self.c = tuple(c)

    @classmethod
    def _of_fractions(cls, c: tuple) -> "UniPoly":
        """Polynomial from a tuple of Fractions already in normal form."""
        p = object.__new__(cls)
        p.c = c
        return p

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def of(cls, *coeffs) -> "UniPoly":
        """Polynomial from coefficients, lowest degree first."""
        return cls(coeffs)

    @classmethod
    def zero(cls) -> "UniPoly":
        return cls(())

    @classmethod
    def one(cls) -> "UniPoly":
        return cls((1,))

    @classmethod
    def x(cls) -> "UniPoly":
        return cls((0, 1))

    @classmethod
    def constant(cls, v) -> "UniPoly":
        return cls((qq(v),))

    @classmethod
    def monomial(cls, k: int, coeff=1) -> "UniPoly":
        return cls((0,) * k + (qq(coeff),))

    # ------------------------------------------------------------------
    # structure

    @property
    def degree(self) -> int:
        return len(self.c) - 1

    @property
    def is_zero(self) -> bool:
        return not self.c

    @property
    def is_constant(self) -> bool:
        return len(self.c) <= 1

    @property
    def lc(self) -> Fraction:
        if not self.c:
            return Fraction(0)
        return self.c[-1]

    def coeff(self, k: int) -> Fraction:
        if 0 <= k < len(self.c):
            return self.c[k]
        return Fraction(0)

    def __bool__(self):
        return bool(self.c)

    def __eq__(self, other):
        if isinstance(other, UniPoly):
            return self.c == other.c
        if isinstance(other, (int, Fraction)):
            return self == UniPoly.constant(other)
        return NotImplemented

    def __hash__(self):
        return hash(("UniPoly", self.c))

    def __repr__(self):
        return f"UniPoly({self.to_str()})"

    # ------------------------------------------------------------------
    # ring arithmetic

    @staticmethod
    def _co(other):
        if isinstance(other, UniPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return UniPoly.constant(other)
        return None

    def __add__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        a, b = self.c, o.c
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] += v
        return UniPoly._of_fractions(tuple(_trim(out)))

    __radd__ = __add__

    def __neg__(self):
        return UniPoly._of_fractions(tuple([-v for v in self.c]))

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

    def __mul__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        if not self.c or not o.c:
            return UniPoly()
        na, da = to_ints(self.c)
        nb, db = to_ints(o.c)
        return UniPoly._of_fractions(from_ints(_z_mul(na, nb), da * db))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = UniPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if len(self.c) < len(o.c):
            return UniPoly(), self
        na, da = to_ints(self.c)
        nb, db = to_ints(o.c)
        q, r, s = _z_divmod(na, nb)
        if db != 1:
            q = [v * db for v in q]
        return UniPoly._of_fractions(from_ints(q, s * da)), UniPoly._of_fractions(from_ints(r, s * da))

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def divides(self, other: "UniPoly") -> bool:
        if self.is_zero:
            return other.is_zero
        return (other % self).is_zero

    # ------------------------------------------------------------------
    # gcd layer

    def monic(self) -> "UniPoly":
        if self.is_zero or self.lc == 1:
            return self
        return UniPoly._of_fractions(monic_from_ints(to_ints(self.c)[0]))

    def gcd(self, other: "UniPoly") -> "UniPoly":
        """Monic greatest common divisor, by the certified modular gcd of the
        primitive integer parts (`intpoly._z_gcd`)."""
        if other.is_zero:
            return self.monic()
        if self.is_zero:
            return other.monic()
        if self.degree == 0 or other.degree == 0:
            return UniPoly._of_fractions((Fraction(1),))
        g = _z_gcd(_z_primitive(to_ints(self.c)[0]), _z_primitive(to_ints(other.c)[0]))
        return UniPoly._of_fractions(monic_from_ints(g))

    def xgcd(self, other: "UniPoly"):
        """Extended gcd: returns (g, u, v) with u*self + v*other = g, g monic."""
        a, b = self, other
        ua, va = UniPoly.one(), UniPoly.zero()
        ub, vb = UniPoly.zero(), UniPoly.one()
        while not b.is_zero:
            q, r = divmod(a, b)
            a, b = b, r
            ua, ub = ub, ua - q * ub
            va, vb = vb, va - q * vb
        if a.is_zero:
            return a, ua, va
        inv = 1 / a.lc
        return a.monic(), ua * inv, va * inv

    # ------------------------------------------------------------------
    # calculus and evaluation

    def derivative(self) -> "UniPoly":
        return UniPoly([i * v for i, v in enumerate(self.c)][1:])

    def __call__(self, x):
        x = qq(x)
        acc = Fraction(0)
        for v in reversed(self.c):
            acc = acc * x + v
        return acc

    def compose(self, other: "UniPoly") -> "UniPoly":
        acc = UniPoly.zero()
        for v in reversed(self.c):
            acc = acc * other + v
        return acc

    def taylor_shift(self, a) -> "UniPoly":
        """p(z + a), exactly."""
        return self.compose(UniPoly((qq(a), 1)))

    def shift_up(self, k: int) -> "UniPoly":
        """Multiply by z**k."""
        if self.is_zero:
            return self
        return UniPoly((0,) * k + self.c)

    def reversed_to(self, n: int) -> "UniPoly":
        """z**n * p(1/z); n must be at least the degree."""
        if n < self.degree:
            raise ValueError("reversal length below degree")
        out = [Fraction(0)] * (n + 1)
        for i, v in enumerate(self.c):
            out[n - i] = v
        return UniPoly(out)

    # ------------------------------------------------------------------
    # integer normalization

    def content_and_primitive(self):
        """Write p = c * q with c rational and q an integer polynomial with
        coprime coefficients and positive leading coefficient."""
        if self.is_zero:
            return Fraction(0), self
        ints, den = to_ints(self.c)
        g = _igcd(*ints)
        if ints[-1] < 0:
            g = -g
        return Fraction(g, den), UniPoly._of_fractions(from_ints([v // g for v in ints]))

    def squarefree_part(self) -> "UniPoly":
        if self.degree < 1:
            return UniPoly.one()
        return (self // self.gcd(self.derivative())).monic()

    def is_squarefree(self) -> bool:
        return self.degree < 1 or self.gcd(self.derivative()).degree == 0

    def yun_decomposition(self):
        """Squarefree decomposition: [(g_i, i)] with p = lc * prod g_i**i,
        g_i monic squarefree pairwise coprime, i ascending."""
        p = self.monic()
        if p.degree < 1:
            return []
        out = []
        g = p.gcd(p.derivative())
        w = p // g
        i = 1
        while w.degree >= 1:
            y = w.gcd(g)
            f = w // y
            if f.degree >= 1:
                out.append((f.monic(), i))
            w, g = y, g // y
            i += 1
        return out

    # ------------------------------------------------------------------
    # resultants and interpolation

    def resultant(self, other: "UniPoly") -> Fraction:
        """Classical resultant, with the Sylvester-determinant sign."""
        if self.is_zero or other.is_zero:
            return Fraction(0)
        f, df = to_ints(self.c)
        g, dg = to_ints(other.c)
        return Fraction(_z_resultant(f, g), df ** other.degree * dg ** self.degree)

    @staticmethod
    def interpolate(points) -> "UniPoly":
        """Lagrange interpolation through exact (x, y) pairs with distinct x."""
        pts = [(qq(x), qq(y)) for x, y in points]
        result = UniPoly.zero()
        for i, (xi, yi) in enumerate(pts):
            if yi == 0:
                continue
            num = UniPoly.constant(yi)
            den = Fraction(1)
            for j, (xj, _) in enumerate(pts):
                if i != j:
                    num = num * UniPoly((-xj, 1))
                    den *= xi - xj
            result = result + num * (1 / den)
        return result

    # ------------------------------------------------------------------
    # printing

    def to_str(self, var: str = "z") -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            v = self.c[i]
            if v == 0:
                continue
            if i == 0:
                term = _fmt_q(abs(v))
            else:
                mag = abs(v)
                head = "" if mag == 1 else _fmt_q(mag) + "*"
                term = f"{head}{var}" + (f"^{i}" if i > 1 else "")
            if not parts:
                parts.append(("-" if v < 0 else "") + term)
            else:
                parts.append(("- " if v < 0 else "+ ") + term)
        return " ".join(parts)


def _fmt_q(v: Fraction) -> str:
    if v.denominator == 1:
        return str(v.numerator)
    return f"{v.numerator}/{v.denominator}"


def lcm_int(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    return a * b // _igcd(a, b)
