"""Dense univariate polynomials with exact rational coefficients.

A polynomial is stored as integer numerators over one common denominator:
`nums`, a tuple of ints lowest degree first whose last entry is nonzero
unless the polynomial is zero, and `denom`, a positive int.  The pair is
kept in normal form, gcd(denom, *nums) == 1 and denom == 1 for the zero
polynomial, so equality and hashing compare the pair directly.  All ring
arithmetic runs on the ints, over the kernel in `intpoly`; the coefficients
as reduced `Fraction`s are the read-only view `c`.  The zero polynomial has
degree -1.

A truncated power series is a `UniPoly` read mod z^k: `trunc`,
`mul_trunc`, `inv_trunc` and `compose_trunc` keep only the terms below z^k,
so series arithmetic runs on the same integer kernel, and so does
`homogenize`, the substitution s^m p(r/s) under every map composition.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _igcd

from .intpoly import (
    _q,
    _z_divmod,
    _z_gcd,
    _z_homogenize,
    _z_interpolate,
    _z_inv_trunc,
    _z_mul,
    _z_mul_trunc,
    _z_primitive,
    _z_resultant,
    _z_value,
    from_ints,
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
    __slots__ = ("nums", "denom")

    def __init__(self, coeffs=()):
        c = [qq(v) for v in coeffs]
        while c and c[-1] == 0:
            c.pop()
        # over the least common denominator the pair is already in normal form
        nums, self.denom = to_ints(c)
        self.nums = tuple(nums)

    @classmethod
    def _of(cls, nums, d: int = 1) -> "UniPoly":
        """The polynomial sum(nums[i] z^i) / d, for a fresh list of ints nums
        (trimmed in place) and an int d != 0, brought to normal form."""
        while nums and nums[-1] == 0:
            nums.pop()
        if not nums:
            d = 1
        elif d != 1:
            if d < 0:
                d = -d
                nums = [-v for v in nums]
            g = _igcd(d, *nums)
            if g != 1:
                d //= g
                nums = [v // g for v in nums]
        p = object.__new__(cls)
        p.nums = tuple(nums)
        p.denom = d
        return p

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def of(cls, *coeffs) -> "UniPoly":
        """Polynomial from coefficients, lowest degree first."""
        return cls(coeffs)

    @classmethod
    def zero(cls) -> "UniPoly":
        return cls._of([])

    @classmethod
    def one(cls) -> "UniPoly":
        return cls._of([1])

    @classmethod
    def x(cls) -> "UniPoly":
        return cls._of([0, 1])

    @classmethod
    def constant(cls, v) -> "UniPoly":
        v = qq(v)
        return cls._of([v.numerator], v.denominator)

    @classmethod
    def monomial(cls, k: int, coeff=1) -> "UniPoly":
        v = qq(coeff)
        return cls._of([0] * k + [v.numerator], v.denominator)

    # ------------------------------------------------------------------
    # structure

    @property
    def c(self) -> tuple:
        """The coefficients as reduced Fractions, lowest degree first."""
        return from_ints(self.nums, self.denom)

    @property
    def degree(self) -> int:
        return len(self.nums) - 1

    @property
    def is_zero(self) -> bool:
        return not self.nums

    @property
    def is_constant(self) -> bool:
        return len(self.nums) <= 1

    @property
    def lc(self) -> Fraction:
        if not self.nums:
            return Fraction(0)
        return _q(self.nums[-1], self.denom)

    def coeff(self, k: int) -> Fraction:
        if 0 <= k < len(self.nums):
            return _q(self.nums[k], self.denom)
        return Fraction(0)

    def __bool__(self):
        return bool(self.nums)

    def __eq__(self, other):
        if isinstance(other, UniPoly):
            return self.nums == other.nums and self.denom == other.denom
        if isinstance(other, (int, Fraction)):
            return self == UniPoly.constant(other)
        return NotImplemented

    def __hash__(self):
        return hash(("UniPoly", self.nums, self.denom))

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

    def _add(self, o: "UniPoly", sign: int) -> "UniPoly":
        """self + sign * o."""
        a, b = self.nums, o.nums
        da, db = self.denom, o.denom
        if da != db:
            g = _igcd(da, db)
            ma, mb = db // g, da // g
            a = [v * ma for v in a]
            b = [v * mb for v in b]
            da *= ma
        if sign < 0:
            b = [-v for v in b]
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] += v
        return UniPoly._of(out, da)

    def __add__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        return self._add(o, 1)

    __radd__ = __add__

    def __neg__(self):
        return UniPoly._of([-v for v in self.nums], self.denom)

    def __sub__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        return self._add(o, -1)

    def __rsub__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        return o._add(self, -1)

    def __mul__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        if not self.nums or not o.nums:
            return UniPoly.zero()
        return UniPoly._of(_z_mul(self.nums, o.nums), self.denom * o.denom)

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
        if len(self.nums) < len(o.nums):
            return UniPoly.zero(), self
        # s * nums = q * o.nums + r, so self = (q o.denom / (s denom)) o + r / (s denom)
        q, r, s = _z_divmod(self.nums, o.nums)
        d = s * self.denom
        if o.denom != 1:
            q = [v * o.denom for v in q]
        return UniPoly._of(q, d), UniPoly._of(r, d)

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
        if not self.nums or (self.nums[-1] == 1 and self.denom == 1):
            return self
        return UniPoly._of(list(self.nums), self.nums[-1])

    def gcd(self, other: "UniPoly") -> "UniPoly":
        """Monic greatest common divisor, by the certified modular gcd of the
        primitive integer parts (`intpoly._z_gcd`)."""
        if other.is_zero:
            return self.monic()
        if self.is_zero:
            return other.monic()
        if self.degree == 0 or other.degree == 0:
            return UniPoly.one()
        g = _z_gcd(_z_primitive(self.nums), _z_primitive(other.nums))
        return UniPoly._of(g, g[-1])

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
        return UniPoly._of([i * v for i, v in enumerate(self.nums)][1:], self.denom)

    def __call__(self, x):
        """The value at x, by Horner's rule on the numerators homogenised in
        x = p/q: sum nums[i] p^i q^(n-i) over q^n denom."""
        x = qq(x)
        if not self.nums:
            return Fraction(0)
        p, q = x.numerator, x.denominator
        return _q(_z_value(self.nums, p, q), q**self.degree * self.denom)

    def compose(self, other: "UniPoly") -> "UniPoly":
        """self(other), by Horner's rule on integer numerators: with other =
        B / e, the sum of nums[i] B^i e^(n-i) over e^n denom."""
        nums = self.nums
        if len(nums) <= 1:
            return self
        B, e = other.nums, other.denom
        acc = [nums[-1]]
        ek = 1
        for v in reversed(nums[:-1]):
            ek *= e
            acc = _z_mul(acc, B) or [0]
            acc[0] += v * ek
        return UniPoly._of(acc, ek * self.denom)

    def taylor_shift(self, a) -> "UniPoly":
        """p(z + a), exactly."""
        a = qq(a)
        return self.compose(UniPoly._of([a.numerator, a.denominator], a.denominator))

    # ------------------------------------------------------------------
    # truncated power series: the polynomial read mod z^k

    def trunc(self, k: int) -> "UniPoly":
        """self mod z^k."""
        if len(self.nums) <= k:
            return self
        return UniPoly._of(list(self.nums[:k]), self.denom)

    def mul_trunc(self, other: "UniPoly", k: int) -> "UniPoly":
        """self * other mod z^k."""
        return UniPoly._of(_z_mul_trunc(self.nums, other.nums, k), self.denom * other.denom)

    def inv_trunc(self, k: int) -> "UniPoly":
        """1 / self mod z^k, for a nonzero constant term and k >= 1."""
        if not self.nums or not self.nums[0]:
            raise ZeroDivisionError("series with zero constant term")
        ints, den = _z_inv_trunc(self.nums, k)
        if self.denom != 1:
            ints = [v * self.denom for v in ints]
        return UniPoly._of(ints, den)

    def compose_trunc(self, other: "UniPoly", k: int) -> "UniPoly":
        """self(other) mod z^k, by the Horner rule of `compose` with every
        product truncated at z^k."""
        nums = self.nums
        if len(nums) <= 1 or k <= 0:
            return self.trunc(k)
        B, e = other.nums, other.denom
        acc = [nums[-1]]
        ek = 1
        for v in reversed(nums[:-1]):
            ek *= e
            acc = _z_mul_trunc(acc, B, k)
            acc[0] += v * ek
        return UniPoly._of(acc, ek * self.denom)

    def reversed_to(self, n: int) -> "UniPoly":
        """z**n * p(1/z); n must be at least the degree."""
        if n < self.degree:
            raise ValueError("reversal length below degree")
        out = [0] * (n + 1)
        for i, v in enumerate(self.nums):
            out[n - i] = v
        return UniPoly._of(out, self.denom)

    # ------------------------------------------------------------------
    # integer normalization

    def content_and_primitive(self):
        """Write p = c * q with c rational and q an integer polynomial with
        coprime coefficients and positive leading coefficient."""
        if self.is_zero:
            return Fraction(0), self
        g = _igcd(*self.nums)
        if self.nums[-1] < 0:
            g = -g
        return Fraction(g, self.denom), UniPoly._of([v // g for v in self.nums])

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
        return _q(
            _z_resultant(self.nums, other.nums),
            self.denom ** other.degree * other.denom ** self.degree,
        )

    @staticmethod
    def interpolate(points) -> "UniPoly":
        """Lagrange interpolation through exact (x, y) pairs with distinct x:
        the one-column case of `intpoly._z_interpolate`."""
        pts = [(qq(x), qq(y)) for x, y in points]
        nodes = [(x.numerator, x.denominator) for x, _ in pts]
        cols, den = _z_interpolate(nodes, [((y.numerator,), y.denominator) for _, y in pts])
        return UniPoly._of(cols[0] if cols else [], den)

    # ------------------------------------------------------------------
    # printing

    def to_str(self, var: str = "z") -> str:
        if self.is_zero:
            return "0"
        parts = []
        c = self.c
        for i in range(self.degree, -1, -1):
            v = c[i]
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


def _centres():
    """0, 1, -1, 2, -2, ...: the rational points tried in turn wherever a
    generic evaluation point or series centre is needed."""
    t = Fraction(0)
    while True:
        yield t
        t = -t if t > 0 else -t + 1


def homogenize(polys, r, s, m: int) -> list:
    """[s^m p(r/s) for p in polys]: each `UniPoly` p homogenised to degree
    m >= deg p and evaluated at the `UniPoly`s (r, s), the numerator of p
    after the substitution r/s.  On the integer kernel: with r = R/e and
    s = S/f it is `intpoly._z_homogenize` at (R f, S e) over (e f)^m."""
    e, f = r.denom, s.denom
    R, S = [v * f for v in r.nums], [v * e for v in s.nums]
    rows = _z_homogenize([p.nums for p in polys], R, S, m)
    scale = (e * f) ** m
    return [UniPoly._of(row, p.denom * scale) for p, row in zip(polys, rows)]
