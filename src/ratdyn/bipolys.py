"""Bivariate polynomials over the rationals.

Stored in the dense recursive form the algorithms read (von zur Gathen and
Gerhard, *Modern Computer Algebra*, ch. 6): `rows`, a tuple with one tuple
of integer numerators per power of x, lowest power of y first, and
`denom`, one positive int over all of them.  Each row is trimmed, the last
row is nonempty unless the polynomial is zero, and the pair is in normal
form gcd(denom, entries) == 1 with denom == 1 for zero, so equality and
hashing compare the pair directly.  Ring arithmetic, evaluation and the
views below run on the ints, and the coefficient list "in x" (a list of
UniPoly in y, index = x-power) wraps the rows.  The reduced `Fraction`
coefficients are the read-only view `terms`.  A product is one
`intpoly._z_mul`, and an exact quotient one `intpoly._z_exact_div`, of
Kronecker images x -> z^n, y -> z (Kronecker 1882; ibid., ch. 8), with n
above the result's y-degree, where packing is injective; a quotient counts
only when each of its rows fits that degree.  Gcds and resultants in x
share one evaluation-interpolation scheme in y: univariate images at
y = 0, 1, -1, 2, ... (skipping points where an x-degree drops) from the
integer kernel, and exact interpolation of their coefficients over shared
nodes; a gcd is certified by exact division.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, islice, zip_longest
from math import gcd as _igcd, lcm as _lcm

from .errors import PreconditionError, TheoremViolation
from .intpoly import _q, _z_exact_div, _z_interpolate, _z_mul, _z_value, to_ints
from .polynomials import UniPoly, _centres, qq


def _pack(rows, n):
    """The Kronecker image x -> z^n, y -> z of integer rows of at most n
    entries: the list with rows[i][j] at index i n + j."""
    out = [0] * (n * (len(rows) - 1) + len(rows[-1]))
    for i, row in enumerate(rows):
        out[i * n : i * n + len(row)] = row
    return out


def _unpack(a, n):
    """The rows of the Kronecker image a, n slots each."""
    return [a[i : i + n] for i in range(0, len(a), n)]


class BiPoly:
    __slots__ = ("rows", "denom")

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for (i, j), v in dict(terms).items():
                v = qq(v)
                if v:
                    clean[(int(i), int(j))] = v
        # over the least common denominator the pair is already in normal form
        nums, self.denom = to_ints(list(clean.values()))
        rows = [[] for _ in range(max((i + 1 for i, _ in clean), default=0))]
        for (i, j), v in zip(clean, nums):
            row = rows[i]
            row.extend([0] * (j + 1 - len(row)))
            row[j] = v
        self.rows = tuple(map(tuple, rows))

    @classmethod
    def _of(cls, rows: list, d: int = 1) -> "BiPoly":
        """The polynomial sum(rows[i][j] x^i y^j) / d, for a fresh list of int
        lists (trimmed in place, zero entries allowed) and an int d != 0,
        brought to normal form."""
        for row in rows:
            while row and row[-1] == 0:
                row.pop()
        while rows and not rows[-1]:
            rows.pop()
        if not rows:
            d = 1
        elif d != 1:
            if d < 0:
                d = -d
                rows = [[-v for v in row] for row in rows]
            g = _igcd(d, *chain.from_iterable(rows))
            if g != 1:
                d //= g
                rows = [[v // g for v in row] for row in rows]
        p = object.__new__(cls)
        p.rows = tuple(map(tuple, rows))
        p.denom = d
        return p

    # ------------------------------------------------------------------

    @classmethod
    def zero(cls):
        return cls._of([])

    @classmethod
    def constant(cls, v):
        v = qq(v)
        return cls._of([[v.numerator]], v.denominator)

    @classmethod
    def var_x(cls):
        return cls._of([[], [1]])

    @classmethod
    def var_y(cls):
        return cls._of([[0, 1]])

    @classmethod
    def from_unipoly(cls, p: UniPoly, var: str) -> "BiPoly":
        if var == "x":
            return cls._of([[v] for v in p.nums], p.denom)
        if var == "y":
            return cls._of([list(p.nums)], p.denom)
        raise ValueError("var must be 'x' or 'y'")

    @property
    def terms(self) -> dict:
        """The coefficients as reduced Fractions, keyed by (i, j)."""
        d = self.denom
        return {(i, j): _q(v, d) for i, row in enumerate(self.rows) for j, v in enumerate(row) if v}

    @property
    def is_zero(self) -> bool:
        return not self.rows

    @property
    def deg_x(self) -> int:
        return len(self.rows) - 1

    @property
    def deg_y(self) -> int:
        return max(map(len, self.rows), default=0) - 1

    def bidegree(self):
        return (self.deg_x, self.deg_y)

    def __eq__(self, other):
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self.denom == other.denom and self.rows == other.rows

    def __hash__(self):
        return hash(("BiPoly", self.rows, self.denom))

    def __repr__(self):
        return f"BiPoly({self.to_str()})"

    def __bool__(self):
        return bool(self.rows)

    # ------------------------------------------------------------------
    # ring arithmetic

    @staticmethod
    def _co(other):
        if isinstance(other, BiPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return BiPoly.constant(other)
        return None

    def _add(self, o: "BiPoly", sign: int) -> "BiPoly":
        """self + sign * o."""
        da, db = self.denom, o.denom
        ma = mb = 1
        if da != db:
            g = _igcd(da, db)
            ma, mb = db // g, da // g
        mb *= sign
        rows = []
        for ra, rb in zip_longest(self.rows, o.rows, fillvalue=()):
            row = [v * ma for v in ra] + [0] * (len(rb) - len(ra))
            for j, v in enumerate(rb):
                row[j] += v * mb
            rows.append(row)
        return BiPoly._of(rows, da * ma)

    def __add__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        return self._add(o, 1)

    __radd__ = __add__

    def __neg__(self):
        return BiPoly._of([[-v for v in row] for row in self.rows], self.denom)

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
        if not self.rows or not o.rows:
            return BiPoly.zero()
        n = self.deg_y + o.deg_y + 1
        prod = _z_mul(_pack(self.rows, n), _pack(o.rows, n))
        return BiPoly._of(_unpack(prod, n), self.denom * o.denom)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        result = BiPoly.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # ------------------------------------------------------------------
    # views

    def coeffs_in_x(self):
        """List of UniPoly in y; index = power of x."""
        d = self.denom
        return [UniPoly._of(list(row), d) for row in self.rows]

    def coeffs_in_y(self):
        return self.swap().coeffs_in_x()

    @classmethod
    def from_coeffs_in_x(cls, coeffs) -> "BiPoly":
        den = _lcm(*(p.denom for p in coeffs))
        return cls._of([[v * (den // p.denom) for v in p.nums] for p in coeffs], den)

    def swap(self) -> "BiPoly":
        rows = [[0] * len(self.rows) for _ in range(self.deg_y + 1)]
        for i, row in enumerate(self.rows):
            for j, v in enumerate(row):
                rows[j][i] = v
        return BiPoly._of(rows, self.denom)

    def eval_y(self, a) -> UniPoly:
        """Substitute y = a; result is a UniPoly in x.  For a = p/q and
        n = deg_y, row i gives the integer q^n row_i(p/q): `_z_value` of the
        row, homogenised to degree n."""
        if not self.rows:
            return UniPoly.zero()
        a = qq(a)
        p, q = a.numerator, a.denominator
        n = self.deg_y
        out = [_z_value(row, p, q) * q ** (n + 1 - len(row)) if row else 0 for row in self.rows]
        return UniPoly._of(out, self.denom * q**n)

    def eval_x(self, a) -> UniPoly:
        """Substitute x = a; result is a UniPoly in y."""
        return self.swap().eval_y(a)

    def derivative_x(self) -> "BiPoly":
        return BiPoly._of([[v * i for v in row] for i, row in enumerate(self.rows)][1:], self.denom)

    def derivative_y(self) -> "BiPoly":
        return BiPoly._of([[v * j for j, v in enumerate(row)][1:] for row in self.rows], self.denom)

    def trunc_y(self, k: int) -> "BiPoly":
        """The terms of y-degree below k."""
        return BiPoly._of([list(row[:k]) for row in self.rows], self.denom)

    def shift_y(self, a) -> "BiPoly":
        """Substitute y -> y + a."""
        return BiPoly.from_coeffs_in_x([p.taylor_shift(a) for p in self.coeffs_in_x()])

    # ------------------------------------------------------------------
    # content, primitive part, canonical form

    def content_x(self) -> UniPoly:
        """Monic gcd over Q[y] of the x-coefficients."""
        g = UniPoly.zero()
        for p in self.coeffs_in_x():
            if not p.is_zero:
                g = p if g.is_zero else g.gcd(p)
                if g.degree == 0:
                    break
        return g.monic() if not g.is_zero else g

    def primitive_part_x(self) -> "BiPoly":
        c = self.content_x()
        if c.is_zero or c == UniPoly.one():
            return self
        return BiPoly.from_coeffs_in_x([p // c for p in self.coeffs_in_x()])

    def leading_term_key(self):
        """The lexicographically largest exponent pair (i, j), or None."""
        return (len(self.rows) - 1, len(self.rows[-1]) - 1) if self.rows else None

    def canonical(self) -> "BiPoly":
        """Integer coprime coefficients with positive lexicographically
        largest term."""
        if self.is_zero:
            return self
        g = _igcd(*chain.from_iterable(self.rows))
        if self.rows[-1][-1] < 0:
            g = -g
        if g == 1 and self.denom == 1:
            return self
        return BiPoly._of([[v // g for v in row] for row in self.rows])

    # ------------------------------------------------------------------
    # division

    def divides(self, other: "BiPoly") -> bool:
        """Exact divisibility test over Q[x, y]."""
        if self.is_zero:
            return other.is_zero
        return other.exact_div(self) is not None

    def exact_div(self, other: "BiPoly"):
        """Exact quotient over Q[x, y], or None when not divisible.  By
        Gauss's lemma the quotient of the images (n = deg_y self + 1) by the
        primitive integer part of other is integral when it exists, and it is
        the image of a bivariate quotient when each row fits in
        deg_y self - deg_y other + 1 slots, since packing is injective."""
        if other.is_zero:
            raise ZeroDivisionError("division by zero")
        if not self.rows:
            return self
        if other.deg_x > self.deg_x or other.deg_y > self.deg_y:
            return None
        n = self.deg_y + 1
        g = _igcd(*chain.from_iterable(other.rows))
        b = [v // g for v in _pack(other.rows, n)]
        q = _z_exact_div(_pack(self.rows, n), b)
        if q is None:
            return None
        rows = _unpack(q, n)
        slots = n - other.deg_y
        if any(any(row[slots:]) for row in rows):
            return None
        d = other.denom
        return BiPoly._of([[v * d for v in row] for row in rows], self.denom * g)

    # ------------------------------------------------------------------

    def to_str(self, vx: str = "x", vy: str = "y") -> str:
        if self.is_zero:
            return "0"
        parts = []
        terms = self.terms
        for (i, j) in sorted(terms, reverse=True):
            v = terms[(i, j)]
            factors = []
            mag = abs(v)
            if mag != 1 or (i == 0 and j == 0):
                factors.append(str(mag) if mag.denominator == 1 else f"{mag.numerator}/{mag.denominator}")
            if i:
                factors.append(vx + (f"^{i}" if i > 1 else ""))
            if j:
                factors.append(vy + (f"^{j}" if j > 1 else ""))
            term = "*".join(factors)
            if not parts:
                parts.append(("-" if v < 0 else "") + term)
            else:
                parts.append(("- " if v < 0 else "+ ") + term)
        return " ".join(parts)


def separated(fn: UniPoly, fd: UniPoly, gn: UniPoly, gd: UniPoly) -> BiPoly:
    """fn(x) gd(y) - gn(y) fd(x), the numerator of f(x) - g(y) for the
    ratios f = fn/fd and g = gn/gd.  With g = y / 1 it is the pencil
    fn(x) - y fd(x) of f, and with g = f the graph numerator of f."""
    return BiPoly.from_unipoly(fn, "x") * BiPoly.from_unipoly(gd, "y") - BiPoly.from_unipoly(
        gn, "y"
    ) * BiPoly.from_unipoly(fd, "x")


# ----------------------------------------------------------------------
# gcds and resultants by evaluation in y and interpolation


def _images(*polys):
    """Yield (y0, [p.eval_y(y0) for p in polys]) at y0 = 0, 1, -1, 2, -2, ...,
    skipping every point at which an image drops in x-degree."""
    degs = [p.deg_x for p in polys]
    for y0 in _centres():
        ims = [p.eval_y(y0) for p in polys]
        if all(u.degree == d for u, d in zip(ims, degs)):
            yield y0, ims


def _interpolate_in_y(images) -> BiPoly:
    """The BiPoly of least y-degree whose image at each y0 is the given
    UniPoly in x, for (y0, UniPoly) pairs with distinct y0."""
    nodes = [(y0.numerator, y0.denominator) for y0, _ in images]
    return BiPoly._of(*_z_interpolate(nodes, [(u.nums, u.denom) for _, u in images]))


def gcd_x(f: BiPoly, g: BiPoly) -> BiPoly:
    """Gcd of f and g viewed in Q(y)[x], returned primitive in Q[y][x]
    in canonical form.

    By evaluation and interpolation in y (Brown 1971).  The gcd G has a
    leading x-coefficient dividing gamma = gcd(lc_x f, lc_x g) (Gauss's
    lemma).  At a point y0 where neither leading coefficient vanishes, G(x,
    y0) divides the monic image gcd h, and they agree up to a constant
    unless y0 is a root of the resultant of the cofactors.  So an h of degree 0 proves the gcd is 1;
    otherwise the images of least degree, scaled by gamma(y0), are images of
    G gamma / lc_x G, whose y-degree is at most
    bound = deg gamma + min(deg_y f, deg_y g).  Past bound + 1 of them the
    interpolant's primitive part is returned once it divides f and g
    exactly.  Contents need no removal: they divide the leading
    coefficients, so they do not vanish at the points used."""
    if f.is_zero:
        return g.primitive_part_x().canonical()
    if g.is_zero:
        return f.primitive_part_x().canonical()
    (dfx, dfy), (dgx, dgy) = f.bidegree(), g.bidegree()
    best, kept, limit = min(dfx, dgx) + 1, [], None
    for used, (y0, (fy, gy)) in enumerate(_images(f, g), 1):
        if limit is not None and used > limit:
            raise TheoremViolation("gcd_x found no certified gcd within its point bound")
        h = fy.gcd(gy)
        if h.degree == 0:
            return BiPoly.constant(1)
        if h.degree < best:
            # every earlier image had too high a degree
            best, kept = h.degree, []
        elif h.degree > best:
            continue
        if limit is None:
            # built at the first image of positive degree; unlucky points are
            # roots of the cofactors' resultant, at most dfx dgy + dgx dfy
            gamma = f.coeffs_in_x()[-1].gcd(g.coeffs_in_x()[-1])
            bound = gamma.degree + min(dfy, dgy)
            limit = bound + 1 + dfx * dgy + dgx * dfy
        kept.append((y0, h * gamma(y0)))
        if len(kept) > bound:
            cand = _interpolate_in_y(kept).primitive_part_x().canonical()
            if f.exact_div(cand) is not None and g.exact_div(cand) is not None:
                return cand


def resultant_x(f: BiPoly, g: BiPoly) -> UniPoly:
    """Res_x of two polynomials in (x, y); the result is a UniPoly in y."""
    if f.is_zero or g.is_zero:
        return UniPoly.zero()
    dfx, dgx = f.deg_x, g.deg_x
    if dfx == 0 and dgx == 0:
        return UniPoly.one()
    if dfx == 0:
        return f.coeffs_in_x()[0] ** dgx
    if dgx == 0:
        return g.coeffs_in_x()[0] ** dfx
    bound = dfx * g.deg_y + dgx * f.deg_y
    points = islice(_images(f, g), bound + 1)
    return UniPoly.interpolate([(y0, fy.resultant(gy)) for y0, (fy, gy) in points])


def resultant_x_mixed(f: BiPoly, g: BiPoly) -> BiPoly:
    """Res_x of f in variables (x, s) and g in variables (x, t); the result
    lives in (s, t) packed as a BiPoly with s as first variable."""
    if f.is_zero or g.is_zero:
        return BiPoly.zero()
    if f.deg_x == 0:
        # f depends on s only
        c = f.coeffs_in_x()[0]
        return BiPoly.from_unipoly(c ** g.deg_x, "x")
    if g.deg_x == 0:
        c = g.coeffs_in_x()[0]
        return BiPoly.from_unipoly(c ** f.deg_x, "y")
    # one resultant in t per s0, interpolated in s
    points = islice(_images(f), f.deg_y * g.deg_x + 1)
    slices = [(s0, resultant_x(BiPoly.from_unipoly(fs, "x"), g)) for s0, (fs,) in points]
    return _interpolate_in_y(slices).swap()


def squarefree_reduction_x(prim: BiPoly) -> BiPoly:
    """prim / gcd_x(prim, d prim / dx), the squarefree part over Q(y) of a
    polynomial prim primitive in x."""
    g = gcd_x(prim, prim.derivative_x())
    if g.deg_x < 1:
        return prim
    sf = prim.exact_div(g)
    if sf is None:
        raise PreconditionError("squarefree reduction failed to divide")
    return sf


def squarefree_part_x(f: BiPoly) -> BiPoly:
    """Squarefree part of f with respect to total factorization over Q(y),
    keeping the content in y squarefree as well."""
    if f.is_zero:
        return f
    cont = f.content_x()
    prim = f.primitive_part_x()
    out = BiPoly.from_unipoly(cont.squarefree_part(), "y") if cont.degree >= 1 else BiPoly.constant(1)
    if prim.deg_x >= 1:
        prim = squarefree_reduction_x(prim)
    return (out * prim).canonical()
