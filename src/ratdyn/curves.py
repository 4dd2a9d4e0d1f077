"""Algebraic curves in the product of two projective lines.

Curves are primitive squarefree bivariate polynomials in canonical form.
Two constructions carry every elimination here: `bipolys.separated`, the
numerator of f(x) - g(y), gives separated curves Y1(x) = Y2(y) and the
pencils num(x) - y den(x) of a map; `polynomials.homogenize` substitutes
maps into a curve, one variable at a time.  An irreducible curve F = 0
that is not a line is carried into a curve G = 0 exactly when F divides
the pullback of G, the numerator of G(A1(x), A2(y)); that one exact
division answers invariance, periodicity and membership.  Where the image
itself is the answer it comes from resultants against the pencils, and
the same division picks its factor out of the eliminant (a
parametrization is the image of the diagonal).  The genus of an
irreducible separated curve comes from the fiber-pairing count
2 - 2g = 2pq - sum(ab - gcd(a, b)); a count above 2 proves that the curve
splits into conjugate components over an extension, and is refused.  A
genus is returned only when the curve is certified irreducible over the
algebraic closure, by a rational point of its smooth model or by a fibre
whose residue degrees have gcd 1; without a certificate the answer is
Inconclusive."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from math import gcd as _igcd

from .bipolys import BiPoly, resultant_x_mixed, separated, squarefree_part_x
from .errors import Inconclusive, PreconditionError, ReducibleCurve, TheoremViolation
from .factoring import factor_bivariate, factor_univariate
from .memo import memo
from .parser import MAX_DEGREE
from .places import Place, critical_values, fiber_partition, local_degree, rational_points_in_fiber
from .polynomials import UniPoly, homogenize
from .ratmaps import INF, RatMap


class BiCurve:
    """Primitive squarefree curve with canonical sign."""

    __slots__ = ("poly",)

    def __init__(self, poly: BiPoly, normalize: bool = True):
        if poly.is_zero:
            raise PreconditionError("a curve needs a nonzero polynomial")
        if normalize:
            poly = squarefree_part_x(poly).canonical()
        if poly.deg_x <= 0 and poly.deg_y <= 0:
            raise PreconditionError("a curve cannot be a constant")
        self.poly = poly

    @property
    def bidegree(self):
        return (self.poly.deg_x, self.poly.deg_y)

    def __eq__(self, other):
        if not isinstance(other, BiCurve):
            return NotImplemented
        return self.poly == other.poly

    def __hash__(self):
        return hash(("BiCurve", self.poly))

    def __repr__(self):
        return f"BiCurve({self.poly.to_str()})"

    def to_str(self):
        return self.poly.to_str()

    def sort_key(self):
        return (self.poly.deg_x + self.poly.deg_y, sorted(self.poly.terms.items()))

    def factor(self):
        _, facs = factor_bivariate(self.poly)
        return [(BiCurve(f, normalize=False), m) for f, m in facs]

    def is_irreducible(self) -> bool:
        facs = self.factor()
        return len(facs) == 1 and facs[0][1] == 1


@dataclass(frozen=True)
class ParamCurve:
    X1: RatMap
    X2: RatMap

    def __post_init__(self):
        if self.X1.degree < 1 or self.X2.degree < 1:
            raise PreconditionError("parametrizations need nonconstant coordinates")


def separated_curve(Y1: RatMap, Y2: RatMap) -> BiCurve:
    """The curve Y1(x) = Y2(y)."""
    if Y1.degree < 1 or Y2.degree < 1:
        raise PreconditionError("separated curves need nonconstant maps")
    return BiCurve(separated(Y1.num, Y1.den, Y2.num, Y2.den))


def substitute_maps(F: BiPoly, A1: RatMap, A2: RatMap) -> BiPoly:
    """Numerator of F(A1(x), A2(y)): the coefficient in y of each power of
    x substituted in y, then the coefficient in x of each power of y
    substituted in x."""
    G = BiPoly.from_coeffs_in_x(homogenize(F.coeffs_in_x(), A2.num, A2.den, F.deg_y)).swap()
    return BiPoly.from_coeffs_in_x(homogenize(G.coeffs_in_x(), A1.num, A1.den, F.deg_x)).swap()


def _pencil(A: RatMap) -> BiPoly:
    """num(x) - y den(x): the graph of A, eliminated against in x."""
    return separated(A.num, A.den, UniPoly.x(), UniPoly.one())


def _image(r: BiPoly, F: BiPoly, A1: RatMap, A2: RatMap, failure: str) -> BiCurve:
    """The image of the irreducible curve F = 0 under (A1, A2), from an
    eliminant r vanishing on it: the one irreducible factor of r whose
    pullback F divides; `failure` names the violation when there is not
    exactly one."""
    _, facs = factor_bivariate(r)
    keep = []
    for G, _ in facs:
        pull = substitute_maps(G, A1, A2)
        if pull.is_zero:
            raise TheoremViolation("pullback of a candidate factor vanished")
        if F.divides(pull):
            keep.append(G)
    if len(keep) != 1:
        raise TheoremViolation(failure)
    return BiCurve(keep[0], normalize=False)


@memo
def implicitize(par) -> BiCurve:
    """Closure of the image of t -> (X1(t), X2(t)), the image of the
    diagonal x = y under (X1, X2): eliminate t between the two pencils."""
    if not isinstance(par, ParamCurve):
        par = ParamCurve(*par)
    r = resultant_x_mixed(_pencil(par.X1), _pencil(par.X2))
    if r.is_zero:
        raise TheoremViolation("elimination degenerated for a parametrization")
    diagonal = BiPoly.var_x() - BiPoly.var_y()
    return _image(r, diagonal, par.X1, par.X2, "image of an irreducible curve was not irreducible")


def _check_image_data(F: BiPoly, A1: RatMap, A2: RatMap) -> None:
    """Images are taken of curves that are not lines, under nonconstant maps."""
    if F.deg_x < 1 or F.deg_y < 1:
        raise PreconditionError("lines are handled by fixed-point logic")
    if A1.degree < 1 or A2.degree < 1:
        raise PreconditionError("images need nonconstant maps")


def image_curve(C: BiCurve, A1: RatMap, A2: RatMap) -> BiCurve:
    """Defining polynomial of the image of C under (A1, A2); C must be
    irreducible and not a vertical or horizontal line.  The eliminant has
    bidegree at most (deg_x F deg A2, deg_y F deg A1); one past the
    parser's curve budget raises Inconclusive before any elimination."""
    F = C.poly
    _check_image_data(F, A1, A2)
    dx, dy = F.deg_x * A2.degree, F.deg_y * A1.degree
    if (dx + 1) * (dy + 1) - 1 > MAX_DEGREE:
        raise Inconclusive(f"image eliminant of bidegree ({dx}, {dy}) is over the curve budget")
    r1 = resultant_x_mixed(F, _pencil(A1))  # variables (y, u)
    r2 = resultant_x_mixed(r1, _pencil(A2))  # variables (u, v)
    if r2.is_zero:
        raise TheoremViolation("elimination degenerated for an image curve")
    return _image(r2, F, A1, A2, "image curve certificate did not isolate one factor")


@dataclass(frozen=True)
class Line:
    """A vertical (x = value) or horizontal (y = value) line; the value may
    be INF, which the affine curve model cannot carry."""

    axis: str  # 'x' or 'y'
    value: object

    def __repr__(self):
        return f"Line({self.axis} = {self.value})"


def line_is_invariant(line: Line, A1: RatMap, A2: RatMap) -> bool:
    f = A1 if line.axis == "x" else A2
    return f(line.value) == line.value or (line.value is INF and f(INF) is INF)


def is_invariant(C, A1: RatMap, A2: RatMap) -> bool:
    """Exact invariance test; accepts a BiCurve or a Line.  An irreducible
    C : F = 0 is carried into itself exactly when F divides its pullback,
    the numerator of F(A1(x), A2(y)); for a line x = a that numerator is
    num1 - a den1, divisible by x - a exactly when A1 fixes a."""
    if isinstance(C, Line):
        return line_is_invariant(C, A1, A2)
    if not C.is_irreducible():
        raise PreconditionError("invariance is defined for irreducible curves")
    F = C.poly
    if F.deg_x < 1 or F.deg_y < 1:
        if max(F.deg_x, F.deg_y) != 1:
            raise PreconditionError("an irreducible line must have degree one")
    elif A1.degree < 1 or A2.degree < 1:
        raise PreconditionError("images need nonconstant maps")
    return F.divides(substitute_maps(F, A1, A2))


def periodicity(C: BiCurve, A1: RatMap, A2: RatMap, max_n: int):
    """Least n <= max_n with the n-th image equal to C: with C dividing its
    pullback under (A1^n, A2^n).  C must be irreducible, since a reducible
    curve can divide its pullback while being carried onto part of itself."""
    F = C.poly
    _check_image_data(F, A1, A2)
    if not C.is_irreducible():
        raise PreconditionError("periodicity is defined for irreducible curves")
    B1, B2 = A1, A2
    for n in range(1, max_n + 1):
        if n > 1:
            B1, B2 = B1.compose(A1), B2.compose(A2)
        if F.divides(substitute_maps(F, B1, B2)):
            return n
    return None


def preperiodicity(C: BiCurve, A1: RatMap, A2: RatMap, max_l: int, max_n: int):
    """(tail length, period) from the forward orbit, within the caps."""
    orbit = [C]
    for _ in range(max_l + max_n):
        nxt = image_curve(orbit[-1], A1, A2)
        if nxt in orbit:
            tail = orbit.index(nxt)
            period = len(orbit) - tail
            if tail <= max_l and period <= max_n:
                return tail, period
            return None
        orbit.append(nxt)
    return None


# ----------------------------------------------------------------------
# genus of separated curves


# the points x0 and y0 whose values Y1(x0) and Y2(y0) are searched for a
# rational point of the smooth model, and the y0 whose fibres F(x, y0) are
# tried for residue degrees with gcd 1
_TRIAL_POINTS = (INF, 0) + tuple(v for k in range(1, 12) for v in (k, -k))
_TRIAL_FIBERS = (0,) + tuple(v for k in range(1, 8) for v in (k, -k))


@memo
def genus_separated(Y1: RatMap, Y2: RatMap) -> int:
    """Genus of the smooth model of Y1(x) = Y2(y), which must be
    irreducible; 2 - 2g = 2pq - sum over shared values of ab - gcd(a, b).
    The count holds only on a geometrically irreducible curve, so a genus
    is returned only with a certificate of that (`_geometrically_irreducible`);
    without one the answer is Inconclusive."""
    if Y1.degree < 1 or Y2.degree < 1:
        raise PreconditionError("separated curves need nonconstant maps")
    curve = separated_curve(Y1, Y2)
    facs = curve.factor()
    if len(facs) != 1 or facs[0][1] != 1:
        raise ReducibleCurve(
            "the separated curve is reducible", [f.poly for f, _ in facs]
        )
    p, q = Y1.degree, Y2.degree
    places = set()
    if p >= 2:
        places.update(critical_values(Y1))
    if q >= 2:
        places.update(critical_values(Y2))
    total = 0
    for c in places:
        fp1 = fiber_partition(Y1, c)
        fp2 = fiber_partition(Y2, c)
        local = 0
        for a, ca in fp1:
            for b, cb in fp2:
                local += ca * cb * (a * b - _igcd(a, b))
        total += local * c.degree
    two_minus_2g = 2 * p * q - total
    if two_minus_2g % 2 != 0:
        raise TheoremViolation("parity failure in the genus count")
    if two_minus_2g > 2:
        # k >= 2 conjugate components of genus g_c count k (2 - 2 g_c)
        raise ReducibleCurve(
            "the separated curve splits into conjugate components over an extension"
        )
    if not _geometrically_irreducible(curve.poly, Y1, Y2):
        raise Inconclusive(
            "no certificate that the separated curve is geometrically irreducible:"
            " it may split into conjugate components over an extension"
        )
    return (2 - two_minus_2g) // 2


def _geometrically_irreducible(F: BiPoly, Y1: RatMap, Y2: RatMap) -> bool:
    """True when one of two certificates proves that the Q-irreducible curve
    F : Y1(x) = Y2(y) stays irreducible over the algebraic closure.  Its
    k components over Q-bar are conjugate, and k divides the degree of every
    closed point of its smooth model, whose residue field contains the
    field that a component is defined over.  So k = 1 follows from
    - a rational point of the smooth model.  Over a rational point (x0, y0)
      with local degrees a = e_Y1(x0) and b = e_Y2(y0) the curve has
      gcd(a, b) branches, as in the genus count; when gcd(a, b) = 1 the one
      branch is rational.  With a = 1 or b = 1 this is a smooth rational
      point.  The values tried are the rational critical values of Y2, then
      of Y1, then Y1 and Y2 at the small points in _TRIAL_POINTS;
    - or a squarefree fibre F(x, y0) whose irreducible factors have
      degrees with gcd 1: the line y = y0 meets the curve transversally at
      each of its points, so they are smooth, and each factor is a closed
      point of the smooth model.
    False means neither was found, not that the curve splits."""
    values = chain(
        (c.rational_value() for Y in (Y2, Y1) if Y.degree >= 2 for c in critical_values(Y)),
        (Y1(x0) for x0 in _TRIAL_POINTS),
        (Y2(y0) for y0 in _TRIAL_POINTS),
    )
    seen = set()
    for v in values:
        if v is None or v in seen:
            continue
        seen.add(v)
        if _rational_branch_over(v, Y1, Y2):
            return True
    for y0 in _TRIAL_FIBERS:
        fibre = F.eval_y(y0)
        if fibre.degree >= 1 and fibre.is_squarefree():
            degrees = [g.degree for g, _ in factor_univariate(fibre)[1]]
            if _igcd(*degrees) == 1:
                return True
    return False


def _rational_branch_over(v, Y1: RatMap, Y2: RatMap) -> bool:
    """Whether the curve Y1(x) = Y2(y) has a rational point (x0, y0) with
    Y1(x0) = Y2(y0) = v and gcd(e_Y1(x0), e_Y2(y0)) = 1."""
    xs = rational_points_in_fiber(Y1, v)
    ys = rational_points_in_fiber(Y2, v) if xs else []
    b = {local_degree(Y2, Place.of_rational(y)) for y in ys}
    for x in xs if b else ():
        a = local_degree(Y1, Place.of_rational(x))
        if any(_igcd(a, j) == 1 for j in b):
            return True
    return False


# ----------------------------------------------------------------------
# certificate report for the periodic-curve characterization


@dataclass
class IdentityReport:
    ok: bool
    checks: list = field(default_factory=list)  # (name, passed)
    curve: BiCurve | None = None
    conjugator: RatMap | None = None

    def failures(self):
        return [name for name, passed in self.checks if not passed]


def periodic_curve_certificate(X1, X2, Y1, Y2, A1, A2, n: int) -> IdentityReport:
    """Check the full identity set for a periodic-curve certificate and
    emit the parametrized curve plus its separated container."""
    for f in (X1, X2, Y1, Y2):
        if f.degree < 1:
            raise PreconditionError("certificate maps must be nonconstant")
    checks = []
    e1 = X1.compose(Y1) == A1.iterate(n)
    checks.append(("outer factorization through the first coordinate", e1))
    e2 = X2.compose(Y2) == A2.iterate(n)
    checks.append(("outer factorization through the second coordinate", e2))
    B1 = Y1.compose(X1)
    B2 = Y2.compose(X2)
    e3 = B1 == B2
    checks.append(("shared conjugated return map", e3))
    ok = e1 and e2 and e3
    report = IdentityReport(ok=ok, checks=checks)
    if not ok:
        return report
    B = B1
    e4 = X1.compose(B) == A1.iterate(n).compose(X1) and X2.compose(B) == A2.iterate(n).compose(X2)
    checks.append(("commuting square through the parametrization", e4))
    report.ok = ok and e4
    report.conjugator = B
    C = implicitize(ParamCurve(X1, X2))
    report.curve = C
    member = C.poly.divides(separated_curve(Y1, Y2).poly)
    checks.append(("parametrized curve is a component of the separated curve", member))
    report.ok = report.ok and member
    return report
