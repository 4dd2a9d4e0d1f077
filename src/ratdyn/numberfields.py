"""Arithmetic in Q[c]/(m(c)) for a monic irreducible modulus m.

Only what fiber computations need: field elements as reduced residue
polynomials, and gcd / squarefree machinery for polynomials with such
coefficients.  Char 0 throughout, so Yun-style multiplicity extraction
is just a gcd chain.
"""

from __future__ import annotations

from .errors import PreconditionError
from .polynomials import UniPoly


class NumberField:
    """Q[c]/(m(c)); elements are UniPoly residues of degree < deg m."""

    __slots__ = ("modulus",)

    def __init__(self, modulus: UniPoly):
        if modulus.degree < 1 or modulus.lc != 1:
            raise PreconditionError("modulus must be monic of positive degree")
        self.modulus = modulus

    @property
    def degree(self) -> int:
        return self.modulus.degree

    def el(self, p) -> UniPoly:
        if not isinstance(p, UniPoly):
            p = UniPoly.constant(p)
        return p % self.modulus

    def gen(self) -> UniPoly:
        return self.el(UniPoly.x())

    def add(self, a, b):
        return self.el(a + b)

    def sub(self, a, b):
        return self.el(a - b)

    def mul(self, a, b):
        return self.el(a * b)

    def inv(self, a):
        a = self.el(a)
        if a.is_zero:
            raise ZeroDivisionError("inverse of zero in a number field")
        g, u, _ = a.xgcd(self.modulus)
        if g.degree != 0:
            raise PreconditionError("modulus is not irreducible")
        return self.el(u * (1 / g.c[0]))

    def is_zero(self, a) -> bool:
        return self.el(a).is_zero


# polynomials over the field: lists of elements, lowest degree first


def kp_trim(field, a):
    while a and field.is_zero(a[-1]):
        a.pop()
    return a


def kp_from_unipoly(field: NumberField, p: UniPoly):
    return [field.el(v) for v in p.c]


def kp_degree(a) -> int:
    return len(a) - 1


def kp_divmod(field, a, b):
    if not b:
        raise ZeroDivisionError
    inv = field.inv(b[-1])
    rem = list(a)
    dq = len(rem) - len(b)
    if dq < 0:
        return [], kp_trim(field, rem)
    quo = [field.el(0) for _ in range(dq + 1)]
    for k in range(dq, -1, -1):
        top = rem[k + len(b) - 1]
        if not top.is_zero:
            c = field.mul(top, inv)
            quo[k] = c
            for j, bj in enumerate(b):
                rem[k + j] = field.sub(rem[k + j], field.mul(c, bj))
    return kp_trim(field, quo), kp_trim(field, rem[: len(b) - 1])


def kp_monic(field, a):
    if not a:
        return []
    inv = field.inv(a[-1])
    return [field.mul(v, inv) for v in a]


def kp_gcd(field, a, b):
    a, b = list(a), list(b)
    while b:
        a, b = b, kp_divmod(field, a, b)[1]
    return kp_monic(field, a)


def kp_derivative(field, a):
    return kp_trim(field, [field.mul(v, field.el(i)) for i, v in enumerate(a)][1:])


def kp_multiplicity_profile(field, a):
    """Multiplicity structure of a nonzero polynomial over the field:
    sorted list of (multiplicity, degree of the squarefree slice)."""
    a = kp_monic(field, list(a))
    if kp_degree(a) < 1:
        return []
    out = []
    g = kp_gcd(field, a, kp_derivative(field, a))
    w = kp_divmod(field, a, g)[0]
    i = 1
    while kp_degree(w) >= 1:
        y = kp_gcd(field, w, g)
        fpart = kp_divmod(field, w, y)[0]
        if kp_degree(fpart) >= 1:
            out.append((i, kp_degree(fpart)))
        w, g = y, kp_divmod(field, g, y)[0]
        i += 1
    out.sort()
    return out

