"""Arithmetic in Q[c]/(m(c)) for a monic irreducible modulus m.

Field elements are reduced residue polynomials.  The library computes
fibers over Q from preimage places; this field arithmetic is the
independent oracle the tests check places against.
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
