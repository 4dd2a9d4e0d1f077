"""Expression parsing for maps in z and curves in x, y.

Precedence, loosest first: composition (o), addition, multiplication,
unary minus, powers.  The power operator also carries the iteration
suffix: f^o3 (or with the ring operator symbol) is the third iterate.
Whitespace is insignificant.  Chebyshev aliases T1 .. T12 are built in.

Input size is bounded before any work: every sum, product, quotient,
power, composition and iterate, and the parsed result, must fit
MAX_DEGREE.  A map fits when its degree is at most MAX_DEGREE; a curve of
bidegree (dx, dy) when (dx + 1)(dy + 1) - 1 is, the degree of its
Kronecker image x -> z, y -> z^(dx + 1), so both carry at most
MAX_DEGREE + 1 coefficients.  The bound on a result is taken from its
operands' degrees before it is built.  A sum's terms are all parsed
first: over the product of their denominators, a sum of maps n_i / d_i
has degree at most max(max_i(deg n_i + sum_{j != i} deg d_j), sum_j
deg d_j), and a sum of curves the largest degree of its terms in each
variable.

A map parse keeps every polynomial subexpression (constants, z, T1 ..
T12, sums, differences, products, non-negative powers and quotients by a
nonzero constant) as a `UniPoly`, with no gcd.  It builds a reduced
`RatMap` only at a quotient by a nonconstant polynomial, at a
composition, an iterate or a negative power, and for the result.  The
budget reads the same degrees as an all-`RatMap` parse would, since a
polynomial's degree is exact and every `RatMap` is reduced; only the zero
polynomial reads -1 where the zero map reads 0, which changes no verdict,
as every value has degree at most MAX_DEGREE.  `parse_map`
is memoised (`ratdyn.memo`): a repeated text, or a refused one, is
answered from the cache, its `ParseError.position` included.
"""

from __future__ import annotations

from fractions import Fraction

from .bipolys import BiPoly
from .errors import ParseError
from .memo import memo
from .polynomials import UniPoly
from .ratmaps import RatMap, _chebyshev_poly

# the largest degree a parsed map, or the Kronecker image of a parsed
# curve, may have at any step of the parse
MAX_DEGREE = 4096


class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens = []
        self._run()

    def _run(self):
        t = self.text
        i = 0
        while i < len(t):
            ch = t[i]
            if ch.isspace():
                i += 1
                continue
            if ch.isdigit():
                j = i
                while j < len(t) and t[j].isdigit():
                    j += 1
                try:
                    value = int(t[i:j])
                except ValueError as exc:  # over the interpreter's digit limit
                    raise ParseError("number too long", position=i) from exc
                self.tokens.append(("num", value, i))
                i = j
                continue
            if ch.isalpha():
                j = i
                while j < len(t) and (t[j].isalnum() or t[j] == "_"):
                    j += 1
                self.tokens.append(("ident", t[i:j], i))
                i = j
                continue
            if ch in "+-*/^()":
                self.tokens.append((ch, ch, i))
                i += 1
                continue
            if ch == "∘":  # ring operator, same as the letter o
                self.tokens.append(("ident", "o", i))
                i += 1
                continue
            raise ParseError(f"unexpected character {ch!r}", position=i)
        self.tokens.append(("end", None, len(t)))


class _Parser:
    """Shared recursive-descent core; the atom hook fixes the algebra."""

    def __init__(self, text: str):
        self.text = text
        self.toks = _Lexer(text).tokens
        self.k = 0

    def peek(self):
        return self.toks[self.k]

    def next(self):
        tok = self.toks[self.k]
        self.k += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", position=tok[2])
        return tok

    def fail(self, message):
        tok = self.peek()
        raise ParseError(message, position=tok[2])

    # expression := composition chain over additive terms
    def parse(self):
        value = self.composition()
        if self.peek()[0] != "end":
            self.fail(f"trailing input {self.peek()[1]!r}")
        self.budget(self.degrees(value), 0)
        return value

    def composition(self):
        value = self.additive()
        while self.peek()[0] == "ident" and self.peek()[1] == "o":
            at = self.next()[2]
            rhs = self.additive()
            self.budget([a * b for a, b in zip(self.degrees(value), self.degrees(rhs))], at)
            value = self.compose(value, rhs)
        return value

    def additive(self):
        # the sum is bounded from all of its terms before any addition
        value = self.multiplicative()
        at = self.peek()[2]
        terms = []
        while self.peek()[0] in ("+", "-"):
            terms.append((self.next()[0], self.multiplicative()))
        if terms:
            self.budget(self.sum_degrees([value] + [t for _, t in terms]), at)
        for op, rhs in terms:
            value = value + rhs if op == "+" else value - rhs
        return value

    def multiplicative(self):
        value = self.unary()
        while self.peek()[0] in ("*", "/"):
            op, _, at = self.next()
            rhs = self.unary()
            self.budget([a + b for a, b in zip(self.degrees(value), self.degrees(rhs))], at)
            value = value * rhs if op == "*" else self.divide(value, rhs)
        return value

    def unary(self):
        if self.peek()[0] == "-":
            self.next()
            return -self.unary()
        if self.peek()[0] == "+":
            self.next()
            return self.unary()
        return self.power()

    def power(self):
        base = self.atom()
        while self.peek()[0] == "^":
            at = self.next()[2]
            tok = self.peek()
            if tok[0] == "ident" and tok[1].startswith("o") and tok[1][1:].isdigit():
                self.next()
                count = int(tok[1][1:])
            elif tok[0] == "ident" and tok[1] == "o":
                self.next()
                count = self.expect("num")[1]
            else:
                sign = 1
                if tok[0] == "-":
                    self.next()
                    sign = -1
                e = sign * self.expect("num")[1]
                if abs(e) > 512:
                    raise ParseError("exponent too large", position=at)
                self.budget([abs(e) * d for d in self.degrees(base)], at)
                base = self.int_power(base, e)
                continue
            if not 1 <= count <= MAX_DEGREE:
                raise ParseError(f"iteration count must be in 1..{MAX_DEGREE}", position=at)
            self.budget([d**count for d in self.degrees(base)], at)
            base = self.iterate(base, count)
        return base

    def atom(self):
        tok = self.next()
        if tok[0] == "num":
            return self.constant(tok[1])
        if tok[0] == "(":
            value = self.composition()
            self.expect(")")
            return value
        if tok[0] == "ident":
            return self.identifier(tok[1], tok[2])
        raise ParseError(f"unexpected token {tok[1]!r}", position=tok[2])

    def budget(self, degrees, at):
        """Refuse a value of the given degree bounds, one per variable, when
        its dense coefficient count exceeds MAX_DEGREE + 1."""
        size = 1
        for d in degrees:
            size *= max(d, 0) + 1
        if size - 1 > MAX_DEGREE:
            raise ParseError(f"degree over the budget of {MAX_DEGREE}", position=at)

    # algebra hooks
    def degrees(self, value):
        raise NotImplementedError

    def sum_degrees(self, terms):
        """Degree bounds, one per variable, on the sum of the terms."""
        raise NotImplementedError

    def constant(self, n):
        raise NotImplementedError

    def identifier(self, name, pos):
        raise NotImplementedError

    def compose(self, f, g):
        raise NotImplementedError

    def iterate(self, f, k):
        raise NotImplementedError

    def int_power(self, base, e):
        """base^e by repeated squaring."""
        out = self.constant(1)
        n = abs(e)
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        if e < 0:
            out = self.divide(self.constant(1), out)
        return out

    def divide(self, a, b):
        try:
            return a / b
        except ZeroDivisionError as exc:
            raise ParseError("division by zero") from exc


class _MapParser(_Parser):
    """Maps in z.  A polynomial value stays a `UniPoly`; a reduced `RatMap`
    is built only at a quotient by a nonconstant polynomial, at `o`, `^oN`
    and a negative power, and for the result (`_as_map`)."""

    def degrees(self, value):
        # a RatMap is reduced, so its degree is exact, as a polynomial's is
        return (value.degree,)

    def sum_degrees(self, terms):
        # over the product of the denominators, term i contributes
        # deg n_i + sum of deg d_j over j != i to the numerator
        parts = [(t.degree, 0) if isinstance(t, UniPoly) else (t.num.degree, t.den.degree) for t in terms]
        dens = sum(d for _, d in parts)
        return (max(dens + max(n - d for n, d in parts), dens),)

    def constant(self, n):
        return UniPoly.constant(n)

    def identifier(self, name, pos):
        if name == "z":
            return UniPoly.x()
        if name.startswith("T") and name[1:].isdigit():
            k = int(name[1:])
            if 1 <= k <= 12:
                return _chebyshev_poly(k)
        raise ParseError(f"unknown name {name!r}", position=pos)

    def compose(self, f, g):
        return _as_map(f).compose(_as_map(g))

    def iterate(self, f, k):
        return _as_map(f).iterate(k)

    def divide(self, a, b):
        # a RatMap on either side divides as a map (RatMap coerces a UniPoly)
        if isinstance(b, UniPoly):
            if b.is_zero:
                raise ParseError("division by zero")
            if b.is_constant:
                return a * (1 / b.lc)
            if isinstance(a, UniPoly):
                return RatMap(a, b)
        return super().divide(a, b)


def _as_map(value) -> RatMap:
    """A parsed value, `UniPoly` or `RatMap`, as a map."""
    return value if isinstance(value, RatMap) else RatMap.from_poly(value)


class _CurveParser(_Parser):
    def degrees(self, value):
        return value.bidegree()

    def sum_degrees(self, terms):
        return tuple(max(ds) for ds in zip(*(t.bidegree() for t in terms)))

    def constant(self, n):
        return BiPoly.constant(n)

    def identifier(self, name, pos):
        if name == "x":
            return BiPoly.var_x()
        if name == "y":
            return BiPoly.var_y()
        raise ParseError(f"unknown curve variable {name!r}", position=pos)

    def compose(self, f, g):
        raise ParseError("composition is not defined for curves")

    def iterate(self, f, k):
        raise ParseError("iteration is not defined for curves")

    def divide(self, a, b):
        if isinstance(b, BiPoly):
            if b.deg_x > 0 or b.deg_y > 0:
                raise ParseError("curves admit division by constants only")
            b = b.terms.get((0, 0), Fraction(0))
        if b == 0:
            raise ParseError("division by zero")
        return a * (Fraction(1) / Fraction(b))


@memo
def parse_map(text: str) -> RatMap:
    """Exact rational map from an expression in z."""
    return _as_map(_MapParser(text).parse())


def parse_curve(text: str) -> BiPoly:
    """Bivariate polynomial from an expression in x and y."""
    value = _CurveParser(text).parse()
    if not isinstance(value, BiPoly):
        raise ParseError("expression did not produce a curve polynomial")
    if value.is_zero:
        raise ParseError("the zero polynomial defines no curve")
    return value
