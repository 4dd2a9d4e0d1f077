import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from ratdyn.bipolys import BiPoly, gcd_x, resultant_x, resultant_x_mixed, separated
from ratdyn.decompose import graph_numerator
from ratdyn.polynomials import UniPoly
from ratdyn.ratmaps import RatMap

from oracles import (
    bi_add,
    bi_coeffs_in_x,
    bi_exact_div,
    bi_eval_x,
    bi_eval_y,
    bi_mul,
    bi_value,
    frac_eval,
    prs_gcd_x,
    resultant_y,
    sylvester_resultant,
)

X = BiPoly.var_x()
Y = BiPoly.var_y()


def test_arithmetic_and_views():
    f = X**2 - Y**2
    assert f.deg_x == 2 and f.deg_y == 2
    assert f.eval_y(3) == UniPoly.of(-9, 0, 1)
    assert f.eval_x(2)(1) == 3
    cs = f.coeffs_in_x()
    assert cs[0] == UniPoly.of(0, 0, -1)
    assert cs[2] == UniPoly.one()
    assert BiPoly.from_coeffs_in_x(cs) == f


def test_canonical_form():
    f = (X - Y) * Fraction(-2, 3)
    g = f.canonical()
    assert g == X - Y


def test_exact_division():
    f = (X**2 + Y) * (X * Y - 1)
    assert f.exact_div(X**2 + Y) == X * Y - 1
    assert f.exact_div(X + Y) is None
    q = X**3 * Y - 2 * X + Y**2
    # a divisor of x-degree 0
    d = Y**2 + 1
    assert (q * d).exact_div(d) == q
    assert (q * d + X).exact_div(d) is None
    # a constant divisor divides everything
    c = BiPoly.constant(Fraction(3, 2))
    assert (q * c).exact_div(c) == q
    assert q.exact_div(c) == q * Fraction(2, 3)
    # a pure power of x
    assert (q * X**2).exact_div(X**2) == q
    assert q.exact_div(X**2) is None
    # a dividend whose x^1 row is zero
    f = (X**2 + 1) * (Y + 1)
    assert f.rows[1] == ()
    assert f.exact_div(Y + 1) == X**2 + 1
    assert f.exact_div(X**2 + 1) == Y + 1
    assert f.exact_div(X + 1) is None
    assert BiPoly.zero().exact_div(d) == BiPoly.zero()
    # a divisor with integer content: its images divide only once it is removed
    assert (X + 2 * Y).exact_div(2 * X + 4 * Y) == BiPoly.constant(Fraction(1, 2))


def test_exact_division_rejects_a_quotient_that_wraps():
    # the images are (z^2 - z^3) / (1 - z) = z^2 with n = 3, an exact
    # univariate quotient that lands in the y^2 slot, past deg_y 2 - 1
    assert (Y**2 - X).exact_div(1 - Y) is None
    assert bi_exact_div(Y**2 - X, 1 - Y) is None
    assert (Y**2 - 1).exact_div(1 - Y) == -1 - Y


def test_reflected_subtraction():
    assert 1 - Y == BiPoly.constant(1) - Y == -(Y - 1)
    assert Fraction(1, 2) - X * Y == BiPoly({(0, 0): Fraction(1, 2), (1, 1): -1})


def test_divides():
    f = X**2 - Y**2
    assert (X - Y).divides(f)
    assert not (X + 1).divides(f)


def test_gcd_x():
    f = (X - Y) * (X + Y)
    g = (X - Y) * (X**2 + Y)
    assert gcd_x(f, g) == (X - Y).canonical()
    assert gcd_x(X - Y, X + Y) == BiPoly.constant(1)


def test_resultant_linear_case():
    # res_x(x - y, x - 2y) by the 2x2 Sylvester determinant
    f = X - Y
    g = X - 2 * Y
    assert resultant_x(f, g) == UniPoly.of(0, -1)  # -y


def test_resultant_evaluation_case():
    f = X**2 - Y
    g = X - 1
    assert resultant_x(f, g) == UniPoly.of(1, -1)  # 1 - y


def test_resultant_sign_case():
    assert resultant_x(X - Y, X + Y) == UniPoly.of(0, 2)  # 2y


def test_resultant_matches_specialization():
    rng = random.Random(17)
    for _ in range(15):
        f = _rand_bi(rng)
        g = _rand_bi(rng)
        if f.deg_x < 1 or g.deg_x < 1:
            continue
        r = resultant_x(f, g)
        lf = f.coeffs_in_x()[-1]
        lg = g.coeffs_in_x()[-1]
        for y0 in (Fraction(2), Fraction(-3), Fraction(5)):
            if lf(y0) == 0 or lg(y0) == 0:
                continue
            assert r(y0) == sylvester_resultant(f.eval_y(y0), g.eval_y(y0))


def test_resultant_multiplicativity():
    f = X - Y
    g = X + Y**2
    h = X**2 + Y + 1
    lhs = resultant_x(f * g, h)
    rhs = resultant_x(f, h) * resultant_x(g, h)
    assert lhs == rhs


def test_resultant_y_is_transpose():
    f = X**2 - Y
    g = X - Y**2
    assert resultant_y(f, g) == resultant_x(f.swap(), g.swap())


def test_mixed_resultant_eliminates_shared_variable():
    # eliminate t from x = t^2, y = t^3: the cuspidal relation
    f = BiPoly({(2, 0): 1}) - Y  # t^2 - x with t in the first slot
    g = BiPoly({(3, 0): 1}) - Y  # t^3 - y
    r = resultant_x_mixed(f, g)
    assert r.canonical() == (X**3 - Y**2).canonical()


def _rand_bi(rng):
    terms = {}
    for _ in range(rng.randrange(2, 6)):
        terms[(rng.randrange(0, 3), rng.randrange(0, 3))] = Fraction(
            rng.randrange(-4, 5)
        )
    return BiPoly(terms)


# ----------------------------------------------------------------------
# the stored form: integer rows in x over one denominator

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)


def _terms_of_rows(rows):
    return {(i, j): v for i, row in enumerate(rows) for j, v in enumerate(row) if v}


# bidegrees up to (8, 8); inner rows may be empty, all zero or end in zeros
bi_terms = st.lists(
    st.lists(st.one_of(st.just(Fraction(0)), rationals), max_size=9), max_size=9
).map(_terms_of_rows)


def assert_normal_form(f):
    assert type(f.denom) is int and f.denom > 0
    assert type(f.rows) is tuple
    for row in f.rows:
        assert type(row) is tuple and all(type(v) is int for v in row)
        assert not row or row[-1] != 0
    if f.rows:
        assert f.rows[-1]
        assert math.gcd(f.denom, *(v for row in f.rows for v in row)) == 1
    else:
        assert f.denom == 1
    assert f.terms == {
        (i, j): Fraction(v, f.denom) for i, row in enumerate(f.rows) for j, v in enumerate(row) if v
    }


@settings(max_examples=80, deadline=None)
@given(bi_terms, bi_terms)
def test_bipoly_ring_matches_fraction_oracle(a, b):
    f, g = BiPoly(a), BiPoly(b)
    a, b = f.terms, g.terms
    for r, want in (
        (f + g, bi_add(a, b)),
        (f - g, bi_add(a, b, -1)),
        (f * g, bi_mul(a, b)),
        (f.swap(), {(j, i): v for (i, j), v in a.items()}),
    ):
        assert_normal_form(r)
        assert r.terms == want


@settings(max_examples=80, deadline=None)
@given(bi_terms, rationals)
def test_bipoly_views_match_fraction_oracle(a, t):
    f = BiPoly(a)
    a = f.terms
    assert f.eval_x(t).c == bi_eval_x(a, t)
    assert f.eval_y(t).c == bi_eval_y(a, t)
    assert [p.c for p in f.coeffs_in_x()] == bi_coeffs_in_x(a)
    assert BiPoly.from_coeffs_in_x(f.coeffs_in_x()) == f
    for r in (f.derivative_x(), f.derivative_y(), f.canonical(), f.shift_y(t)):
        assert_normal_form(r)
    if f:
        assert f.canonical().denom == 1


@settings(max_examples=80, deadline=None)
@given(bi_terms, bi_terms)
def test_bipoly_equality_and_hash_follow_the_terms(a, b):
    f, g = BiPoly(a), BiPoly(b)
    assert (f == g) == (f.terms == g.terms)
    for u, v in ((f, BiPoly(f.terms)), ((f + g) - g, f), (f * g, g * f), (f.swap().swap(), f)):
        assert_normal_form(u)
        assert u == v and hash(u) == hash(v)


# ----------------------------------------------------------------------
# gcd in x: evaluation and interpolation against the remainder sequence

small_terms = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.integers(-3, 3).filter(bool),
    min_size=1,
    max_size=4,
)


@settings(max_examples=60, deadline=None)
@given(small_terms, small_terms, small_terms)
def test_gcd_x_matches_remainder_sequence_with_planted_factor(a, b, h):
    f, g, common = BiPoly(a), BiPoly(b), BiPoly(h)
    assert gcd_x(f, g) == prs_gcd_x(f, g)
    assert gcd_x(f * common, g * common) == prs_gcd_x(f * common, g * common)


@pytest.mark.parametrize(
    "f, g, want",
    [
        # y = 0 is an unlucky first point: both images are x (x - 1)
        ((X + Y) * (X - 1), (X - Y) * (X - 1), X - 1),
        # the gcd's leading x-coefficient y vanishes at y = 0
        ((Y * X + 1) * (X + Y), (Y * X + 1) * (X - Y + 2), X * Y + 1),
        # the first two images agree in degree 2 and interpolate to a
        # common multiple of x - 1 that divides f alone
        ((X - 1) * (X + Y), (X - 1) * (X + Y**2), X - 1),
        # the cofactor resultant 4 y (y - 1) takes all the unlucky points
        # the bound allows: y = 0 and 1, before the degree-0 image at -1
        (X + 2 * Y - 1, X**2 - 1, BiPoly.constant(1)),
    ],
)
def test_gcd_x_explicit_cases(f, g, want):
    assert gcd_x(f, g) == prs_gcd_x(f, g) == want


def test_gcd_x_certificate_skips_critical_points():
    # for A = z^3 - 3z + 1, the graph numerator of A o A is not squarefree
    # in x at y = 0, 1, -1 and -2, which are critical points of A o A
    A = RatMap(UniPoly.of(1, -3, 0, 1))
    N = graph_numerator(A.compose(A))
    for y0 in (0, 1, -1, -2):
        assert not N.eval_y(y0).is_squarefree()
    assert gcd_x(N, N.derivative_x()) == BiPoly.constant(1)


@settings(max_examples=60, deadline=None)
@given(small_terms, small_terms)
def test_divides_agrees_with_exact_division(a, b):
    f, g = BiPoly(a), BiPoly(b)
    assert f.divides(f * g)
    assert f.divides(g) == (g.exact_div(f) is not None)
    assert f.divides(g + X * f) == (g.exact_div(f) is not None)


@settings(max_examples=60, deadline=None)
@given(bi_terms, bi_terms, st.integers(0, 8), st.integers(0, 8))
def test_exact_division_undoes_products(a, b, i, j):
    f, g = BiPoly(a), BiPoly(b)
    assume(g)
    assert (f * g).exact_div(g) == f
    # a divisor of a monomial is a monomial
    if len(g.terms) >= 2:
        assert (f * g + X**i * Y**j).exact_div(g) is None


unis = st.lists(rationals, max_size=4).map(UniPoly)


@settings(max_examples=50, deadline=None)
@given(unis, unis, unis, unis, rationals, rationals)
def test_separated_matches_pointwise_values(fn, fd, gn, gd, a, b):
    got = bi_value(separated(fn, fd, gn, gd).terms, a, b)
    assert got == frac_eval(fn.c, a) * frac_eval(gd.c, b) - frac_eval(gn.c, b) * frac_eval(fd.c, a)


@st.composite
def unit_led(draw):
    """+-x^(k+1) + h for an integer h of x-degree k: its packed leading entry
    is +-1, so every quotient entry is an integer and a failing division
    shows only in the remainder."""
    h = BiPoly(draw(small_terms))
    return draw(st.sampled_from([1, -1])) * X ** (h.deg_x + 1) + h


@settings(max_examples=80, deadline=None)
@given(bi_terms, st.one_of(bi_terms.map(BiPoly), unit_led()), st.sampled_from([1, 2, 6]), small_terms)
def test_exact_division_matches_row_long_division(a, g, content, r):
    f = BiPoly(a)
    g = g * content
    assume(g)
    for dividend in (f, f * g, f * g + BiPoly(r)):
        got = dividend.exact_div(g)
        assert got == bi_exact_div(dividend, g)
        if got is not None:
            assert_normal_form(got)
            assert got * g == dividend
