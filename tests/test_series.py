from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from ratdyn.errors import PreconditionError
from ratdyn.polynomials import UniPoly
from ratdyn.ratmaps import RatMap, chebyshev, power_map
from ratdyn.series import (
    expand_ratmap,
    newton_series_root,
    pade_reconstruct,
    ratmap_roots_over_function_field,
)

from oracles import _compose_series, _ser_inverse, ser_mul


def test_series_inverse():
    a = UniPoly.of(1, 2, 3)
    inv = a.inv_trunc(6)
    assert a.mul_trunc(inv, 6) == UniPoly.one()


def test_expand_ratmap_matches_values():
    f = RatMap(UniPoly.of(1, 0, 1), UniPoly.of(2, 1))
    s = expand_ratmap(f, Fraction(1), 8)
    assert s.coeff(0) == f(1)
    # first derivative of (z^2+1)/(z+2) at 1
    d = f.derivative()(1)
    assert s.coeff(1) == d


def test_pade_reconstructs_rational_series():
    f = RatMap(UniPoly.of(1, 2), UniPoly.of(1, 0, 1))  # (2z+1)/(z^2+1)
    s = expand_ratmap(f, Fraction(0), 10)
    rec = pade_reconstruct(s, 10, 2, 2)
    assert rec is not None
    a, b = rec
    assert RatMap(a, b) == f


def test_function_field_roots_square():
    roots = ratmap_roots_over_function_field(power_map(2), power_map(6))
    assert sorted(r.to_str() for r in roots) == ["-z^3", "z^3"]


def test_function_field_roots_chebyshev():
    t2, t3, t6 = chebyshev(2), chebyshev(3), chebyshev(6)
    roots = ratmap_roots_over_function_field(t2, t6)
    assert t3 in roots
    assert -t3 in roots
    assert len(roots) == 2
    for r in roots:
        assert t2.compose(r) == t6


def test_function_field_roots_degree_obstruction():
    assert ratmap_roots_over_function_field(power_map(2), power_map(5)) == []


def test_function_field_roots_rational_maps():
    x = RatMap(UniPoly.of(1, 0, 1), UniPoly.of(0, 2))  # (z^2+1)/(2z)
    b = RatMap(UniPoly.of(0, 2, 1), UniPoly.of(1, 2))
    f = x.compose(b)
    roots = ratmap_roots_over_function_field(x, f)
    assert b in roots
    for r in roots:
        assert x.compose(r) == f


def test_no_roots_is_not_an_error():
    f = RatMap(UniPoly.of(1, 0, 1))  # z^2 + 1
    roots = ratmap_roots_over_function_field(power_map(2), f.compose(f))
    for r in roots:
        assert power_map(2).compose(r) == f.compose(f)


def test_constant_inputs_rejected():
    with pytest.raises(PreconditionError):
        ratmap_roots_over_function_field(RatMap.constant(1), power_map(2))


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=12), min_size=1, max_size=6),
    st.integers(1, 10),
)
def test_series_inverse_matches_fraction_recurrence(a, k):
    p = UniPoly(a)
    if a[0] == 0:
        with pytest.raises(ZeroDivisionError):
            p.inv_trunc(k)
        return
    inv = p.inv_trunc(k)
    assert inv.degree < k
    assert inv == UniPoly(_ser_inverse(a, k))
    assert p.mul_trunc(inv, k) == UniPoly.one()


# ----------------------------------------------------------------------
# truncated series as UniPolys read mod tau^k, against Fraction lists

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
coeff_lists = st.lists(rationals, min_size=0, max_size=7)


def padded(p: UniPoly, k):
    """The first k coefficients of p as Fractions."""
    return [p.coeff(i) for i in range(k)]


@settings(max_examples=80, deadline=None)
@given(coeff_lists, coeff_lists, st.integers(0, 9))
def test_mul_trunc_and_trunc_match_fraction_product(a, b, k):
    p, q = UniPoly(a), UniPoly(b)
    prod = p.mul_trunc(q, k)
    assert prod.degree < k
    assert padded(prod, k) == ser_mul(list(p.c), list(q.c), k)
    assert padded(p.trunc(k), k) == padded(p, k)
    assert p.trunc(k).degree < k


@settings(max_examples=80, deadline=None)
@given(coeff_lists, coeff_lists, st.integers(0, 9))
def test_compose_trunc_matches_fraction_horner(a, b, k):
    p, q = UniPoly(a), UniPoly(b)
    got = p.compose_trunc(q, k)
    assert got.degree < k
    assert padded(got, k) == _compose_series(list(p.c), padded(q, k), k)
    assert got == p.compose(q).trunc(k)


small_ints = st.integers(-4, 4)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(small_ints, min_size=2, max_size=4),
    st.lists(small_ints, min_size=1, max_size=3),
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
    st.lists(rationals, min_size=0, max_size=6),
    st.integers(1, 9),
)
def test_newton_series_root_solves_the_equation(num, den, w0, tail, k):
    assume(any(den))
    X = RatMap(UniPoly(num), UniPoly(den))
    assume(X.degree >= 1 and X.den(w0) != 0)
    # X(w) = target has the simple root w0 at tau = 0 when X'(w0) != 0
    assume(X.derivative().num(w0) != 0)
    target = [X(w0)] + tail
    w = newton_series_root(X, UniPoly(target), w0, k)
    assert w.degree < k and w.coeff(0) == w0
    ws = padded(w, k)
    nw = _compose_series(list(X.num.c), ws, k)
    dw = _compose_series(list(X.den.c), ws, k)
    assert nw == ser_mul(target, dw, k)


@settings(max_examples=80, deadline=None)
@given(coeff_lists, st.integers(0, 3), st.integers(0, 3), st.integers(-1, 2))
def test_pade_reconstruct_meets_its_contract(a, dn, dd, spare):
    series = UniPoly(a)
    k = dn + dd + 1
    rec = pade_reconstruct(series, k + spare, dn, dd)
    if spare < 0:
        assert rec is None
        return
    if rec is None:
        return
    num, den = rec
    assert num.degree <= dn and 0 <= den.degree <= dd and den.coeff(0) != 0
    # num - den * series = O(tau^k)
    assert padded(num, k) == ser_mul(list(den.c), padded(series, k), k)


def test_pade_needs_the_full_precision():
    f = RatMap(UniPoly.of(1, 2), UniPoly.of(1, 0, 1))
    s = expand_ratmap(f, Fraction(0), 5)
    assert pade_reconstruct(s, 4, 2, 2) is None
    a, b = pade_reconstruct(s, 5, 2, 2)
    assert RatMap(a, b) == f
