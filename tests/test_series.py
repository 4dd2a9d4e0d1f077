from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ratdyn.errors import PreconditionError
from ratdyn.polynomials import UniPoly
from ratdyn.ratmaps import RatMap, chebyshev, power_map
from ratdyn.series import (
    expand_ratmap,
    pade_reconstruct,
    ratmap_roots_over_function_field,
    ser_inv,
    ser_mul,
)

from oracles import _ser_inverse


def test_series_inverse():
    a = [Fraction(1), Fraction(2), Fraction(3)]
    inv = ser_inv(a, 6)
    prod = ser_mul(a, inv, 6)
    assert prod[0] == 1 and all(v == 0 for v in prod[1:])


def test_expand_ratmap_matches_values():
    f = RatMap(UniPoly.of(1, 0, 1), UniPoly.of(2, 1))
    s = expand_ratmap(f, Fraction(1), 8)
    assert s[0] == f(1)
    # first derivative of (z^2+1)/(z+2) at 1
    d = f.derivative()(1)
    assert s[1] == d


def test_pade_reconstructs_rational_series():
    f = RatMap(UniPoly.of(1, 2), UniPoly.of(1, 0, 1))  # (2z+1)/(z^2+1)
    s = expand_ratmap(f, Fraction(0), 10)
    rec = pade_reconstruct(s, 2, 2)
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
    if a[0] == 0:
        with pytest.raises(ZeroDivisionError):
            ser_inv(a, k)
        return
    assert ser_inv(a, k) == _ser_inverse(a, k)
