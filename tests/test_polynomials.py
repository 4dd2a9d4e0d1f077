import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ratdyn.intpoly import PRIMES, _is_prime, _z_exact_div, _z_gcd, _z_homogenize, from_ints
from ratdyn.polynomials import UniPoly, homogenize

from oracles import (
    euclid_gcd,
    frac_add,
    frac_compose,
    frac_eval,
    frac_interpolate,
    frac_mul,
    fraction_divmod,
    schoolbook_mul,
    shift_up,
    sylvester_resultant,
)


def rand_poly(rng, max_deg=4, span=6):
    deg = rng.randrange(0, max_deg + 1)
    coeffs = [Fraction(rng.randrange(-span, span + 1)) for _ in range(deg + 1)]
    return UniPoly(coeffs)


def test_construction_trims_leading_zeros():
    assert UniPoly.of(1, 2, 0, 0).degree == 1
    assert UniPoly.of(0, 0, 0).is_zero
    assert UniPoly.zero().degree == -1


def test_arithmetic_basics():
    p = UniPoly.of(1, 1)  # 1 + z
    q = UniPoly.of(-1, 1)  # -1 + z
    assert p * q == UniPoly.of(-1, 0, 1)
    assert p + q == UniPoly.of(0, 2)
    assert (p**3).degree == 3
    assert p - p == UniPoly.zero()


def test_divmod_exact():
    p = UniPoly.of(-1, 0, 0, 0, 1)  # z^4 - 1
    d = UniPoly.of(1, 0, 1)  # z^2 + 1
    q, r = divmod(p, d)
    assert r.is_zero
    assert q == UniPoly.of(-1, 0, 1)


def test_gcd_and_xgcd():
    a = UniPoly.of(-1, 0, 1) * UniPoly.of(2, 1)
    b = UniPoly.of(2, 1) * UniPoly.of(5, 3)
    g = a.gcd(b)
    assert g == UniPoly.of(2, 1)
    gg, u, v = a.xgcd(b)
    assert gg == g
    assert u * a + v * b == g


def test_eval_and_compose():
    p = UniPoly.of(1, 2, 3)
    assert p(2) == 1 + 4 + 12
    q = UniPoly.of(0, 0, 1)
    assert p.compose(q) == UniPoly.of(1, 0, 2, 0, 3)
    assert p.taylor_shift(1)(0) == p(1)


def test_yun_decomposition():
    p = (UniPoly.of(-1, 1) ** 3) * (UniPoly.of(1, 1) ** 2) * UniPoly.of(0, 1)
    parts = dict((m, f) for f, m in p.yun_decomposition())
    assert parts[3] == UniPoly.of(-1, 1)
    assert parts[2] == UniPoly.of(1, 1)
    assert parts[1] == UniPoly.of(0, 1)


def test_resultant_known_values():
    f = UniPoly.of(-1, 1)
    g = UniPoly.of(1, 1)
    assert f.resultant(g) == 2
    # shared root forces zero
    assert f.resultant(f * g) == 0


def test_resultant_multiplicativity():
    rng = random.Random(5)
    for _ in range(30):
        f = rand_poly(rng, 3)
        g = rand_poly(rng, 3)
        h = rand_poly(rng, 3)
        if f.is_zero or g.is_zero or h.is_zero:
            continue
        assert (f * g).resultant(h) == f.resultant(h) * g.resultant(h)


def test_interpolation_round_trip():
    p = UniPoly.of(Fraction(1, 2), -3, 0, 2)
    points = [(x, p(x)) for x in range(5)]
    assert UniPoly.interpolate(points) == p


def test_content_and_primitive():
    p = UniPoly([Fraction(2, 3), Fraction(4, 3)])
    c, q = p.content_and_primitive()
    assert q == UniPoly.of(1, 2)
    assert q * c == p
    c, q = (-p).content_and_primitive()
    assert q.lc > 0
    assert q * c == -p


small_coeffs = st.lists(st.integers(-8, 8), min_size=0, max_size=5)


@settings(max_examples=60, deadline=None)
@given(small_coeffs, small_coeffs, small_coeffs)
def test_ring_axioms(a, b, c):
    p, q, r = UniPoly(a), UniPoly(b), UniPoly(c)
    assert p * (q + r) == p * q + p * r
    assert (p * q) * r == p * (q * r)
    assert p + q == q + p




# ----------------------------------------------------------------------
# the integer kernel against the Fraction oracles

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
rat_polys = st.lists(rationals, min_size=0, max_size=7).map(UniPoly)


@settings(max_examples=80, deadline=None)
@given(rat_polys, rat_polys)
def test_mul_matches_schoolbook(p, q):
    assert p * q == schoolbook_mul(p, q)


@settings(max_examples=80, deadline=None)
@given(rat_polys, rat_polys)
def test_divmod_identity(p, q):
    if q.is_zero:
        with pytest.raises(ZeroDivisionError):
            divmod(p, q)
        return
    quo, rem = divmod(p, q)
    assert quo * q + rem == p
    assert rem.degree < q.degree
    assert (quo, rem) == fraction_divmod(p, q)


@settings(max_examples=80, deadline=None)
@given(rat_polys, rat_polys)
def test_gcd_matches_euclid(p, q):
    assert p.gcd(q) == euclid_gcd(p, q)


@settings(max_examples=60, deadline=None)
@given(rat_polys, rat_polys, st.lists(rationals, min_size=2, max_size=4).map(UniPoly))
def test_gcd_with_planted_factor(p, q, common):
    if common.degree < 1 or p.is_zero or q.is_zero:
        return
    a, b = p * common, q * common
    g = a.gcd(b)
    assert g == euclid_gcd(a, b)
    assert common.monic().divides(g)


@settings(max_examples=80, deadline=None)
@given(rat_polys, rat_polys)
def test_resultant_matches_sylvester_oracle(p, q):
    if p.is_zero or q.is_zero:
        return
    assert p.resultant(q) == sylvester_resultant(p, q)


def test_gcd_multi_prime_agreeing_images():
    # z and z - p agree modulo the first table prime, so that image has
    # the wrong degree and only a second prime proves them coprime
    p = PRIMES[0]
    z = UniPoly.x()
    assert z.gcd(z - p) == UniPoly.one()
    common = UniPoly.of(3, 2)
    assert (z * common).gcd((z - p) * common) == common.monic()
    assert _z_gcd([0, 1], [-p, 1]) == [1]


def test_gcd_skips_prime_dividing_leading_coefficient():
    # modulo the first table prime the common factor p*z + 1 becomes a unit,
    # so that image would wrongly prove a and b coprime
    p = PRIMES[0]
    common = UniPoly.of(1, p)
    a = common * UniPoly.of(3, 1)
    b = common * UniPoly.of(5, 1)
    assert a.lc % p == 0 and b.lc % p == 0
    assert a.gcd(b) == common.monic()
    assert a.gcd(b) == euclid_gcd(a, b)
    c = UniPoly.of(-5, 7, 1)
    assert (a * c).gcd(UniPoly.of(2, 0, 3) * c) == c


def test_gcd_lifts_across_several_primes():
    # a gcd whose coefficients exceed one 31-bit prime needs CRT lifting
    big = 3**90
    common = UniPoly.of(big + 1, big, 1)
    a = common * UniPoly.of(1, 1)
    b = common * UniPoly.of(-1, 0, 1, 1)
    assert a.gcd(b) == common
    assert a.gcd(b) == euclid_gcd(a, b)


def test_gcd_divides_only_when_its_lift_repeats(monkeypatch):
    # the normalising gcd in the derivative of z^256 / (z+1)^256 is a
    # multiple of (z+1)^255, whose CRT lift takes about ten 31-bit primes;
    # trial division waits for the lift to repeat instead of following
    # every prime
    from ratdyn import intpoly
    from ratdyn.ratmaps import RatMap

    f = RatMap(UniPoly.x() ** 256, UniPoly.of(1, 1) ** 256)
    calls = []

    def counted(a, b):
        calls.append(len(a))
        return _z_exact_div(a, b)

    monkeypatch.setattr(intpoly, "_z_exact_div", counted)
    d = f.derivative()
    assert d == RatMap(256 * UniPoly.x() ** 255, UniPoly.of(1, 1) ** 257)
    assert 1 <= len(calls) <= 3


def test_exact_division_stops_at_non_integral_quotient():
    assert _z_exact_div([-1, 0, 1], [1, 1]) == [-1, 1]
    assert _z_exact_div([-1, 0, 1], [1, 2]) is None
    assert _z_exact_div([1, 0, 1], [1, 1]) is None
    assert _z_exact_div([], [1, 1]) == []


def test_prime_table_and_primality_test():
    assert all(_is_prime(p) and p.bit_length() == 31 for p in PRIMES)
    small = [n for n in range(200) if n > 1 and all(n % d for d in range(2, n))]
    assert [n for n in range(200) if _is_prime(n)] == small
    assert not _is_prime(3215031751)  # a strong pseudoprime to bases 2, 3, 5, 7


def test_kernel_fractions_are_ordinary_fractions():
    out = from_ints([6, -4, 0, 9], 4)
    assert out == (Fraction(3, 2), Fraction(-1), Fraction(0), Fraction(9, 4))
    assert [hash(v) for v in out] == [hash(Fraction(3, 2)), hash(-1), hash(0), hash(Fraction(9, 4))]
    assert repr(out[0]) == "Fraction(3, 2)"
    assert out[0] + 1 == Fraction(5, 2)
    assert from_ints([3, -6], -9) == (Fraction(-1, 3), Fraction(2, 3))


# ----------------------------------------------------------------------
# the stored form: integer numerators over one denominator


def assert_normal_form(p):
    assert type(p.nums) is tuple and all(type(v) is int for v in p.nums)
    assert type(p.denom) is int and p.denom > 0
    if p.nums:
        assert p.nums[-1] != 0
        assert math.gcd(p.denom, *p.nums) == 1
    else:
        assert p.denom == 1
    assert p.c == tuple(Fraction(v, p.denom) for v in p.nums)


@settings(max_examples=80, deadline=None)
@given(rat_polys, rat_polys)
def test_ring_results_match_fraction_oracle(p, q):
    for r, want in (
        (p + q, frac_add(p.c, q.c)),
        (p - q, frac_add(p.c, q.c, -1)),
        (p * q, frac_mul(p.c, q.c)),
        (-p, frac_add((), p.c, -1)),
        (p.compose(q), frac_compose(p.c, q.c)),
    ):
        assert_normal_form(r)
        assert r.c == want
    if not q.is_zero:
        quo, rem = divmod(p, q)
        want_q, want_r = fraction_divmod(p, q)
        for r, want in ((quo, want_q), (rem, want_r)):
            assert_normal_form(r)
            assert r.c == want.c


@settings(max_examples=80, deadline=None)
@given(rat_polys, rationals)
def test_evaluation_matches_fraction_horner(p, x):
    assert p(x) == frac_eval(p.c, x)
    assert_normal_form(p.taylor_shift(x))
    assert p.taylor_shift(x).c == frac_compose(p.c, (x, Fraction(1)))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(rationals, rationals), min_size=0, max_size=6, unique_by=lambda t: t[0]))
def test_interpolate_matches_lagrange(points):
    r = UniPoly.interpolate(points)
    assert_normal_form(r)
    assert r.c == frac_interpolate(points)
    assert all(r(x) == y for x, y in points)


@settings(max_examples=80, deadline=None)
@given(rat_polys, rat_polys)
def test_equality_and_hash_follow_the_coefficients(p, q):
    assert (p == q) == (p.c == q.c)
    # the same value reached by different routes
    for a, b in ((p, UniPoly(p.c)), ((p + q) - q, p), (p * q, q * p), (p.monic() * p.lc, p)):
        assert_normal_form(a)
        assert a == b and hash(a) == hash(b)
    for r in (p.derivative(), p.monic(), p.reversed_to(max(p.degree, 0) + 2), shift_up(p, 2)):
        assert_normal_form(r)
    c, prim = p.content_and_primitive()
    assert_normal_form(prim)
    assert prim.denom == 1 and prim * c == p


small_polys = st.lists(st.integers(-5, 5), max_size=4).map(UniPoly)
# denominators in the bases exercise the kernel's scaling by (e f)^m
scaled_polys = st.tuples(small_polys, st.sampled_from([1, -1, Fraction(1, 2), Fraction(-2, 3), 6])).map(
    lambda pc: pc[0] * pc[1]
)


@settings(max_examples=120, deadline=None)
@given(
    st.lists(scaled_polys, max_size=3),
    scaled_polys,
    scaled_polys,
    st.integers(0, 2),
    st.fractions(min_value=-5, max_value=5, max_denominator=4),
)
def test_homogenize_matches_pointwise_values(ps, r, s, extra, t):
    m = max((p.degree for p in ps), default=0) + extra
    got = homogenize(ps, r, s, m)
    assert len(got) == len(ps)
    at_r, at_s = frac_eval(r.c, t), frac_eval(s.c, t)
    for p, h in zip(ps, got):
        assert h(t) == sum((c * at_r**i * at_s ** (m - i) for i, c in enumerate(p.c)), Fraction(0))


int_lists = st.lists(st.integers(-5, 5), max_size=4).map(
    lambda c: c[: max((i + 1 for i, v in enumerate(c) if v), default=0)]
)


@settings(max_examples=120, deadline=None)
@given(st.lists(int_lists, max_size=3), int_lists, int_lists, st.integers(0, 2))
def test_z_homogenize_matches_pointwise_values(rows, r, s, extra):
    m = max((len(p) - 1 for p in rows), default=0) + extra
    got = _z_homogenize(rows, r, s, m)
    assert len(got) == len(rows)

    def value(a, x):
        return sum(c * x**i for i, c in enumerate(a))

    for p, h in zip(rows, got):
        assert not h or h[-1] != 0
        for t in range(-2, 3 + len(h)):
            at_r, at_s = value(r, t), value(s, t)
            assert value(h, t) == sum(c * at_r**i * at_s ** (m - i) for i, c in enumerate(p))
