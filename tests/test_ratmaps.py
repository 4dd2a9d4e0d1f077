import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from ratdyn.errors import PreconditionError
from ratdyn.memo import cache_stats, clear_caches
from ratdyn.parser import parse_map
from ratdyn.polynomials import UniPoly
from ratdyn.ratmaps import INF, RatMap, chebyshev, mobius, mobius_through, power_map

from oracles import compose_by_gcd, frac_ratio, mobius_by_cases

points = st.fractions(min_value=-6, max_value=6, max_denominator=5)


@st.composite
def maps(draw, min_degree=0, max_degree=3):
    """A RatMap with small integer coefficients and degree in range."""
    n = draw(st.integers(max(min_degree, 1), max_degree))
    num = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=n + 1))
    den = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=n + 1).filter(any))
    f = RatMap(UniPoly(num), UniPoly(den))
    assume(min_degree <= f.degree <= max_degree)
    return f


def rand_map(rng, deg, span=4):
    while True:
        num = UniPoly([Fraction(rng.randrange(-span, span + 1)) for _ in range(deg + 1)])
        den = UniPoly([Fraction(rng.randrange(-span, span + 1)) for _ in range(deg + 1)])
        try:
            f = RatMap(num, den)
        except PreconditionError:
            continue
        if f.degree == deg:
            return f


def test_canonical_scaling():
    f = RatMap(UniPoly.of(0, 0, 3))
    assert f.num == UniPoly.of(0, 0, 1)
    assert f.den == UniPoly.constant(Fraction(1, 3))
    g = RatMap(UniPoly.of(1, 0, 1), UniPoly.of(0, 2))
    assert g.den == UniPoly.of(0, 1)
    assert g.num == UniPoly([Fraction(1, 2), 0, Fraction(1, 2)])


def test_gcd_cancellation():
    f = RatMap(UniPoly.of(-1, 0, 1), UniPoly.of(1, 1))  # (z^2-1)/(z+1) = z-1
    assert f.degree == 1
    assert f.num == UniPoly.of(-1, 1)


def test_compose_monomials():
    z2, z3 = power_map(2), power_map(3)
    assert z2.compose(z3) == power_map(6)
    inv = power_map(-1)
    assert inv.compose(inv) == RatMap.identity()


def test_compose_chebyshev_recurrence():
    t2, t3, t6 = chebyshev(2), chebyshev(3), chebyshev(6)
    assert t2.compose(t3) == t6
    assert t3.compose(t2) == t6
    # T6 = 2 T3^2 - 1
    assert t6 == RatMap.from_poly(2 * (UniPoly.of(0, -3, 0, 4) ** 2) - 1)


def test_compose_degree_multiplicative():
    rng = random.Random(3)
    for _ in range(25):
        f = rand_map(rng, rng.randrange(1, 4))
        g = rand_map(rng, rng.randrange(1, 4))
        assert f.compose(g).degree == f.degree * g.degree


def test_compose_associative():
    rng = random.Random(9)
    for _ in range(10):
        f = rand_map(rng, rng.randrange(1, 4))
        g = rand_map(rng, rng.randrange(1, 4))
        h = rand_map(rng, rng.randrange(1, 4))
        assert f.compose(g.compose(h)) == f.compose(g).compose(h)


def test_iterate():
    assert power_map(2).iterate(3) == power_map(8)
    shift = RatMap(UniPoly.of(1, 1))
    assert shift.iterate(4) == RatMap(UniPoly.of(4, 1))
    f = RatMap(UniPoly.of(-1, 0, 1))
    assert f.iterate(2) == RatMap(UniPoly.of(0, 0, -2, 0, 1))


def test_evaluation_including_infinity():
    f = RatMap(UniPoly.of(1, 0, 1), UniPoly.of(0, 1))  # z + 1/z
    assert f(1) == 2
    assert f(0) is INF
    assert f(INF) is INF
    assert power_map(-2)(INF) == 0


def test_mobius_inverse_and_through():
    mu = mobius(2, 1, 1, 3)
    assert mu.compose(mu.mobius_inverse()) == RatMap.identity()
    nu = mobius_through([0, 1, INF], [INF, Fraction(5), Fraction(2)])
    assert nu(0) is INF
    assert nu(1) == 5
    assert nu(INF) == 2


sphere_points = st.one_of(st.just(INF), points)


@settings(max_examples=150, deadline=None)
@given(st.lists(sphere_points, min_size=3, max_size=3), st.lists(sphere_points, min_size=3, max_size=3))
def test_mobius_through_sends_each_source_to_its_target(sources, targets):
    if len(set(sources)) < 3 or len(set(targets)) < 3:
        with pytest.raises(PreconditionError):
            mobius_through(sources, targets)
        return
    mu = mobius_through(sources, targets)
    assert mu.degree == 1
    assert [mu(s) for s in sources] == targets


def test_infinity_is_a_point_of_its_own():
    assert Fraction(1) != INF and INF != Fraction(1) and INF == INF
    assert len({INF, 0, INF}) == 2
    with pytest.raises(PreconditionError):
        mobius_through([0, INF, INF], [0, 1, 2])


def test_conjugate():
    f = RatMap(UniPoly.of(1, 2, 1))  # (z+1)^2
    mu = RatMap(UniPoly.of(1, 1))  # z + 1
    assert f.conjugate(mu) == RatMap(UniPoly.of(1, 0, 1))


def test_pointwise_field_ops():
    f = power_map(2)
    g = RatMap.identity()
    assert (f + g)(3) == 12
    assert (f * g)(2) == 8
    assert (f / g)(5) == 5
    assert (f - 1)(2) == 3
    # the cross sum z + 1 + z - 1 cancels the shared pole at 0
    assert RatMap(1, UniPoly.of(0, -1, 1)) + RatMap(1, UniPoly.of(0, 1, 1)) == RatMap(2, UniPoly.of(-1, 0, 1))


def test_wronskian_detects_critical_points():
    f = RatMap(UniPoly.of(0, -3, 0, 4))  # T3
    w = f.wronskian()
    assert w(Fraction(1, 2)) == 0
    assert w(Fraction(-1, 2)) == 0
    assert w(0) != 0


def test_conjugate_by_inversion():
    f = RatMap(UniPoly.of(1, 2, 1))
    g = f.conjugate_by_inversion()
    for v in (Fraction(1), Fraction(2), Fraction(-3)):
        image = f(1 / v)
        assert g(v) == (1 / image if image not in (INF,) and image != 0 else g(v))
    assert g(0) == 0


def test_package_mobius_is_the_constructor():
    import ratdyn
    from ratdyn import mobius as exported

    assert ratdyn.mobius is ratdyn.ratmaps.mobius
    assert exported(1, 2, 0, 1) == RatMap(UniPoly.of(2, 1))
    assert exported(2, 1, 1, 3).degree == 1


@settings(max_examples=150, deadline=None)
@given(maps(), maps(), points)
def test_compose_matches_pointwise_composition(f, g, t):
    inner = frac_ratio(g.num.c, g.den.c, t)
    assume(inner is not None)
    want = frac_ratio(f.num.c, f.den.c, inner)
    assume(want is not None)
    h = f.compose(g)
    assert frac_ratio(h.num.c, h.den.c, t) == want


@settings(max_examples=100, deadline=None)
@given(maps(), points, st.integers(0, 3))
def test_derivative_is_the_reduced_wronskian_quotient(f, c, m):
    # multiplying the denominator by (z - c)^m draws poles of higher order
    f = RatMap(f.num, f.den * UniPoly.of(-c, 1) ** m)
    assert f.derivative() == RatMap(f.wronskian(), f.den**2)


def test_derivative_of_a_high_power_within_budget():
    # the normalising gcd is gcd(den, den') = (z+1)^255, not one of degree 510
    f = RatMap(UniPoly.monomial(256), UniPoly.of(1, 1) ** 256)
    t0 = time.perf_counter()
    d = f.derivative()
    assert time.perf_counter() - t0 < 0.4
    assert d == RatMap(UniPoly.monomial(255) * 256, UniPoly.of(1, 1) ** 257)


# differential tests: the gcd-free constructors against the general
# constructor's gcd route and against Fraction values


def assert_canonical(f):
    assert f.num.gcd(f.den) == 1
    if f.den.degree >= 1:
        assert f.den.lc == 1
    elif f.num:
        assert f.num.lc == 1
    else:
        assert f.den == UniPoly.one()
    assert RatMap(f.num, f.den) == f


@st.composite
def polynomial_maps(draw, max_degree=3):
    """A polynomial map: constant denominator, any scale."""
    num = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=max_degree + 1))
    scale = draw(st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool))
    return RatMap(UniPoly(num) * scale)


@st.composite
def unbalanced_maps(draw):
    """num/den with deg num < deg den or the reverse, both nonzero."""
    lo = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=2).filter(any))
    hi = draw(st.lists(st.integers(-4, 4), min_size=3, max_size=4).filter(lambda c: c[-1] != 0))
    lo, hi = UniPoly(lo), UniPoly(hi) * draw(st.sampled_from([1, Fraction(-2, 3)]))
    return RatMap(lo, hi) if draw(st.booleans()) else RatMap(hi, lo)


inner_maps = st.one_of(
    maps(min_degree=1), polynomial_maps().filter(lambda f: f.degree >= 1), unbalanced_maps()
)
outer_maps = st.one_of(maps(), polynomial_maps(), unbalanced_maps())


@settings(max_examples=200, deadline=None)
@given(outer_maps, inner_maps, points)
def test_compose_matches_the_gcd_route(f, g, t):
    h = f.compose(g)
    assert_canonical(h)
    assert h == compose_by_gcd(f, g)
    assert h.degree == f.degree * g.degree
    inner = frac_ratio(g.num.c, g.den.c, t)
    if inner is not None and frac_ratio(f.num.c, f.den.c, inner) is not None:
        assert h(t) == f(inner)


@settings(max_examples=100, deadline=None)
@given(outer_maps, st.one_of(inner_maps, points.map(RatMap.constant)))
def test_memoised_compose_matches_the_gcd_route_on_a_miss_and_a_hit(f, g):
    clear_caches()
    if g.is_constant and f(g(0)) is INF:
        for _ in range(2):
            with pytest.raises(PreconditionError, match="composition degenerates to infinity"):
                f.compose(g)
    else:
        want = compose_by_gcd(f, g)
        assert f.compose(g) == want  # miss
        assert f.compose(g) == want  # hit
    assert cache_stats()["ratdyn.ratmaps.RatMap.compose"] == {"hits": 1, "misses": 1, "size": 1}


def test_compose_answers_and_refusals_are_the_same_on_a_hit():
    clear_caches()
    zero, square = RatMap.constant(0), power_map(2)
    for _ in range(2):
        # the zero map is a constant of degree 0, so it composes like any other
        assert zero.compose(square) == zero and square.compose(zero) == zero
        with pytest.raises(PreconditionError) as err:
            power_map(-1).compose(zero)
        assert type(err.value) is PreconditionError
        assert str(err.value) == "composition degenerates to infinity"
    assert cache_stats()["ratdyn.ratmaps.RatMap.compose"] == {"hits": 3, "misses": 3, "size": 3}


@settings(max_examples=150, deadline=None)
@given(outer_maps, points, st.integers(-3, 3).filter(bool), points, st.booleans())
def test_compose_with_a_mobius_inner_sending_a_root_to_infinity(f, rho, a, b, in_den):
    # f gets a root at rho, in its numerator or denominator, and the inner
    # map (a z + b) / (z - rho) sends rho to INF
    lin = UniPoly.of(-rho, 1)
    f = RatMap(f.num, f.den * lin) if in_den else RatMap(f.num * lin, f.den)
    assume(a * -rho != b)
    mu = mobius(a, b, 1, -rho)
    assert mu(rho) is INF
    h = f.compose(mu)
    assert_canonical(h)
    assert h == compose_by_gcd(f, mu)
    assert h(rho) == f(INF)


coefficients = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@settings(max_examples=200, deadline=None)
@given(coefficients, coefficients, coefficients, coefficients, points)
def test_mobius_and_its_inverse_match_the_gcd_route(a, b, c, d, t):
    if a * d == b * c:
        with pytest.raises(PreconditionError):
            mobius(a, b, c, d)
        return
    mu = mobius(a, b, c, d)
    assert_canonical(mu)
    assert mu == compose_by_gcd(RatMap(UniPoly((b, a)), UniPoly((d, c))), RatMap.identity())
    assert mu(t) == (INF if c * t + d == 0 else (a * t + b) / (c * t + d))
    inv = mu.mobius_inverse()
    assert_canonical(inv)
    assert inv == RatMap(UniPoly((-b, d)), UniPoly((a, -c)))
    assert compose_by_gcd(inv, mu) == RatMap.identity() == mu.compose(inv)
    assert inv(mu(t)) == t


@settings(max_examples=100, deadline=None)
@given(coefficients, coefficients, st.integers(-3, 3), coefficients.filter(bool))
def test_degenerate_mobius_raises(a, b, k, scale):
    # proportional rows, or a zero row, give ad == bc
    for args in ((a, b, k * a, k * b), (k * a, k * b, a, b), (a, 0, b, 0), (0, a, 0, b)):
        with pytest.raises(PreconditionError):
            mobius(*(scale * v for v in args))


@settings(max_examples=150, deadline=None)
@given(
    st.lists(sphere_points, min_size=3, max_size=3, unique=True),
    st.lists(sphere_points, min_size=3, max_size=3, unique=True),
)
def test_mobius_through_matches_the_case_analysis(sources, targets):
    mu = mobius_through(sources, targets)
    assert_canonical(mu)
    assert mu == mobius_by_cases(sources, targets)


@settings(max_examples=200, deadline=None)
@given(outer_maps, outer_maps, points, st.integers(0, 2), st.booleans())
def test_sum_matches_the_constructor_route(a, b, c, m, negate):
    # a shared pole (z - c)^m makes the gcd of the denominators nontrivial,
    # and b = -a makes the sum zero
    pole = UniPoly.of(-c, 1) ** m
    a = RatMap(a.num, a.den * pole)
    b = -a if negate else RatMap(b.num, b.den * pole)
    s = a + b
    assert_canonical(s)
    assert s == RatMap(a.num * b.den + b.num * a.den, a.den * b.den)


def test_long_sum_of_poles_within_budget():
    # each partial sum has a numerator of growing degree, but only its gcd
    # with the gcd of the denominators, here 1, is taken
    n = 400
    t0 = time.perf_counter()
    f = parse_map(" + ".join(f"1/(z-{k})" for k in range(1, n + 1)))
    assert time.perf_counter() - t0 < 4.0
    den = UniPoly.one()
    for k in range(1, n + 1):
        den = den * UniPoly.of(-k, 1)
    assert f.den == den
    assert f(0) == -sum(Fraction(1, k) for k in range(1, n + 1))


@settings(max_examples=200, deadline=None)
@given(outer_maps, outer_maps, points, st.integers(0, 2), st.integers(0, 2))
def test_product_and_quotient_match_the_constructor_route(a, b, c, m, k):
    # (z - c)^m in num a and den b, and (z - c)^k in num b and den a, make
    # both cross gcds nontrivial; zero maps come from the strategies
    root = UniPoly.of(-c, 1)
    if a.num and b.num:
        a = RatMap(a.num * root**m, a.den * root**k)
        b = RatMap(b.num * root**k, b.den * root**m)
    p = a * b
    assert_canonical(p)
    assert p == RatMap(a.num * b.num, a.den * b.den)
    if b.num.is_zero:
        with pytest.raises(ZeroDivisionError):
            a / b
        return
    q = a / b
    assert_canonical(q)
    assert q == RatMap(a.num * b.den, a.den * b.num)


def test_long_product_of_ratios_within_budget():
    # each factor cancels nothing, so the cross gcds are constant-time and
    # the growing product is never reduced as a whole
    n = 200
    t0 = time.perf_counter()
    f = parse_map(" * ".join(f"(z+{k})/(z-{k})" for k in range(1, n + 1)))
    g = parse_map(" / ".join(["1"] + [f"((z-{k})/(z+{k}))" for k in range(1, n + 1)]))
    assert time.perf_counter() - t0 < 4.0
    num, den = UniPoly.one(), UniPoly.one()
    for k in range(1, n + 1):
        num, den = num * UniPoly.of(k, 1), den * UniPoly.of(-k, 1)
    assert f.num == num and f.den == den
    assert g == f


@settings(max_examples=150, deadline=None)
@given(outer_maps)
def test_inverted_source_and_inversion_are_canonical(f):
    g = f.inverted_source()
    assert_canonical(g)
    d = f.degree
    assert g == RatMap(f.num.reversed_to(d), f.den.reversed_to(d))
    if f.num.is_zero:
        # 1/0 is no map: the swapped denominator is zero
        with pytest.raises(PreconditionError):
            f.conjugate_by_inversion()
        return
    h = f.conjugate_by_inversion()
    assert_canonical(h)
    assert h == RatMap(g.den, g.num)
