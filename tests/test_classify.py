from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from ratdyn.classify import (
    _escapes,
    _height_bound,
    classify,
    detect_chebyshev_conjugacy,
    detect_power_conjugacy,
    is_lattes,
    maximal_orbifold,
    postcritical_data,
    theta,
)
from ratdyn.errors import NotDefined, PreconditionError
from ratdyn.memo import clear_caches
from ratdyn.orbifolds import Orbifold, chi, is_covering, is_min_holomorphic, o2_of, pullback
from ratdyn.parser import parse_map
from ratdyn.places import PLACE_INF, Place
from ratdyn.polynomials import UniPoly
from ratdyn.ratmaps import INF, RatMap, chebyshev, mobius, power_map

from oracles import basin_postcritical_data, chebyshev_cubic_sign, scan_maximal_orbifold

LATTES = RatMap(UniPoly.of(1, 0, 1) ** 2, UniPoly.monomial(1, 4) * UniPoly.of(-1, 0, 1))
O2222 = Orbifold({0: 2, 1: 2, -1: 2, PLACE_INF: 2})


def test_power_detection():
    r = detect_power_conjugacy(power_map(3))
    assert r.kind == "power" and r.n == 3 and r.sign == 1
    r = detect_power_conjugacy(power_map(-2))
    assert r.sign == -1
    A = RatMap(UniPoly.of(0, 2, 1))  # z^2 + 2z
    r = detect_power_conjugacy(A)
    assert r.witness is not None
    assert A.conjugate(r.witness) == power_map(2)
    assert detect_power_conjugacy(chebyshev(2)) is None
    assert detect_power_conjugacy(RatMap(UniPoly.of(-1, 0, 1))) is None


def test_power_detection_with_scaling():
    A = RatMap(UniPoly.of(0, 0, 2))  # 2 z^2
    r = detect_power_conjugacy(A)
    assert r.witness is not None and A.conjugate(r.witness) == power_map(2)
    # 2 z^3 needs an irrational scaling
    B = RatMap(UniPoly.of(0, 0, 0, 2))
    r = detect_power_conjugacy(B)
    assert r is not None and r.extension_needed


def test_chebyshev_detection():
    for n in range(2, 7):
        r = detect_chebyshev_conjugacy(chebyshev(n))
        assert r is not None and r.n == n and r.sign == 1
        assert chebyshev(n).conjugate(r.witness) == chebyshev(n) or r.witness is not None
    A = RatMap(UniPoly.of(-2, 0, 1))  # z^2 - 2
    r = detect_chebyshev_conjugacy(A)
    assert r is not None and r.n == 2
    assert A.conjugate(r.witness) == chebyshev(2)
    m = -chebyshev(3)
    r = detect_chebyshev_conjugacy(m)
    assert r is not None and r.sign == -1
    assert detect_chebyshev_conjugacy(power_map(2)) is None


MOVES = [mobius(1, 0, 0, 1), mobius(2, 1, 1, 3), mobius(0, 1, 1, -2), mobius(-1, 5, 3, 2)]


def test_chebyshev_cubics_with_an_irrational_critical_pair_match_the_oracle():
    # the finite critical values of each polynomial form one quadratic place
    for poly in (UniPoly.of(1, 1, 0, 1), UniPoly.of(1, -1, 0, 1), UniPoly.of(2, 5, 0, 1),
                 UniPoly.of(0, -3, 0, -4), UniPoly.of(0, 3, 0, 4), UniPoly.of(0, 3, 0, 1)):
        P = RatMap(poly)
        expected = chebyshev_cubic_sign(P)
        for mu in MOVES:
            r = classify(P.conjugate(mu))
            assert (r.kind == "chebyshev") == (expected != 0)
            if expected:
                assert r.sign == expected and r.n == 3 and r.extension_needed
    assert chebyshev_cubic_sign(RatMap(UniPoly.of(0, -3, 0, -4))) == 1


def test_chebyshev_cubic_sweep_matches_the_oracle():
    for a in (-4, -1, 1, 2, 4):
        for c in range(-3, 4):
            for e in range(-2, 3):
                P = RatMap(UniPoly.of(e, c, 0, a))
                expected = chebyshev_cubic_sign(P)
                r = detect_chebyshev_conjugacy(P)
                assert (r.sign if r is not None else 0) == expected


def test_chebyshev_with_a_rational_critical_pair_keeps_a_witness():
    for sign in (1, -1):
        for n in (3, 4):
            target = chebyshev(n) if sign == 1 else -chebyshev(n)
            for mu in MOVES:
                A = target.conjugate(mu)
                r = classify(A)
                assert r.kind == "chebyshev" and not r.extension_needed
                assert A.conjugate(r.witness) == (chebyshev(n) if r.sign == 1 else -chebyshev(n))
                # -T_n is conjugate to T_n by -z only for even n
                assert r.sign == sign or n % 2 == 0


def test_postcritical_data_cycles():
    A = RatMap(UniPoly.of(-1, 0, 1))  # z^2 - 1
    cycles, preperiodic, unresolved = postcritical_data(A)
    assert not unresolved
    cycle_sets = [frozenset(c) for c in cycles]
    assert frozenset({Place.of_rational(-1), Place.of_rational(0)}) in cycle_sets
    assert frozenset({PLACE_INF}) in cycle_sets


def test_postcritical_data_resolves_wandering_orbits():
    A = RatMap(UniPoly.of(1, 2, 1))  # (z+1)^2: the finite critical orbit wanders
    cycles, preperiodic, unresolved = postcritical_data(A)
    assert not unresolved
    assert [frozenset(c) for c in cycles] == [frozenset({PLACE_INF})]


def _naive_height(v) -> int:
    return 1 if v is INF else max(abs(v.numerator), v.denominator)


_coeffs = st.lists(st.integers(-6, 6), min_size=1, max_size=5)


def _map_of(num, den):
    if not any(den):
        return None
    A = RatMap(UniPoly(num), UniPoly(den))
    return A if 2 <= A.degree <= 4 else None


@settings(max_examples=150, deadline=None)
@given(_coeffs, _coeffs, st.integers(-10**6, 10**6), st.integers(1, 10**6))
def test_height_bound_holds_at_rational_points(num, den, a, b):
    # H(P)^d <= K H(A(P)), squared so that K^2 stays an integer
    A = _map_of(num, den)
    assume(A is not None)
    k2, e = _height_bound(A)
    assert e == A.degree - 1
    for P in (Fraction(a, b), INF):
        assert _naive_height(P) ** (2 * A.degree) <= k2 * _naive_height(A(P)) ** 2


def test_escape_test_is_the_stated_inequality():
    # A = (z^2 - 1)/(z + 2): F = X^2 - Y^2, G = XY + 2Y^2, so
    # K^2 = 4 d^2 ||F||^(2d) ||G||^(2d) = 16 * 4 * 25 and K = 40
    bound = _height_bound(RatMap(UniPoly.of(-1, 0, 1), UniPoly.of(2, 1)))
    assert bound == (1600, 1)
    # degree one: escape when the height exceeds K
    assert not _escapes(bound, Place.of_rational(40))
    assert _escapes(bound, Place.of_rational(-41))
    assert _escapes(bound, Place.of_rational(Fraction(41, 2)))
    assert not _escapes(bound, Place.of_rational(Fraction(3, 40)))
    # degree two: ||m||_inf^2 > K^4 C(2, 1)^2, that is ||m||_inf > 3200
    assert not _escapes(bound, Place(UniPoly.of(-3200, 0, 1)))
    assert _escapes(bound, Place(UniPoly.of(-3201, 0, 1)))
    # degree four: ||m||_inf^2 > K^8 C(4, 2)^2, that is ||m||_inf > 6 * 40^4
    assert not _escapes(bound, Place(UniPoly.of(-15360000, 0, 0, 0, 1)))
    assert _escapes(bound, Place(UniPoly.of(-15360001, 0, 0, 0, 1)))
    assert not _escapes(bound, PLACE_INF)


# z^2 + c with c = a/b in lowest terms, |a| <= 12, b <= 4, and z^3 + a z + b
# with |a|, |b| <= 3; parabolic and irrational critical orbits included
GRID = [UniPoly([Fraction(a, b), 0, 1]) for b in range(1, 5) for a in range(-12, 13) if gcd(a, b) == 1]
GRID += [UniPoly.of(b, a, 0, 1) for a in range(-3, 4) for b in range(-3, 4)]


def test_the_quadratic_and_cubic_grid_is_decided():
    assert len(GRID) == 65 + 49
    for poly in GRID:
        A = RatMap(poly)
        assert not postcritical_data(A)[2], poly
        classify(A)


@settings(max_examples=100, deadline=None)
@given(_coeffs, _coeffs)
def test_postcritical_data_agrees_with_the_basin_oracle(num, den):
    A = _map_of(num, den)
    assume(A is not None)
    cycles, preperiodic, unresolved = postcritical_data(A)
    assert not unresolved
    want_cycles, want_pre, open_orbits = basin_postcritical_data(A)
    if not open_orbits:
        assert (cycles, preperiodic) == (want_cycles, want_pre)
    # a cycle the oracle closes is closed here too
    assert want_pre <= preperiodic
    assert all(c in cycles for c in want_cycles)


def test_basin_oracle_certifies_a_wandering_orbit():
    # z^2 + 3/16 fixes 1/4 with multiplier 1/2, and its critical orbit
    # wanders into that basin
    A = RatMap(UniPoly([Fraction(3, 16), 0, 1]))
    assert basin_postcritical_data(A) == postcritical_data(A) == ([(PLACE_INF,)], {PLACE_INF}, [])


def test_maximal_orbifold_trivial_cases():
    assert maximal_orbifold(RatMap(UniPoly.of(-1, 0, 1))) is None
    assert maximal_orbifold(RatMap(UniPoly.of(1, 2, 1))) is None
    assert maximal_orbifold(RatMap(UniPoly.of(1, 0, 1))) is None


def test_maximal_orbifold_not_defined_for_special_normal_forms():
    with pytest.raises(NotDefined):
        maximal_orbifold(power_map(2))
    with pytest.raises(NotDefined):
        maximal_orbifold(chebyshev(3))


def test_maximal_orbifold_lattes():
    o = maximal_orbifold(LATTES)
    assert o == O2222
    assert chi(o) == 0
    assert is_covering(LATTES, o, o)
    assert is_lattes(LATTES) == o


def test_maximal_orbifold_iterate_invariance():
    assert maximal_orbifold(LATTES.iterate(2)) == O2222
    A = RatMap(UniPoly.of(-1, 0, 1))
    assert maximal_orbifold(A.iterate(2)) is None
    assert maximal_orbifold(A.iterate(3)) is None


@pytest.mark.slow
def test_maximal_orbifold_cube_iterate_lattes():
    # degree 64: the factorizations behind the postcritical orbit are heavy
    assert maximal_orbifold(LATTES.iterate(3)) == O2222


def _orbifold_outcome(fn, A):
    clear_caches()
    try:
        return fn(A)
    except NotDefined as exc:
        return type(exc)


# the bases of the orbifold benchmark, a generalized Lattes polynomial, an
# iterate of the Lattes map, and a (4, 4, 2) Lattes map whose tree has a
# critical place between a boundary place and the cycle
ORBIFOLD_BASES = [
    "(z^2+1)^2 / (4*z*(z^2-1))", "(4*z^3 + 16*z^2 + 37*z + 24) / (16*z^2 + 40*z + 25)",
    "(z+1)^2", "z^2-2*z+3", "(z^2+z)/(z+2)", "z^3-3*z+1", "z^4+z+1", "z^3+z+1", "z^3-z+1",
    "z^3+5*z+2", "z^2", "1/z^3", "T3", "-T4", "z*(z+2)^7", "((z^2+1)^2 / (4*z*(z^2-1)))^o2",
    "(z-2)^2/z^2",
]


def test_maximal_orbifold_matches_the_value_scan():
    maps = [RatMap(poly) for poly in GRID]
    maps += [parse_map(text).conjugate(mu) for text in ORBIFOLD_BASES for mu in MOVES]
    # z^a (z + b)^c and z^a / (z + b)^c: cyclic orbifolds {0: n, inf: n} of many n
    for a in (1, 2, 3):
        for b in (1, 2, -3):
            maps += [RatMap(UniPoly.monomial(a) * UniPoly.of(b, 1) ** c) for c in range(1, 9)]
            maps += [RatMap(UniPoly.monomial(a), UniPoly.of(b, 1) ** c) for c in range(1, 5)]
    answers = set()
    for A in maps:
        if A.degree < 2:
            continue
        want = _orbifold_outcome(scan_maximal_orbifold, A)
        assert _orbifold_outcome(maximal_orbifold, A) == want, A
        answers.add(want if want in (None, NotDefined) else tuple(want.signature()))
    assert {None, NotDefined, (2, 2, 2, 2), (4, 4, 2), (2, 2, 2), (7, 7), (8, 8)} <= answers


@settings(max_examples=80, deadline=None)
@given(_coeffs, _coeffs, st.sampled_from(MOVES))
def test_maximal_orbifold_matches_the_value_scan_on_random_maps(num, den, mu):
    A = _map_of(num, den)
    assume(A is not None)
    A = A.conjugate(mu)
    assert _orbifold_outcome(maximal_orbifold, A) == _orbifold_outcome(scan_maximal_orbifold, A)


def test_maximal_orbifold_values_have_no_cap():
    # z^k o B = A o z^k with B = z (z^k + 2), so A carries {0: k, inf: k};
    # a scan of the values up to 60 finds 32 for k = 64 and nothing for 61
    for k in (7, 61, 64):
        A = RatMap(UniPoly.monomial(1) * UniPoly.of(2, 1) ** k)
        assert maximal_orbifold(A) == Orbifold({0: k, PLACE_INF: k})
    assert scan_maximal_orbifold(RatMap(UniPoly.monomial(1) * UniPoly.of(2, 1) ** 64)) == Orbifold(
        {0: 32, PLACE_INF: 32}
    )


def test_classify_finds_a_generalized_lattes_map_past_the_old_cap():
    A = parse_map("z*(z+2)^61")
    cls = classify(A)
    assert cls.kind == "generalized_lattes"
    assert cls.orbifold == Orbifold({0: 61, PLACE_INF: 61})
    assert is_min_holomorphic(A, cls.orbifold, cls.orbifold)


def test_maximal_orbifold_local_maximality():
    o = maximal_orbifold(LATTES)
    for p, v in o.items():
        for factor in (2, 3):
            bumped = dict(o.ram)
            bumped[p] = v * factor
            ob = Orbifold(bumped)
            assert pullback(LATTES, ob) != ob


def test_generalized_lattes_fixture():
    from ratdyn.decompose import right_divide

    B = RatMap(UniPoly.of(0, 2, 1), UniPoly.of(1, 2))
    th = RatMap(UniPoly.of(1, 0, 1), UniPoly.of(0, 2))
    A = right_divide(th.compose(B), th)
    assert A is not None
    o = maximal_orbifold(A)
    assert o == Orbifold({1: 2, -1: 2})
    assert chi(o) > 0
    assert is_min_holomorphic(A, o, o)
    cls = classify(A)
    assert cls.kind == "generalized_lattes"


def test_generalized_lattes_stable_under_elementary_transforms():
    from ratdyn.decompose import elementary_transform, proper_splittings, right_divide

    B = RatMap(UniPoly.of(0, 2, 1), UniPoly.of(1, 2))
    th = RatMap(UniPoly.of(1, 0, 1), UniPoly.of(0, 2))
    A = right_divide(th.compose(B), th)
    A2 = A.iterate(2)
    assert classify(A2).kind == "generalized_lattes"
    for split in proper_splittings(A2):
        transformed = elementary_transform(A2, split)
        assert classify(transformed).kind == "generalized_lattes"


def test_classify_dispatch():
    assert classify(power_map(5)).kind == "power"
    assert classify(chebyshev(4)).kind == "chebyshev"
    assert classify(LATTES).kind == "lattes"
    assert classify(RatMap(UniPoly.of(-1, 0, 1))).kind == "non_special_non_gl"
    assert classify(RatMap(UniPoly.of(1, 2, 1))).kind == "non_special_non_gl"


def test_is_lattes_rejects_power_and_chebyshev():
    assert is_lattes(power_map(2)) is None
    assert is_lattes(chebyshev(2)) is None
    assert is_lattes(RatMap(UniPoly.of(-1, 0, 1))) is None


def test_lattes_search_oracle():
    """Enumerate flat-signature orbifolds on the postcritical places and
    compare against the detector (the enumeration is the stated search)."""
    cycles, preperiodic, unresolved = postcritical_data(LATTES)
    assert not unresolved
    places = sorted(preperiodic, key=lambda p: p.sort_key())
    found = []
    import itertools

    for size in (3, 4):
        for combo in itertools.combinations(places, size):
            if sum(p.degree for p in combo) != 4 and size == 4:
                continue
            for values in itertools.product((2, 3, 4, 6), repeat=len(combo)):
                o = Orbifold(dict(zip(combo, values)))
                sig = tuple(sorted(o.signature(), reverse=True))
                if sig not in ((2, 2, 2, 2), (3, 3, 3), (4, 4, 2), (6, 3, 2)):
                    continue
                if is_covering(LATTES, o, o):
                    found.append(o)
    assert found == [O2222]


def test_classify_fuzz_regression():
    """Random small polynomials: every map gets a verdict, and special
    witnesses re-verify exactly."""
    import random
    from ratdyn.ratmaps import power_map as _pm

    rng = random.Random(20240101)
    checked = 0
    while checked < 30:
        deg = rng.randrange(2, 5)
        f = RatMap(UniPoly([Fraction(rng.randrange(-3, 4)) for _ in range(deg)] + [1]))
        if f.degree != deg:
            continue
        checked += 1
        cls = classify(f)
        if cls.kind == "power" and cls.witness is not None:
            assert f.conjugate(cls.witness) == _pm(cls.sign * cls.n)
        elif cls.kind == "chebyshev" and cls.witness is not None:
            target = chebyshev(cls.n) if cls.sign == 1 else -chebyshev(cls.n)
            assert f.conjugate(cls.witness) == target
        elif cls.kind in ("lattes", "generalized_lattes"):
            assert is_min_holomorphic(f, cls.orbifold, cls.orbifold)


def test_theta_families():
    for n in range(2, 7):
        o = Orbifold({0: n, PLACE_INF: n})
        th = theta(o)
        assert o2_of(th) == o
    for n in range(2, 7):
        o = Orbifold({-1: 2, 1: 2, PLACE_INF: n})
        th = theta(o)
        assert th.degree == 2 * n
        assert o2_of(th) == o
    o = Orbifold({0: 3, PLACE_INF: 3, 1: 2})
    assert o2_of(theta(o)) == o
    o = Orbifold({0: 3, PLACE_INF: 4, 1: 2})
    assert o2_of(theta(o)) == o


def test_theta_moved_positions():
    o = Orbifold({2: 3, -5: 3, 0: 2})
    th = theta(o)
    assert th.degree == 12
    assert o2_of(th) == o


def test_theta_icosahedral():
    o = Orbifold({0: 5, 1: 3, PLACE_INF: 2})
    th = theta(o)
    assert th.degree == 60
    assert o2_of(th) == o


def test_theta_icosahedral_moved_positions():
    o = Orbifold({2: 5, -1: 3, 0: 2})
    th = theta(o)
    assert th.degree == 60
    assert o2_of(th) == o


def test_theta_rejects_bad_input():
    from ratdyn.errors import NonRationalPosition

    with pytest.raises(PreconditionError):
        theta(Orbifold({0: 2, 1: 2, -1: 2, PLACE_INF: 2}))  # chi = 0
    with pytest.raises(NonRationalPosition):
        theta(Orbifold({Place(UniPoly.of(-2, 0, 1)): 3}))
