import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from ratdyn import curves
from ratdyn.bipolys import BiPoly
from ratdyn.curves import (
    BiCurve,
    Line,
    ParamCurve,
    periodic_curve_certificate,
    genus_separated,
    image_curve,
    implicitize,
    is_invariant,
    line_is_invariant,
    periodicity,
    preperiodicity,
    separated_curve,
    substitute_maps,
)
from ratdyn.errors import Inconclusive, PreconditionError, ReducibleCurve
from ratdyn.polynomials import UniPoly
from ratdyn.ratmaps import INF, RatMap, chebyshev, mobius, power_map

from oracles import (
    bi_value,
    brute_pairing_genus,
    frac_eval,
    frac_ratio,
    periodicity_by_images,
    vanishes_on_parametrization,
)
from test_ratmaps import maps, points, rand_map

X = BiPoly.var_x()
Y = BiPoly.var_y()
DIAG = BiCurve(X - Y)


def test_separated_curves():
    assert separated_curve(power_map(3), power_map(2)).poly == (X**3 - Y**2).canonical()
    assert separated_curve(power_map(2), power_map(2)).poly == (X**2 - Y**2).canonical()
    got = separated_curve(power_map(-1), RatMap.identity()).poly
    assert got == (X * Y - 1).canonical()


def test_implicitize_examples():
    assert implicitize((power_map(2), power_map(3))).poly == (X**3 - Y**2).canonical()
    assert implicitize((RatMap.identity(), RatMap.identity())).poly == (X - Y).canonical()
    assert implicitize((power_map(2), power_map(2))).poly == (X - Y).canonical()


def test_implicitize_graph_case():
    rng = random.Random(15)
    for _ in range(8):
        f = rand_map(rng, rng.randrange(1, 4))
        C = implicitize((RatMap.identity(), f))
        want = BiPoly.from_unipoly(f.num, "x") * 0
        graph = (
            BiPoly.from_unipoly(f.den, "x") * Y - BiPoly.from_unipoly(f.num, "x")
        ).canonical()
        assert C.poly == graph


def test_implicitize_faithful_bidegree():
    # coordinates with no common inner factor give bidegree (deg X2, deg X1)
    X1, X2 = power_map(2), power_map(3)
    C = implicitize((X1, X2))
    assert C.bidegree == (X2.degree, X1.degree)


def test_image_curve_examples():
    A = RatMap(UniPoly.of(-1, 0, 1))
    assert image_curve(DIAG, A, A) == DIAG
    graph = BiCurve(X - Y**2)  # x = A(y) for A = z^2
    assert image_curve(graph, power_map(2), power_map(2)) == graph
    hyp = BiCurve(X * Y - 1)
    assert image_curve(hyp, power_map(2), power_map(2)) == hyp
    anti = BiCurve(X + Y)
    assert image_curve(anti, power_map(2), power_map(2)) == DIAG


def test_image_curve_refuses_an_eliminant_over_the_budget(monkeypatch):
    # bidegrees triple along the orbit of x^2 + y under two cubics; the
    # fourth eliminant, (162, 81), is past the curve budget
    A1, A2 = RatMap(UniPoly.of(1, -3, 0, 1)), RatMap(UniPoly.of(1, 1, 0, 1))
    C = BiCurve(X**2 + Y)
    for want in ((6, 3), (18, 9), (54, 27)):
        C = image_curve(C, A1, A2)
        assert C.bidegree == want
    monkeypatch.setattr(curves, "resultant_x_mixed", None)  # nothing is eliminated
    with pytest.raises(Inconclusive, match=r"\(162, 81\)"):
        image_curve(C, A1, A2)
    # the image of y = -x^64 under (x + 1, y^32) is v = (u - 1)^2048: 4098
    # coefficients, one past the budget
    with pytest.raises(Inconclusive, match=r"\(2048, 1\)"):
        image_curve(BiCurve(X**64 + Y), RatMap(UniPoly.of(1, 1)), power_map(32))


def test_invariance_and_lines():
    A = RatMap(UniPoly.of(-1, 0, 1))
    assert is_invariant(DIAG, A, A)
    assert not is_invariant(BiCurve(X + Y), power_map(2), power_map(2))
    assert line_is_invariant(Line("x", Fraction(0)), power_map(2), power_map(2))
    assert line_is_invariant(Line("x", INF), A, A)
    assert not line_is_invariant(Line("y", Fraction(2)), A, A)
    vertical = BiCurve(BiPoly({(1, 0): 1}))  # x = 0
    assert is_invariant(vertical, power_map(2), power_map(2))


Z2 = power_map(2)


@pytest.mark.parametrize(
    "poly, A1, A2, want",
    [
        (X, Z2, Z2 + 1, True),  # x = 0
        (X - 1, Z2 + 1, RatMap.identity(), False),  # 1 -> 2
        (X - 1, power_map(-1).compose(RatMap.identity() - 1), Z2, False),  # 1 -> INF
        (2 * X - 1, 2 * Z2, Z2, True),  # x = 1/2
        (Y - 1, RatMap.identity() + 5, power_map(3), True),
        (Y + 2, Z2, Z2, False),  # -2 -> 4
        (X - 2, RatMap.constant(2), Z2, True),
        (X - 2, RatMap.constant(3), Z2, False),
        (X - 2, Z2 - 2, RatMap.constant(7), True),
        (Y, Z2, RatMap.constant(0), True),
        (Y, Z2, RatMap.constant(1), False),
    ],
)
def test_degree_one_lines_divide_their_pullback_when_fixed(poly, A1, A2, want):
    # the pullback of x - a is num1 - a den1, divisible by x - a exactly
    # when A1 fixes a, constant A1 included
    C = BiCurve(poly)
    axis = "x" if C.poly.deg_y < 1 else "y"
    uni = C.poly.eval_y(0) if axis == "x" else C.poly.eval_x(0)
    line = Line(axis, -uni.coeff(0) / uni.lc)
    assert line_is_invariant(line, A1, A2) == want
    assert is_invariant(C, A1, A2) == want


def test_curve_questions_keep_their_refusals():
    with pytest.raises(PreconditionError, match="an irreducible line must have degree one"):
        is_invariant(BiCurve(X**2 - 2), Z2, Z2)
    with pytest.raises(PreconditionError, match="invariance is defined for irreducible curves"):
        is_invariant(BiCurve(X**2 - Y**2), Z2, Z2)
    for question in (is_invariant, image_curve, lambda C, A1, A2: periodicity(C, A1, A2, 3)):
        with pytest.raises(PreconditionError, match="images need nonconstant maps"):
            question(DIAG, RatMap.constant(1), Z2)
    for question in (image_curve, lambda C, A1, A2: periodicity(C, A1, A2, 3)):
        with pytest.raises(PreconditionError, match="lines are handled by fixed-point logic"):
            question(BiCurve(X), Z2, Z2)
    # x^2 = y^2 is carried onto its component x = y by squaring: it divides
    # its pullback without being periodic
    with pytest.raises(PreconditionError, match="periodicity is defined for irreducible curves"):
        periodicity(BiCurve(X**2 - Y**2), Z2, Z2, 3)


def test_orbit_scans():
    anti = BiCurve(X + Y)
    assert periodicity(anti, power_map(2), power_map(2), 3) is None
    assert preperiodicity(anti, power_map(2), power_map(2), 3, 3) == (1, 1)
    # a sign-twisted pair: the diagonal is carried to the antidiagonal,
    # which is invariant, so the diagonal is strictly preperiodic
    Aneg = RatMap(UniPoly.of(0, 0, -1))
    Apos = power_map(2)
    assert periodicity(anti, Aneg, Apos, 4) == 1
    assert periodicity(DIAG, Aneg, Apos, 4) is None
    assert preperiodicity(DIAG, Aneg, Apos, 3, 3) == (1, 1)


mobius_entries = st.tuples(*[st.integers(-2, 2)] * 4).filter(lambda t: t[0] * t[3] != t[1] * t[2])
odd_cubics = st.integers(-3, 3).map(lambda a: RatMap(UniPoly.of(0, a, 0, 1)))


@st.composite
def curve_dynamics(draw):
    """(C, A1, A2) with C irreducible and not a line: the graph of
    mu o A1^j under (A1, mu A1 mu^-1), invariant; the graph of mu under
    (A1, mu (-A1) mu^-1), of period two for odd A1; or a random curve and
    random second map."""
    A1 = draw(st.one_of(maps(min_degree=2, max_degree=2), odd_cubics))
    mu = mobius(*draw(mobius_entries))
    kind = draw(st.sampled_from(["graph", "twisted", "random"]))
    if kind == "graph":
        j = draw(st.integers(0, 1))
        C = implicitize((RatMap.identity(), mu.compose(A1.iterate(j)) if j else mu))
        return C, A1, A1.conjugate(mu)
    if kind == "twisted":
        return implicitize((RatMap.identity(), mu)), A1, (-A1).conjugate(mu)
    F = BiPoly(draw(curve_terms))
    assume(F.deg_x >= 1 and F.deg_y >= 1)
    C = BiCurve(F)
    assume(C.poly.deg_x >= 1 and C.poly.deg_y >= 1 and C.is_irreducible())
    return C, A1, draw(maps(min_degree=2, max_degree=2))


@settings(max_examples=40, deadline=None)
@given(curve_dynamics())
def test_pullback_answers_match_the_image_orbit(data):
    C, A1, A2 = data
    assert is_invariant(C, A1, A2) == (image_curve(C, A1, A2) == C)
    assert periodicity(C, A1, A2, 2) == periodicity_by_images(C, A1, A2, 2)


def test_image_bidegree_bounds():
    rng = random.Random(4)
    for _ in range(5):
        A1 = rand_map(rng, 2)
        A2 = rand_map(rng, 2)
        d1, d2 = DIAG.bidegree
        img = image_curve(DIAG, A1, A2)
        e1, e2 = img.bidegree
        assert e1 <= d1 * A2.degree and e2 <= d2 * A1.degree


def test_genus_fixtures():
    assert genus_separated(power_map(3), power_map(2)) == 0
    assert genus_separated(RatMap(UniPoly.of(0, -1, 0, 1)), power_map(2)) == 1
    with pytest.raises(ReducibleCurve) as err:
        genus_separated(power_map(2), power_map(2))
    assert sorted(f.to_str() for f in err.value.factors) == ["x + y", "x - y"]


@pytest.mark.parametrize(
    "Y1, Y2",
    [
        # x^2 = 2 y^2 is irreducible over Q and two lines over Q(sqrt 2)
        (power_map(2), RatMap(UniPoly.monomial(2, 2))),
        (RatMap(UniPoly.of(1, 2, 1) * Fraction(1, 2)), RatMap(UniPoly.of(1, 2, 1))),
        # (x^2 + x + 1)^2 = 2 (y^2 - 3y + 5)^2: two conics over Q(sqrt 2)
        (RatMap(UniPoly.of(1, 1, 1) ** 2), RatMap(UniPoly.of(5, -3, 1) ** 2 * 2)),
    ],
)
def test_genus_refuses_curves_split_over_an_extension(Y1, Y2):
    # k >= 2 conjugate components count k (2 - 2 g_c), above 2 for g_c = 0
    assert separated_curve(Y1, Y2).is_irreducible()
    with pytest.raises(ReducibleCurve) as err:
        genus_separated(Y1, Y2)
    assert "conjugate components" in str(err.value)


# (z^3 + z + 1)^2 = 2 (z^3 - z + 3)^2: irreducible over Q, and two curves of
# genus 1 over Q(sqrt 2); the pairing count alone reads genus 1
SPLIT_CUBICS = (RatMap(UniPoly.of(1, 1, 0, 1) ** 2), RatMap(UniPoly.of(3, -1, 0, 1) ** 2 * 2))


def test_genus_needs_a_certificate_of_geometric_irreducibility():
    Y1, Y2 = SPLIT_CUBICS
    assert separated_curve(Y1, Y2).is_irreducible()
    assert brute_pairing_genus(Y1, Y2) == 1
    with pytest.raises(Inconclusive, match="geometrically irreducible"):
        genus_separated(Y1, Y2)


def test_genus_certified_by_fibre_degrees_alone():
    # no rational point of the smooth model over any value tried, but the
    # fibre over y = 0 is (x^2 - 2)(x^3 - 3), with degrees of gcd 1
    Y1 = RatMap(UniPoly.of(-2, 0, 1) * UniPoly.of(-3, 0, 0, 1))
    Y2 = RatMap(UniPoly.of(0, -3, 0, 3, 0, -1))
    values = [Y1(v) for v in curves._TRIAL_POINTS] + [Y2(v) for v in curves._TRIAL_POINTS]
    assert not any(curves._rational_branch_over(v, Y1, Y2) for v in values)
    assert genus_separated(Y1, Y2) == brute_pairing_genus(Y1, Y2) == 6


def test_genus_certified_at_a_branch_point_of_the_other_map(monkeypatch):
    # the benchmark's shape: distinct rational roots against z^2, certified
    # at (root, 0) over the critical value 0 of z^2, the first value tried
    Y1 = RatMap(UniPoly.of(3, 1) * UniPoly.of(-1, 1) * UniPoly.of(-4, 1) * UniPoly.of(5, 1))
    tried = []
    branch = curves._rational_branch_over
    monkeypatch.setattr(curves, "_rational_branch_over", lambda v, *maps: tried.append(v) or branch(v, *maps))
    assert genus_separated(Y1, power_map(2)) == 1
    assert tried == [0]
    monkeypatch.undo()
    # (INF, INF) with local degrees 5 and 2 carries one branch
    Y1 = RatMap(UniPoly.of(-2, 0, 1) * UniPoly.of(-3, 0, 0, 1))
    assert curves._rational_branch_over(INF, Y1, RatMap(UniPoly.of(7, 0, 1)))
    # (0, 0) with local degrees 2 and 2 carries two, conjugate over Q(i)
    assert not curves._rational_branch_over(0, power_map(2), RatMap(UniPoly.monomial(2, -1)))


def small_poly(draw):
    """A polynomial with small coefficients and degree 1-3."""
    c = draw(st.lists(st.integers(-3, 3), min_size=2, max_size=4).filter(lambda c: c[-1] != 0))
    return UniPoly(c)


non_squares = st.sampled_from([2, 3, 5, 6, -1, -2, -3, Fraction(1, 2), Fraction(2, 3), Fraction(-4, 9)])


@settings(max_examples=60, deadline=None)
@given(st.data(), non_squares)
def test_genus_refused_on_planted_splits(data, c):
    # U o P = V o Q with U = z^2 and V = c z^2, c not a square: the curve
    # P(x)^2 = c Q(y)^2 is (P(x) - sqrt(c) Q(y)) (P(x) + sqrt(c) Q(y)) over
    # Q(sqrt c), so no genus may be reported, and no check may fail
    P, Q = small_poly(data.draw), small_poly(data.draw)
    Y1, Y2 = RatMap(P * P), RatMap(Q * Q * c)
    with pytest.raises((ReducibleCurve, Inconclusive)):
        genus_separated(Y1, Y2)


def test_genus_refused_where_a_fibre_is_not_squarefree():
    # (x^3 - x)^2 = 2 (y^3 + 2y - 3)^2 splits over Q(sqrt 2); its fibre over
    # y = 1 is x^2 (x - 1)^2 (x + 1)^2, whose factors have degree 1, and
    # only the squarefree condition keeps that fibre from certifying
    Y1 = RatMap(UniPoly.of(0, -1, 0, 1) ** 2)
    Y2 = RatMap(UniPoly.of(-3, 2, 0, 1) ** 2 * 2)
    assert separated_curve(Y1, Y2).is_irreducible()
    assert brute_pairing_genus(Y1, Y2) == 1
    with pytest.raises(Inconclusive):
        genus_separated(Y1, Y2)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_genus_of_coprime_degree_polynomials_is_certified(data):
    # Y1(x) = Y2(y) with deg Y1, deg Y2 coprime has one branch over
    # (INF, INF), a rational point of the smooth model
    Y1 = RatMap(small_poly(data.draw))
    Y2 = RatMap(small_poly(data.draw))
    assume(gcd(Y1.degree, Y2.degree) == 1)
    assert genus_separated(Y1, Y2) == brute_pairing_genus(Y1, Y2)


def test_genus_symmetry_and_graphs():
    pairs = [
        (power_map(3), power_map(2)),
        (RatMap(UniPoly.of(0, -1, 0, 1)), power_map(2)),
        (chebyshev(3), power_map(2)),
    ]
    for y1, y2 in pairs:
        assert genus_separated(y1, y2) == genus_separated(y2, y1)
    rng = random.Random(8)
    for _ in range(6):
        f = rand_map(rng, rng.randrange(1, 4))
        assert genus_separated(f, RatMap.identity()) == 0


def test_genus_coprime_powers():
    for m in range(1, 7):
        for n in range(1, 7):
            if gcd(m, n) != 1 or (m == 1 and n == 1):
                continue
            assert genus_separated(power_map(m), power_map(n)) == 0


def test_genus_matches_brute_pairing():
    pairs = [
        (power_map(3), power_map(2)),
        (RatMap(UniPoly.of(0, -1, 0, 1)), power_map(2)),
        (chebyshev(3), chebyshev(2)),
        (RatMap(UniPoly.of(1, 0, 1), UniPoly.of(0, 1)), power_map(2)),
    ]
    for y1, y2 in pairs:
        try:
            g = genus_separated(y1, y2)
        except ReducibleCurve:
            continue
        assert g == brute_pairing_genus(y1, y2)


def test_substitute_maps():
    F = X - Y
    A = RatMap(UniPoly.of(-1, 0, 1))
    pull = substitute_maps(F, A, A)
    assert pull == (X**2 - Y**2)


curve_terms = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), st.integers(-3, 3).filter(bool), min_size=1, max_size=6
)


@settings(max_examples=80, deadline=None)
@given(curve_terms, maps(min_degree=1), maps(min_degree=1), points, points)
def test_substitute_maps_matches_pointwise_values(terms, A1, A2, a, b):
    F = BiPoly(terms)
    u, v = frac_ratio(A1.num.c, A1.den.c, a), frac_ratio(A2.num.c, A2.den.c, b)
    assume(u is not None and v is not None)
    scale = frac_eval(A1.den.c, a) ** F.deg_x * frac_eval(A2.den.c, b) ** F.deg_y
    assert bi_value(substitute_maps(F, A1, A2).terms, a, b) == bi_value(F.terms, u, v) * scale


@settings(max_examples=30, deadline=None)
@given(
    maps(min_degree=1, max_degree=2),
    maps(min_degree=1, max_degree=2),
    st.integers(0, 2),
    st.integers(0, 2),
    st.integers(-3, 3).filter(bool),
)
def test_vanishes_on_parametrization(X1, X2, i, j, c):
    F = implicitize((X1, X2)).poly
    assert vanishes_on_parametrization(F, X1, X2)
    # (F + c x^i y^j)(X1, X2) = c X1^i X2^j, never identically zero
    assert not vanishes_on_parametrization(F + BiPoly({(i, j): c}), X1, X2)


def test_periodic_certificate_full_identities():
    A = RatMap(UniPoly.of(1, 2, 1))
    # the graph x = A(y), parametrized by (A(t), t)
    rep = periodic_curve_certificate(A, RatMap.identity(), RatMap.identity(), A, A, A, 1)
    assert rep.ok
    assert rep.conjugator == A
    assert rep.curve is not None
    assert rep.curve.bidegree == (1, 2)
    assert is_invariant(rep.curve, A, A)


@settings(max_examples=25, deadline=None)
@given(
    maps(min_degree=2, max_degree=2),
    st.sampled_from([(1, 1, 0, 2), (0, 2, 1, 1), (1, 1, 1, 1), (2, 0, 1, 1), (0, 2, 2, 0)]),
)
def test_certificate_membership_matches_the_factors(R, powers):
    # X_i = R^a_i and Y_i = R^b_i with a_i + b_i = 2 satisfy every identity
    # for A = R^2 at n = 1; the separated curve R^b1(x) = R^b2(y) is often
    # reducible
    X1, Y1, X2, Y2 = (R.iterate(k) if k else RatMap.identity() for k in powers)
    A = R.iterate(2)
    rep = periodic_curve_certificate(X1, X2, Y1, Y2, A, A, 1)
    member = dict(rep.checks)["parametrized curve is a component of the separated curve"]
    assert member == any(f == rep.curve for f, _ in separated_curve(Y1, Y2).factor())
    assert rep.ok


def test_periodic_certificate_reports_failures():
    A = RatMap(UniPoly.of(1, 2, 1))
    rep = periodic_curve_certificate(power_map(2), RatMap.identity(), power_map(3), A, A, A, 1)
    assert not rep.ok
    assert rep.failures()
