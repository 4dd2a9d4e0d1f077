import time

import pytest
from hypothesis import given, settings, strategies as st

from ratdyn.bipolys import BiPoly
from ratdyn.curves import is_invariant
from ratdyn.decompose import right_divide
from ratdyn.errors import NotDefined, PreconditionError
from ratdyn.memo import cache_stats, clear_caches
from ratdyn.polynomials import UniPoly
from ratdyn.ratmaps import INF, RatMap, mobius, power_map
from ratdyn.search import (
    SearchConfig,
    commuting_route,
    find_invariant_curves,
    find_periodic_curves,
    find_preperiodic_components,
    reduce_through_coverings,
)

X = BiPoly.var_x()
Y = BiPoly.var_y()
A_SHIFT = RatMap(UniPoly.of(1, 2, 1))  # (z+1)^2


def curve_strs(report):
    return sorted(c.curve.to_str() for c in report.curves)


def test_invariant_search_diagonal():
    rep = find_invariant_curves(A_SHIFT, A_SHIFT, SearchConfig(bidegree=(1, 1), iterate_cap=2))
    assert curve_strs(rep) == ["x - y"]
    assert rep.completeness == "complete_up_to_cap"
    for cert in rep.curves:
        assert cert.X1.compose(cert.B) == A_SHIFT.compose(cert.X1)
        assert cert.X2.compose(cert.B) == A_SHIFT.compose(cert.X2)
        assert is_invariant(cert.curve, A_SHIFT, A_SHIFT)


def test_invariant_search_graph():
    rep = find_invariant_curves(A_SHIFT, A_SHIFT, SearchConfig(bidegree=(1, 2), iterate_cap=2))
    assert curve_strs(rep) == ["x - y^2 - 2*y - 1"]
    rep = find_invariant_curves(A_SHIFT, A_SHIFT, SearchConfig(bidegree=(2, 1), iterate_cap=2))
    assert curve_strs(rep) == ["x^2 + 2*x - y + 1"]


def test_invariant_search_no_22_curves():
    rep = find_invariant_curves(A_SHIFT, A_SHIFT, SearchConfig(bidegree=(2, 2), iterate_cap=2))
    assert rep.curves == ()


def test_invariant_search_no_22_curves_at_cap_4():
    # the commutant of (z+1)^2 is {id, A}, so no (2,2) curve up to cap 4;
    # the squarefree tests on graph numerators of A^4 end at the first
    # image gcd of degree 0
    start = time.perf_counter()
    rep = find_invariant_curves(A_SHIFT, A_SHIFT, SearchConfig(bidegree=(2, 2), iterate_cap=4))
    elapsed = time.perf_counter() - start
    assert rep.curves == ()
    assert rep.completeness == "complete_up_to_cap"
    assert elapsed < 3.0


def test_invariant_search_cubic_at_cap_3():
    # each squarefree test on a graph numerator of A^3 ends at an image
    # gcd of degree 0, past the critical points of A^3 among 0, 1, -1, ...
    A = RatMap(UniPoly.of(1, -3, 0, 1))  # z^3 - 3z + 1
    start = time.perf_counter()
    rep = find_invariant_curves(A, A, SearchConfig(bidegree=(3, 3), iterate_cap=3))
    elapsed = time.perf_counter() - start
    assert rep.curves == ()
    assert rep.completeness == "complete_up_to_cap"
    assert elapsed < 3.0


def test_invariant_search_planted_separated_curve():
    # A1 = P o Q and A2 = S o R with Q o P = R o S for P = z^3 + z, Q = z^2,
    # R = z (z+1)^2, S = z^2: the curve Q(x) = R(y) is invariant.  The
    # return maps here have two marked points, 0 and INF, so each
    # transporter is pinned through one further point and a parameter w.
    A1 = RatMap(UniPoly.of(0, 0, 1, 0, 0, 0, 1))  # z^6 + z^2
    A2 = RatMap(UniPoly.monomial(2) * UniPoly.of(1, 1) ** 4)  # z^2 (z+1)^4
    start = time.perf_counter()
    rep = find_invariant_curves(A1, A2, SearchConfig(bidegree=(2, 3), iterate_cap=1))
    elapsed = time.perf_counter() - start
    assert curve_strs(rep) == ["x^2 - y^3 - 2*y^2 - y"]
    assert rep.completeness == "complete_up_to_cap"
    assert is_invariant(rep.curves[0].curve, A1, A2)
    assert elapsed < 1.0


def test_invariant_search_special_stress():
    z2 = power_map(2)
    rep = find_invariant_curves(z2, z2, SearchConfig(bidegree=(1, 1), iterate_cap=2))
    assert curve_strs(rep) == ["x - y", "x*y - 1"]
    assert rep.completeness == "enumeration_only_for_special_maps"


def test_invariant_search_lines():
    rep = find_invariant_curves(
        A_SHIFT, A_SHIFT, SearchConfig(bidegree=(1, 1), iterate_cap=1, include_lines=True)
    )
    assert [(ln.axis, ln.value) for ln in rep.lines] == [("x", INF), ("y", INF)]
    A = RatMap(UniPoly.of(0, 0, 1))
    rep = find_invariant_curves(
        A, A, SearchConfig(bidegree=(1, 1), iterate_cap=1, include_lines=True)
    )
    values = sorted(str(ln.value) for ln in rep.lines if ln.axis == "x")
    assert values == ["0", "1", "INF"]


def test_unequal_degrees_only_lines():
    rep = find_invariant_curves(
        power_map(2), power_map(3), SearchConfig(bidegree=(1, 1), iterate_cap=2, include_lines=True)
    )
    assert rep.curves == ()
    assert rep.completeness == "complete"
    assert rep.lines


def test_periodic_search_labels_periods():
    cfg = SearchConfig(bidegree=(1, 1), iterate_cap=1)
    rep = find_periodic_curves(A_SHIFT, A_SHIFT, cfg, period_cap=2)
    assert any(c.curve.poly == (X - Y).canonical() and c.period == 1 for c in rep.curves)
    for cert in rep.curves:
        if cert.Y1 is not None:
            assert cert.Y1.compose(cert.X1) == cert.Y2.compose(cert.X2)


def test_periodic_search_reports_the_invariant_lines_of_the_maps():
    # z^2 - 1 fixes only INF and has the rational 2-cycle 0 -> -1 -> 0, so
    # the lines of its second iterate are not its own
    A = RatMap(UniPoly.of(-1, 0, 1))
    cfg = SearchConfig(bidegree=(1, 1), iterate_cap=1, include_lines=True)
    rep = find_periodic_curves(A, A, cfg, period_cap=2)
    assert rep.lines == find_invariant_curves(A, A, cfg).lines
    assert [(ln.axis, ln.value) for ln in rep.lines] == [("x", INF), ("y", INF)]
    assert len(find_invariant_curves(A.iterate(2), A.iterate(2), cfg).lines) == 6
    assert find_periodic_curves(A, A, cfg._replace(include_lines=False), period_cap=2).lines == ()


def test_preperiodic_components_fixture():
    A = A_SHIFT
    Y1 = RatMap(UniPoly.of(1, 1))
    Y2 = RatMap(UniPoly.of(1, 1))
    out = find_preperiodic_components(A, A, Y1, Y2)
    assert out["witness_power"] == 1
    comps = out["components"]
    assert len(comps) == 1
    comp, behaviour = comps[0]
    assert comp.poly == (X - Y).canonical()
    assert behaviour == (0, 1)


def test_preperiodic_components_split_curve():
    A = A_SHIFT
    Y1 = RatMap(UniPoly.of(2, 2, 1))  # (z+1)^2 + 1, a right factor of A o A
    Y2 = Y1
    out = find_preperiodic_components(A, A, Y1, Y2)
    comps = dict((comp.poly.to_str(), behaviour) for comp, behaviour in out["components"])
    assert comps["x - y"] == (0, 1)
    assert comps["x + y + 2"] == (1, 1)


def test_preperiodic_components_rejects_bad_data():
    with pytest.raises(PreconditionError):
        find_preperiodic_components(A_SHIFT, A_SHIFT, power_map(3), RatMap(UniPoly.of(1, 1)))


def test_commuting_route_agreement():
    for bd in ((1, 1), (1, 2), (2, 1), (2, 2)):
        cfg = SearchConfig(bidegree=bd, iterate_cap=2)
        main = find_invariant_curves(A_SHIFT, A_SHIFT, cfg)
        comm = commuting_route(A_SHIFT, cfg)
        assert main.curve_set() == comm.curve_set()


def test_route_agreement_more_diagonal_pairs():
    for coeffs in ((-1, 0, 1), (1, 0, 1), (2, 0, 1), (3, 2, 1)):
        A = RatMap(UniPoly(list(coeffs)))
        for bd in ((1, 1), (1, 2), (2, 2)):
            cfg = SearchConfig(bidegree=bd, iterate_cap=2)
            main = find_invariant_curves(A, A, cfg)
            alt = commuting_route(A, cfg)
            assert main.curve_set() == alt.curve_set(), (coeffs, bd)


def test_commuting_route_diagonal_pair():
    cfg = SearchConfig(bidegree=(1, 1), iterate_cap=1)
    rep = commuting_route(A_SHIFT, cfg)
    assert curve_strs(rep) == ["x - y"]
    for cert in rep.curves:
        assert cert.X1.compose(cert.Y1) == cert.Y1.compose(cert.X1)


def test_covering_reduction_round_trip():
    B = RatMap(UniPoly.of(0, 2, 1), UniPoly.of(1, 2))  # deck-symmetric seed
    th = RatMap(UniPoly.of(1, 0, 1), UniPoly.of(0, 2))  # (z^2+1)/(2z)
    A = right_divide(th.compose(B), th)
    assert A is not None
    assert th.compose(B) == A.compose(th)
    B1, B2, X1, X2 = reduce_through_coverings(A, A)
    assert X1.compose(B1) == A.compose(X1)
    assert X2.compose(B2) == A.compose(X2)
    # the recovered covering has the same branch orbifold as the planted one
    from ratdyn.orbifolds import o2_of

    assert o2_of(X1) == o2_of(th)


def test_covering_reduction_curves_map_forward():
    from ratdyn.curves import ParamCurve, implicitize

    B = RatMap(UniPoly.of(0, 2, 1), UniPoly.of(1, 2))
    th = RatMap(UniPoly.of(1, 0, 1), UniPoly.of(0, 2))
    A = right_divide(th.compose(B), th)
    B1, B2, X1, X2 = reduce_through_coverings(A, A)
    rep = find_invariant_curves(B1, B2, SearchConfig(bidegree=(1, 1), iterate_cap=2))
    assert rep.curves
    for cert in rep.curves:
        # push the parametrization forward through the covering pair
        forward = implicitize(ParamCurve(X1.compose(cert.X1), X2.compose(cert.X2)))
        assert is_invariant(forward, A, A)


def test_invariant_search_conjugate_pair():
    # distinct coordinates: (z+1)^2 and its conjugate z^2 + 1
    A1 = A_SHIFT
    A2 = RatMap(UniPoly.of(1, 0, 1))
    rep = find_invariant_curves(A1, A2, SearchConfig(bidegree=(1, 1), iterate_cap=2))
    assert curve_strs(rep) == ["x - y + 1"]
    rep = find_invariant_curves(A1, A2, SearchConfig(bidegree=(1, 2), iterate_cap=2))
    assert "x - y^2" in curve_strs(rep)
    for cert in rep.curves:
        assert is_invariant(cert.curve, A1, A2)


def test_genuine_period_two_cycle_for_special_pair():
    """The curves x + y^2 and x - y^2 swap under (-z^3, z^3).  The pair is
    power-conjugate (special), so the factor enumeration cannot reach the
    cycle (the third iterate has no degree-two left factors at all) and the
    report honestly carries the special-map label; the orbit machinery
    still certifies the cycle exactly."""
    from ratdyn.bipolys import BiPoly
    from ratdyn.curves import BiCurve, periodicity
    from ratdyn.polynomials import UniPoly

    A1 = RatMap(UniPoly.of(0, 0, 0, -1))  # -z^3
    A2 = RatMap(UniPoly.of(0, 0, 0, 1))  # z^3
    plus = BiCurve(BiPoly({(1, 0): 1, (0, 2): 1}))  # x + y^2
    minus = BiCurve(BiPoly({(1, 0): 1, (0, 2): -1}))  # x - y^2
    from ratdyn.curves import image_curve

    assert image_curve(plus, A1, A2) == minus
    assert image_curve(minus, A1, A2) == plus
    assert periodicity(plus, A1, A2, 4) == 2
    cfg = SearchConfig(bidegree=(1, 2), iterate_cap=2)
    rep = find_periodic_curves(A1, A2, cfg, period_cap=2)
    assert rep.completeness == "enumeration_only_for_special_maps"


def test_lattes_pair_stress():
    # flat-orbifold stress: the doubling map is odd, so both diagonals are
    # invariant; the enumeration label stays honest for special inputs
    lat = RatMap(UniPoly.of(1, 0, 1) ** 2, UniPoly.monomial(1, 4) * UniPoly.of(-1, 0, 1))
    rep = find_invariant_curves(lat, lat, SearchConfig(bidegree=(1, 1), iterate_cap=1))
    assert curve_strs(rep) == ["x + y", "x - y"]
    assert rep.completeness == "enumeration_only_for_special_maps"
    for cert in rep.curves:
        assert is_invariant(cert.curve, lat, lat)


def test_covering_reduction_three_point_orbifold():
    # seed with the full two-generator symmetry: B(-z) = -B and B(1/z) = 1/B,
    # so the descent through (z^2 + 1/z^2)/2 remembers all three branch points
    from ratdyn.orbifolds import o2_of
    from ratdyn.classify import classify

    th = RatMap(UniPoly.of(1, 0, 0, 0, 1), UniPoly.monomial(2, 2))
    planted = RatMap(UniPoly.of(0, 2, 0, 1), UniPoly.of(1, 0, 2))
    A = right_divide(th.compose(planted), th)
    assert A is not None and th.compose(planted) == A.compose(th)
    cls = classify(A)
    assert cls.kind == "generalized_lattes"
    assert cls.orbifold.signature() == (2, 2, 2)
    B1, B2, X1, X2 = reduce_through_coverings(A, A)
    assert X1.degree == 4
    assert o2_of(X1) == o2_of(th)
    assert X1.compose(B1) == A.compose(X1)


def test_covering_reduction_rejects_plain_maps():
    with pytest.raises(NotDefined):
        reduce_through_coverings(A_SHIFT, A_SHIFT)


def test_pair_candidates_computed_once_per_pair(monkeypatch):
    import ratdyn.search as search

    calls = []
    inner = search._pair_candidates

    def recording(A, X):
        calls.append((A, X))
        return inner(A, X)

    monkeypatch.setattr(search, "_pair_candidates", recording)
    # a diagonal pair, whose left factors recur on both sides, and a
    # conjugate pair; the reports are those of the tests above.  A pair
    # asked again is answered by the memo, so each distinct pair is divided
    # once
    A2 = RatMap(UniPoly.of(1, 0, 1))
    for A, B, bideg, want in (
        (A_SHIFT, A_SHIFT, (1, 1), ["x - y"]),
        (A_SHIFT, A2, (1, 1), ["x - y + 1"]),
    ):
        calls.clear()
        clear_caches()
        rep = find_invariant_curves(A, B, SearchConfig(bidegree=bideg, iterate_cap=2))
        assert curve_strs(rep) == want
        assert calls and cache_stats()["ratdyn.decompose.left_divide"]["misses"] == len(set(calls))


# the memoised entry points under a search: left factors, left division,
# implicitization and classification are computed once per process
NON_SPECIAL = [A_SHIFT, RatMap(UniPoly.of(3, -2, 1)), RatMap(UniPoly.of(0, 1, 1), UniPoly.of(2, 1))]


@settings(max_examples=12, deadline=None)
@given(
    st.sampled_from(NON_SPECIAL),
    st.tuples(*[st.integers(-3, 3)] * 4).filter(lambda m: m[0] * m[3] != m[1] * m[2]),
    st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2)]),
    st.integers(1, 2),
)
def test_search_reports_equal_with_warm_and_cold_memos(A, m, bidegree, cap):
    mu = mobius(*m)
    B = mu.mobius_inverse().compose(A).compose(mu)
    cfg = SearchConfig(bidegree=bidegree, iterate_cap=cap)
    first = find_invariant_curves(A, B, cfg)
    assert find_invariant_curves(A, B, cfg) == first  # warm memos
    clear_caches()
    assert find_invariant_curves(A, B, cfg) == first  # cold memos
    if bidegree == (1, 1):
        # a conjugate pair keeps the graph of mu
        assert any(c.curve.bidegree == (1, 1) for c in first.curves)


def test_repeated_search_adds_hits_and_no_misses():
    A = RatMap(UniPoly.of(3, -2, 1))
    B = A.conjugate(mobius(1, 1, 0, 1))
    for search in (
        lambda: find_invariant_curves(A, B, SearchConfig(bidegree=(1, 2), iterate_cap=2)),
        lambda: commuting_route(A, SearchConfig(bidegree=(1, 1), iterate_cap=2)),
    ):
        first = search()
        before = cache_stats()
        assert search() == first
        after = cache_stats()
        assert all(after[name]["misses"] == before[name]["misses"] for name in after)
        for name in ("ratdyn.decompose.all_left_factors", "ratdyn.decompose.left_divide",
                     "ratdyn.curves.implicitize", "ratdyn.classify.classify",
                     "ratdyn.ratmaps.RatMap.compose", "ratdyn.factoring.factor_bivariate"):
            assert after[name]["hits"] > before[name]["hits"]
