"""The benchmark's own tests: each checker accepts a right answer and
rejects a corrupted one, and the reported metrics match BENCHMARK.json.
Run with ``python3 -m pytest bench``."""

import json
from fractions import Fraction
from pathlib import Path

import checkers as ck
import run
import workloads as wl
from tracer import Tracer

F = Fraction


def bump(f, k=0, by=F(1, 1000)):
    """f with its k-th numerator coefficient perturbed."""
    num = list(f[0])
    num[k] += by
    return (ck.poly(*num), f[1])


def test_identity_proves_the_generalized_lattes_fixture():
    assert ck.identity_holds([wl.TH_MAP, wl.GL_MAP], [wl.PLANTED_MAP, wl.TH_MAP])
    assert not ck.identity_holds([wl.TH_MAP, bump(wl.GL_MAP)], [wl.PLANTED_MAP, wl.TH_MAP])


def test_identity_rejects_a_wrong_power_witness():
    # A = m^-1 o z^2 o m; then w = m satisfies w o A = z^2 o w
    m = (2, 1, 1, 1)
    A = wl.conjugate_chain([ck.ratmap((0, 0, 1))], m)
    w = ck.mobius_map(m)
    sq = ck.ratmap((0, 0, 1))
    assert ck.identity_holds([*A, w], [w, sq])
    assert not ck.identity_holds([*A, bump(w, 1)], [bump(w, 1), sq])
    assert not ck.identity_holds([*A, w], [w, bump(sq, 2)])


def test_identity_point_count_comes_from_the_degree_bound():
    # z^5 and z^5 + (z(z-1)...(z-9)) agree at ten points, fewer than 2*10+1
    roots = ck.poly(1)
    for r in range(10):
        roots = ck.poly_mul(roots, ck.poly(-r, 1))
    f = ck.ratmap(ck.poly_add(ck.poly(0, 0, 0, 0, 0, 1), roots))
    assert len(ck.sample_points(21)) == 21
    assert not ck.identity_holds([f], [ck.ratmap((0, 0, 0, 0, 0, 1))])


def test_compose_matches_evaluation():
    f, g = wl.GL_MAP, ck.mobius_map((1, -2, 2, 1))
    h = ck.compose(f, g)
    assert ck.map_degree(h) == 3
    assert ck.identity_holds([h], [g, f])
    assert not ck.identity_holds([bump(h)], [g, f])


def test_moebius_transport_of_places():
    m = (2, 1, 1, 1)  # (2z + 1)/(z + 1)
    inv = ck.mobius_inverse(m)
    support = ck.transport_points(inv, wl.LATTES_SUPPORT)
    assert support == {F(-1, 2), F(0), F(-2, 3), F(-1)}
    assert ck.transport_points(m, support) == set(wl.LATTES_SUPPORT)
    wrong = set(support) - {F(-2, 3)} | {F(-3, 2)}
    assert ck.transport_points(m, wrong) != set(wl.LATTES_SUPPORT)


def test_pinned_conjugators_put_a_finite_singular_point_at_infinity():
    assert wl.pinned((1, 0, 1, 1), wl.LATTES_SUPPORT)  # m(inf) = 1
    assert not wl.pinned((1, 1, 0, 1), wl.LATTES_SUPPORT)  # affine
    assert not wl.pinned((2, 1, 1, 1), wl.LATTES_SUPPORT)  # m(inf) = 2


def test_chi_formula():
    assert ck.chi([(1, 2)] * 4) == 0
    assert ck.chi([(1, 2), (1, 3), (1, 7)]) == F(-1, 42)
    assert ck.chi([(1, 2)] * 3) == F(1, 2)
    assert ck.chi([(2, 3), (1, 2)]) == F(1, 6)  # a degree-2 place counts twice
    assert ck.chi([(1, 2), (1, 3), (1, 6)]) != F(1, 6)


def test_genus_gate_boundaries():
    assert ck.genus_gate(2, 2, 5)
    assert not ck.genus_gate(2, 1000, 0)
    assert not ck.genus_gate(3, 84 * 3 - 168, 0)
    assert ck.genus_gate(3, 84 * 3 - 168, 1)
    assert not ck.genus_gate(2, 84 * 2 - 168 + 85, 1)
    assert ck.genus_gate(2, 84 * 2 - 168 + 83, 1)


def test_centred_monic_t3_test():
    assert ck.is_pm_t3_cubic((0, -3, 0, 1))
    assert ck.is_pm_t3_cubic((0, 3, 0, 1))
    # (z+1)^3 - 3(z+1) - 1 is z^3 - 3z conjugated by z -> z + 1
    shifted = ck.poly_add(ck.poly_add(ck.poly_pow(ck.poly(1, 1), 3), ck.poly(-3, -3)), ck.poly(-1))
    assert ck.is_pm_t3_cubic(shifted)
    assert not ck.is_pm_t3_cubic(ck.poly_add(shifted, ck.poly(F(1, 1000))))
    for _, coeffs in wl.FAULT_CUBICS:
        assert not ck.is_pm_t3_cubic(coeffs)


def test_chebyshev_recurrence():
    assert ck.chebyshev(3) == ck.poly(0, -3, 0, 4)
    assert ck.chebyshev(4) == ck.poly(1, 0, -8, 0, 8)
    # T2 o T3 = T6 = T3 o T2
    t2, t3 = ck.ratmap(ck.chebyshev(2)), ck.ratmap(ck.chebyshev(3))
    assert ck.identity_holds([t3, t2], [t2, t3])


def test_vanishing_on_a_parametrization():
    cusp = ck.curve({(3, 0): 1, (0, 2): -1})  # x^3 - y^2 on (t^2, t^3)
    X1, X2 = ck.ratmap((0, 0, 1)), ck.ratmap((0, 0, 0, 1))
    assert ck.vanishes_on(cusp, X1, X2)
    assert not ck.vanishes_on({**cusp, (1, 0): F(1, 1000)}, X1, X2)
    assert ck.bidegree(cusp) == (3, 2)


def test_curve_pullback_under_moebius():
    A = ck.ratmap((1, 2, 1))
    m = (1, 2, -1, 1)  # y -> (y + 2)/(1 - y)
    graph = ck.graph_curve(A)  # y = A(x)
    pulled = ck.pullback_y(graph, m)
    # (x, y) lies on the pullback when m(y) = A(x): parametrize by y = m^-1(A(t))
    inv = ck.mobius_map(ck.mobius_inverse(m))
    X2 = ck.compose(inv, A)
    assert ck.vanishes_on(pulled, ck.ratmap((0, 1)), X2)
    assert ck.same_curve_sets([pulled], [{k: 3 * v for k, v in pulled.items()}])
    wrong = dict(pulled)
    wrong[(0, 0)] = wrong.get((0, 0), 0) + 1
    assert not ck.same_curve_sets([pulled], [wrong])
    assert not ck.vanishes_on(wrong, ck.ratmap((0, 1)), X2)


def test_pullback_in_both_variables():
    m = (2, 1, 1, 1)
    diag = ck.curve({(1, 0): 1, (0, 1): -1})
    # m(x) = m(y) only on the diagonal
    assert ck.same_curve_sets([ck.pullback_xy(diag, m)], [diag])
    graph = ck.graph_curve(ck.ratmap((1, 2, 1)))
    moved = ck.pullback_xy(graph, m)
    assert not ck.same_curve_sets([moved], [graph])
    assert ck.bidegree(moved) == (2, 1)


def test_reported_metrics_match_benchmark_json():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS.items())
    traced = list(Tracer().report()) + ["trace.overhead_s"]
    assert [m["name"] for m in spec["per_layer"]] == traced
