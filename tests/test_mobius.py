import sys
from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from ratdyn.mobius import (
    _marked_points,
    _orbit,
    _parameters,
    are_conjugate,
    conjugacy_transporters,
    mobius_commutant,
    mobius_left_stabilizer,
    mu_equivalent,
    mu_right_transports,
)
from ratdyn.parser import parse_map
from ratdyn.polynomials import UniPoly
from ratdyn.ratmaps import INF, RatMap, chebyshev, mobius, power_map

from oracles import bivariate_transporter_candidates, symbolic_transporters
from test_ratmaps import maps

# the module, which the package's `mobius` function shadows as an attribute
mobius_module = sys.modules["ratdyn.mobius"]

HALF_SYM = RatMap(UniPoly.of(1, 0, 0, 0, 1), UniPoly.monomial(2, 2))  # (z^4+1)/(2 z^2)


def strs(ms):
    return sorted(m.to_str() for m in ms)


def test_left_stabilizers():
    assert strs(mobius_left_stabilizer(power_map(2))) == ["-z", "z"]
    assert strs(mobius_left_stabilizer(power_map(3))) == ["z"]
    assert strs(mobius_left_stabilizer(RatMap(UniPoly.of(1, 1)))) == ["z"]
    got = mobius_left_stabilizer(HALF_SYM)
    for m in (mobius(1, 0, 0, 1), mobius(-1, 0, 0, 1), mobius(0, 1, 1, 0), mobius(0, -1, 1, 0)):
        assert m in got
    assert len(got) == 4


def test_groups_verify_closure():
    for B in (power_map(2), power_map(3), HALF_SYM):
        assert mobius_left_stabilizer(B).verify_group()
        assert mobius_commutant(B).verify_group()


def test_commutants():
    g2 = mobius_commutant(power_map(2))
    assert mobius(0, 1, 1, 0) in g2  # 1/z
    assert RatMap.identity() in g2
    assert strs(mobius_commutant(RatMap(UniPoly.of(-1, 0, 1)))) == ["z"]
    g3 = mobius_commutant(power_map(3))
    for m in (mobius(-1, 0, 0, 1), mobius(0, 1, 1, 0), mobius(0, -1, 1, 0)):
        assert m in g3


def test_commutant_of_lattes_map():
    from ratdyn.polynomials import UniPoly

    lat = RatMap(UniPoly.of(1, 0, 1) ** 2, UniPoly.monomial(1, 4) * UniPoly.of(-1, 0, 1))
    assert strs(mobius_commutant(lat)) == ["-z", "z"]


def test_transporters_and_conjugacy():
    a = RatMap(UniPoly.of(1, 2, 1))  # (z+1)^2
    b = RatMap(UniPoly.of(1, 0, 1))  # z^2 + 1
    trans = conjugacy_transporters(a, b)
    assert strs(trans) == ["z + 1"]
    assert are_conjugate(a, b)
    assert not are_conjugate(a, power_map(2))
    assert are_conjugate(chebyshev(3), chebyshev(3))


def test_transporter_completeness_against_commutant():
    # transporters from B to B form the full commutant
    for B in (power_map(2), chebyshev(3)):
        assert set(conjugacy_transporters(B, B)) == set(mobius_commutant(B))


def test_mu_right_transports():
    t3 = chebyshev(3)
    m = mu_right_transports(t3, t3.compose(mobius(-1, 0, 0, 1)))
    assert strs(m) == ["-z"]
    assert mu_equivalent(power_map(4), power_map(4).compose(mobius(0, 1, 1, 0)))
    assert not mu_equivalent(power_map(4), chebyshev(4))


def test_right_transport_completeness():
    f = power_map(4)
    transports = mu_right_transports(f, f)
    assert strs(transports) == ["-z", "z"]


# ----------------------------------------------------------------------
# transporter candidates by specialisation against elimination in Q[z, w]

mobius_maps = (
    st.tuples(*[st.integers(-3, 3)] * 4)
    .filter(lambda c: c[0] * c[3] != c[1] * c[2])
    .map(lambda c: mobius(*c))
)

sphere_points = st.one_of(st.just(INF), st.integers(-3, 3).map(Fraction))


@st.composite
def completed_sources(draw, a):
    """(sources, points): k = 0, 1 or 2 points followed by the orbit
    z0, a(z0), ... of one more, three pairwise distinct sources in all."""
    points = draw(st.lists(sphere_points, min_size=0, max_size=2, unique=True))
    sources = points + _orbit(a, draw(sphere_points), 3 - len(points))
    assume(len(set(sources)) == 3)
    return sources, points


def candidates_match_elimination(a, b, sources, marks):
    got = _parameters(a, b, sources, marks)
    assert got == bivariate_transporter_candidates(a, b, sources, marks)
    return got


@settings(max_examples=25, deadline=None)
@given(maps(min_degree=2, max_degree=3), mobius_maps, st.data())
def test_transporter_candidates_on_conjugate_pairs(a, mu, data):
    # nu = mu^-1 carries a to b, nu o a = b o nu, and the points to their
    # images, so w0 = nu(z0) is a candidate unless it is INF
    nu = mu.mobius_inverse()
    b = nu.compose(a).compose(mu)
    sources, points = data.draw(completed_sources(a))
    cands = candidates_match_elimination(a, b, sources, [nu(p) for p in points])
    w0 = nu(sources[len(points)])
    assert w0 is INF or w0 in cands


@st.composite
def maps_of_degree(draw, d):
    """A map of degree d, drawn with a numerator or denominator of degree d
    so that few draws are rejected; two draws of `maps(d, d)` are rejected
    often enough to fail Hypothesis's filtering health check."""
    top = draw(st.lists(st.integers(-4, 4), min_size=d + 1, max_size=d + 1).filter(lambda c: c[-1]))
    other = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=d + 1).filter(any))
    if draw(st.booleans()):
        top, other = other, top
    f = RatMap(UniPoly(top), UniPoly(other))
    assume(f.degree == d)
    return f


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 3).flatmap(lambda d: st.tuples(maps_of_degree(d), maps_of_degree(d))), st.data())
def test_transporter_candidates_on_unrelated_pairs(pair, data):
    a, b = pair
    sources, points = data.draw(completed_sources(a))
    marks = data.draw(st.lists(sphere_points, min_size=len(points), max_size=len(points), unique=True))
    candidates_match_elimination(a, b, sources, marks)


# ----------------------------------------------------------------------
# the transporter route against the symbolic route with no marks

# maps with 0, 1 and 2 rational marked points, and with more; the last two
# with two marks have two fixed marks of one label, so both may go to
# either, and both to one would make the transporter identity vanish
BY_MARKS = {
    0: ["(z^2 - 3) / (z^2 - z + 1)", "(-z + 3) / (2*z^2 - z - 3)", "(-z^2 + z + 1) / (z^2 - 1)"],
    1: ["-z^3 - z - 1", "(3*z^3 + z^2 + z + 2) / 3"],
    2: [
        "(3*z^2 - z + 2) / (z - 3)",
        "(-z^2 + 2*z + 2) / (2*z - 2)",
        "(3*z^3 + 2*z^2 - z + 3) / z",
        "(z^3 + 2*z) / (z^2 - 2)",
        "-z^3 / 2",
    ],
    3: ["z^2 + z + 3", "(-2*z^2 - z + 3) / (z - 3)", "z^2", "(z^4 + 1) / (2*z^2)"],
}


def assert_matches_symbolic_route(a, b):
    got = conjugacy_transporters(a, b)
    assert got == symbolic_transporters(a, b)
    return got


def test_transporters_match_the_symbolic_route_for_each_mark_count():
    for k, texts in BY_MARKS.items():
        fs = [parse_map(t) for t in texts]
        for f in fs:
            assert min(len(_marked_points(f)), 3) == k
            assert RatMap.identity() in assert_matches_symbolic_route(f, f)
            for mu in (mobius(1, 1, 0, 1), mobius(0, 1, 1, -1), mobius(2, -1, 1, 1)):
                g = mu.compose(f).compose(mu.mobius_inverse())
                assert mu in assert_matches_symbolic_route(f, g)
            for g in fs:
                if g.degree == f.degree:
                    assert_matches_symbolic_route(f, g)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(2, 3).flatmap(lambda d: st.tuples(maps_of_degree(d), maps_of_degree(d))),
    mobius_maps,
    st.sampled_from(["conjugate", "self", "unrelated"]),
)
def test_transporters_match_the_symbolic_route(pair, mu, kind):
    a, other = pair
    b = {"conjugate": mu.compose(a).compose(mu.mobius_inverse()), "self": a, "unrelated": other}[kind]
    got = assert_matches_symbolic_route(a, b)
    if kind != "unrelated":
        assert (mu if kind == "conjugate" else RatMap.identity()) in got


def test_three_marks_need_no_parameter(monkeypatch):
    # with three marks there is no orbit to follow and no parameter to find
    def refuse(*args):
        raise AssertionError("an orbit or a parameter was sought with three marks")

    for name in ("_orbit", "_parameters"):
        monkeypatch.setattr(mobius_module, name, refuse)
    for text in BY_MARKS[3]:
        f = parse_map(text)
        g = mobius(2, -1, 1, 1).compose(f).compose(mobius(2, -1, 1, 1).mobius_inverse())
        assert conjugacy_transporters(f, g) == symbolic_transporters(f, g)


def test_transporter_sending_the_base_point_to_infinity():
    # the marks of a are 0 and INF, so the sources are completed by z0 = 1;
    # nu sends z0 to INF, the parameter that no root of the gcd gives
    a = RatMap(-(UniPoly.of(0, 1, 0, 1) ** 2))  # -(z^3 + z)^2
    assert set(_marked_points(a)) == {0, INF}
    nu = mobius(0, 1, 1, -1)  # 1/(z - 1)
    b = nu.compose(a).compose(nu.mobius_inverse())
    assert nu(1) is INF
    assert conjugacy_transporters(a, b) == [nu]
    # with the one mark INF the sources are INF, z0 = 0 and a(0) = -1
    a = parse_map("-z^3 - z - 1")
    assert set(_marked_points(a)) == {INF}
    nu = mobius(1, 1, 1, 0)  # (z + 1) / z
    b = nu.compose(a).compose(nu.mobius_inverse())
    assert nu(0) is INF
    assert nu in assert_matches_symbolic_route(a, b)
