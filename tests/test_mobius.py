from hypothesis import assume, given, settings, strategies as st

from ratdyn.errors import PreconditionError
from ratdyn.mobius import (
    _orbit_base,
    _transporter_candidates,
    are_conjugate,
    conjugacy_transporters,
    mobius_commutant,
    mobius_left_stabilizer,
    mu_equivalent,
    mu_right_transports,
)
from ratdyn.polynomials import UniPoly
from ratdyn.ratmaps import INF, RatMap, chebyshev, mobius, power_map

from oracles import bivariate_transporter_candidates
from test_ratmaps import maps

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


def candidates_match_elimination(a, b):
    try:
        _orbit_base(a)
    except PreconditionError:
        assume(False)
    got = _transporter_candidates(a, b)
    assert got == bivariate_transporter_candidates(a, b)
    return got


@settings(max_examples=25, deadline=None)
@given(maps(min_degree=2, max_degree=3), mobius_maps)
def test_transporter_candidates_on_conjugate_pairs(a, mu):
    # nu = mu^-1 carries a to b: nu o a = b o nu
    nu = mu.mobius_inverse()
    b = nu.compose(a).compose(mu)
    z0, _, _, cands = candidates_match_elimination(a, b)
    w0 = nu(z0)
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
@given(st.integers(2, 3).flatmap(lambda d: st.tuples(maps_of_degree(d), maps_of_degree(d))))
def test_transporter_candidates_on_unrelated_pairs(pair):
    candidates_match_elimination(*pair)
