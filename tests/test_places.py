import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from ratdyn.errors import PreconditionError
from ratdyn.factoring import factor_univariate
from ratdyn.places import (
    PLACE_INF,
    Place,
    critical_places,
    critical_values,
    fiber_partition,
    image_place,
    local_degree,
    local_degree_profile,
    preimage_places,
    rational_fixed_points,
    rational_points_in_fiber,
    rh_defect,
)
from ratdyn.polynomials import UniPoly
from ratdyn.ratmaps import INF, RatMap, chebyshev, power_map

from oracles import kp_fiber_partition
from test_ratmaps import rand_map

SQRT2 = Place(UniPoly.of(-2, 0, 1))


def test_local_degrees():
    z2 = power_map(2)
    assert local_degree(z2, Place.of_rational(0)) == 2
    assert local_degree(z2, SQRT2) == 1
    assert local_degree_profile(z2, Place.of_rational(0)) == (2, 1)
    assert local_degree_profile(z2, SQRT2) == (1, 2)
    assert local_degree(chebyshev(3), PLACE_INF) == 3
    assert local_degree(power_map(-3), Place.of_rational(0)) == 3


def test_fiber_partitions():
    z2 = power_map(2)
    assert fiber_partition(z2, Place.of_rational(0)) == ((2, 1),)
    t3 = chebyshev(3)
    assert fiber_partition(t3, Place.of_rational(1)) == ((1, 1), (2, 1))
    assert fiber_partition(z2, SQRT2) == ((1, 2),)
    assert fiber_partition(z2, PLACE_INF) == ((2, 1),)
    f = RatMap(UniPoly.of(1, 0, 1), UniPoly.of(0, 1))  # z + 1/z
    assert fiber_partition(f, PLACE_INF) == ((1, 2),)


def test_fiber_counts_add_to_degree():
    rng = random.Random(31)
    for _ in range(15):
        f = rand_map(rng, rng.randrange(2, 5))
        for q in critical_values(f):
            total = sum(m * c for m, c in fiber_partition(f, q))
            assert total == f.degree


small_ints = st.integers(-4, 4)


@st.composite
def maps_and_places(draw):
    """A map of degree 1-4 and every place of a random monic polynomial of
    degree 1-3, together with the map's critical values and INF."""
    deg = draw(st.integers(1, 4))
    num = UniPoly(draw(st.lists(small_ints, min_size=deg + 1, max_size=deg + 1)))
    den = UniPoly(draw(st.lists(small_ints, min_size=1, max_size=deg + 1)))
    assume(not den.is_zero)
    f = RatMap(num, den)
    assume(f.degree >= 1)
    m = UniPoly(draw(st.lists(small_ints, min_size=1, max_size=3)) + [1])
    places = [Place(g) for g, _ in factor_univariate(m)[1]] + [PLACE_INF]
    if f.degree >= 2:
        places += critical_values(f)
    return f, places


@settings(max_examples=120, deadline=None)
@given(maps_and_places())
def test_fiber_partition_matches_number_field_oracle(case):
    f, places = case
    for q in places:
        assert fiber_partition(f, q) == kp_fiber_partition(f, q)


def test_critical_values_examples():
    assert [place_str(p) for p in critical_values(power_map(2))] == ["0", "inf"]
    assert [place_str(p) for p in critical_values(chebyshev(3))] == ["1", "-1", "inf"]
    f = RatMap(UniPoly.of(1, 0, 1), UniPoly.of(0, 1))
    assert [place_str(p) for p in critical_values(f)] == ["2", "-2"]


def place_str(p):
    if p.is_infinity:
        return "inf"
    v = p.rational_value()
    return str(v) if v is not None else p.minpoly.to_str()


def test_critical_value_count_bound():
    rng = random.Random(41)
    for _ in range(12):
        f = rand_map(rng, rng.randrange(2, 6))
        geometric = sum(p.degree for p in critical_values(f))
        assert geometric <= 2 * f.degree - 2


def test_rh_defect_random():
    rng = random.Random(12)
    for _ in range(20):
        f = rand_map(rng, rng.randrange(2, 7))
        assert rh_defect(f) == 2 * f.degree - 2


def test_image_and_preimage_places():
    f = RatMap(UniPoly.of(1, 0, 1), UniPoly.of(0, 1))
    assert image_place(f, PLACE_INF) == PLACE_INF
    assert sorted(place_str(p) for p in preimage_places(f, PLACE_INF)) == ["0", "inf"]
    z2 = power_map(2)
    assert image_place(z2, SQRT2) == Place.of_rational(2)
    pre = preimage_places(z2, Place.of_rational(2))
    assert pre == [SQRT2]
    # image of a degree-two place can stay degree two
    g = RatMap(UniPoly.of(1, 0, 1))  # z^2 + 1
    img = image_place(g, SQRT2)
    assert img == Place.of_rational(3)


def test_fixed_points_and_fibers():
    f = RatMap(UniPoly.of(0, 0, 1))
    assert sorted(rational_fixed_points(f), key=str) == [0, 1, INF]
    assert rational_points_in_fiber(f, 4) == [-2, 2]
    assert rational_points_in_fiber(f, INF) == [INF]


def test_image_place_respects_field_arithmetic():
    # the image place has the minimal polynomial of f at a generator
    from ratdyn.numberfields import NumberField

    rng = random.Random(63)
    for d in (2, 3, 5, 7):
        q = Place(UniPoly.of(-d, 0, 1))  # z^2 - d
        for _ in range(3):
            f = rand_map(rng, rng.randrange(2, 4))
            img = image_place(f, q)
            if img.is_infinity:
                assert f.den % q.minpoly == UniPoly.zero()
                continue
            field = NumberField(q.minpoly)
            # evaluate m_img(f(gen)) inside the field: the numerator vanishes
            pv = field.el(f.num)
            qv = field.el(f.den)
            m = img.minpoly
            acc = field.el(0)
            power_num = field.el(1)
            powers = [field.el(1)]
            for _ in range(m.degree):
                powers.append(field.mul(powers[-1], pv))
            qpowers = [field.el(1)]
            for _ in range(m.degree):
                qpowers.append(field.mul(qpowers[-1], qv))
            for i, c in enumerate(m.c):
                term = field.mul(powers[i], qpowers[m.degree - i])
                acc = field.add(acc, field.mul(field.el(c), term))
            assert acc.is_zero


def test_places_require_nonconstant():
    with pytest.raises(PreconditionError):
        local_degree(RatMap.constant(3), PLACE_INF)

