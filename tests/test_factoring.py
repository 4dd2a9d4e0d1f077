import random
import sys
import time
from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from ratdyn import factoring
from ratdyn.bipolys import BiPoly
from ratdyn.errors import Inconclusive, PreconditionError
from ratdyn.factoring import (
    _bi_hensel,
    _gf_ddf,
    _pick_modular,
    _recombine,
    _zassenhaus,
    bi_is_irreducible,
    factor_bivariate,
    factor_univariate,
    is_irreducible,
    rational_roots,
)
from ratdyn.polynomials import UniPoly
from ratdyn.ratmaps import RatMap

from ratdyn.intpoly import _m_deriv, _m_gcd, _m_monic, _m_mul, _z_mul

from oracles import full_split_pick_modular, gf_factor_squarefree, ser_mul

X = BiPoly.var_x()
Y = BiPoly.var_y()


def reassemble(content, factors):
    out = UniPoly.constant(content)
    for f, m in factors:
        out = out * f**m
    return out


def test_quartic_cyclotomic_split():
    p = UniPoly.of(-1, 0, 0, 0, 1)
    content, facs = factor_univariate(p)
    assert content == 1
    assert [(f.to_str(), m) for f, m in facs] == [
        ("z - 1", 1),
        ("z + 1", 1),
        ("z^2 + 1", 1),
    ]


def test_cubic_with_square_factor():
    p = UniPoly.of(-1, -3, 0, 4)  # 4z^3 - 3z - 1 = (z-1)(2z+1)^2
    content, facs = factor_univariate(p)
    assert content == 4
    assert facs == [
        (UniPoly.of(-1, 1), 1),
        (UniPoly([Fraction(1, 2), 1]), 2),
    ]
    assert reassemble(content, facs) == p


def test_irreducible_quadratic():
    assert is_irreducible(UniPoly.of(1, 0, 1))
    assert not is_irreducible(UniPoly.of(-1, 0, 1))


def test_bigger_irreducible():
    # Eisenstein at 2
    p = UniPoly.of(2, 2, 0, 0, 0, 1)
    assert is_irreducible(p)


def test_factor_univariate_random_round_trip():
    rng = random.Random(23)
    for _ in range(25):
        parts = [
            UniPoly([rng.randrange(-5, 6) for _ in range(rng.randrange(2, 4))])
            for _ in range(rng.randrange(1, 4))
        ]
        p = UniPoly.constant(rng.randrange(1, 5))
        for q in parts:
            if q.degree < 1:
                continue
            p = p * q
        if p.degree < 1:
            continue
        content, facs = factor_univariate(p)
        assert reassemble(content, facs) == p
        for f, _ in facs:
            assert f.lc == 1
            assert is_irreducible(f)


def test_rational_roots():
    p = UniPoly.of(-2, -1, 1)  # (z-2)(z+1)
    assert rational_roots(p) == [Fraction(-1), Fraction(2)]
    assert rational_roots(UniPoly.of(1, 0, 1)) == []
    big = UniPoly.of(-6, 11, -6, 1)  # roots 1, 2, 3
    assert rational_roots(big) == [1, 2, 3]


def test_rational_roots_beside_an_irreducible_quartic():
    p = UniPoly.of(-1, 1) * UniPoly.of(3, 1) * UniPoly.of(1, 1, 1, 1, 1)
    assert rational_roots(p) == [-3, 1]


def test_rational_roots_of_a_high_power_within_budget():
    p = UniPoly([comb(1024, k) for k in range(1025)])  # ((z+1)^64)^16
    t0 = time.perf_counter()
    assert rational_roots(p) == [-1]
    assert time.perf_counter() - t0 < 1.0


def linear_factors(p: UniPoly):
    """The rational roots of p read off its complete factorization."""
    return sorted(-g.coeff(0) for g, _ in factor_univariate(p)[1] if g.degree == 1)


# planted roots a/b with numerators up to 10^12 and denominators up to 10^8
planted_roots = st.builds(
    Fraction,
    st.one_of(st.just(0), st.integers(-(10**12), 10**12)),
    st.integers(1, 10**8),
)
# cofactor leading coefficients divisible by 3, 5 and 7 make the prime
# search skip those primes; as an overall factor k checks the content
lead_multipliers = st.sampled_from([1, 3, 5, 7, 15, 21, 35, 105])


@st.composite
def irreducible_cofactors(draw):
    """k z^2 + c with c > 0 (no real root) or k z^3 - 2 with k odd (a
    rational root a/b would need a = +-1 and k = 2 b^3): both irreducible."""
    k = draw(lead_multipliers)
    if draw(st.booleans()):
        return UniPoly.of(draw(st.integers(1, 10**6)), 0, k)
    return UniPoly.of(-2, 0, 0, k)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(planted_roots, st.integers(1, 3)), max_size=4),
    st.lists(irreducible_cofactors(), max_size=2),
    lead_multipliers,
)
def test_rational_roots_match_the_linear_factors(roots, cofactors, k):
    p = UniPoly.constant(k)
    for r, m in roots:
        p = p * UniPoly.of(-r.numerator, r.denominator) ** m
    for c in cofactors:
        p = p * c
    assume(p.degree >= 1)
    got = rational_roots(p)
    assert got == linear_factors(p)
    assert got == sorted({r for r, _ in roots})


def test_bivariate_split_and_irreducible():
    _, facs = factor_bivariate(X**2 - Y**2)
    assert sorted(f.to_str() for f, _ in facs) == ["x + y", "x - y"]
    assert bi_is_irreducible(X**3 - Y**2)
    assert bi_is_irreducible(X**2 + Y**2)


def test_bivariate_with_content_and_multiplicity():
    F = (Y**2 - 1) * (X - Y) ** 2 * (X + Y + 1)
    unit, facs = factor_bivariate(F)
    prod = BiPoly.constant(unit)
    for f, m in facs:
        prod = prod * f**m
    assert prod == F
    by_mult = sorted((m, f.to_str()) for f, m in facs)
    assert (2, "x - y") in by_mult
    assert (1, "x + y + 1") in by_mult
    # a repeated factor whose leading coefficient is not 1
    F = (2 * X - Y) ** 2 * (3 * X + Y**2 + 1) * Fraction(5, 7)
    unit, facs = factor_bivariate(F)
    assert sorted((m, f.to_str()) for f, m in facs) == [(1, "3*x + y^2 + 1"), (2, "2*x - y")]
    assert unit == Fraction(5, 7)


def test_bivariate_random_round_trip():
    rng = random.Random(7)
    for _ in range(12):
        parts = []
        for _ in range(rng.randrange(1, 4)):
            terms = {}
            for _ in range(rng.randrange(2, 5)):
                terms[(rng.randrange(0, 3), rng.randrange(0, 3))] = rng.randrange(-3, 4)
            g = BiPoly(terms)
            if not g.is_zero:
                parts.append(g)
        F = BiPoly.constant(1)
        for g in parts:
            F = F * g
        if F.is_zero or (F.deg_x <= 0 and F.deg_y <= 0):
            continue
        unit, facs = factor_bivariate(F)
        prod = BiPoly.constant(unit)
        for f, m in facs:
            prod = prod * f**m
        assert prod == F
        for f, _ in facs:
            assert bi_is_irreducible(f)


def test_zero_rejected():
    with pytest.raises(PreconditionError):
        factor_univariate(UniPoly.zero())
    with pytest.raises(PreconditionError):
        rational_roots(UniPoly.zero())
    with pytest.raises(PreconditionError):
        factor_bivariate(BiPoly.zero())


def test_recombine_retries_the_size_after_a_split():
    seen = []

    def split(combo):
        seen.append(combo)
        return combo == (1, 3)

    _recombine(6, split, "cap")
    singles = [(i,) for i in range(6)]
    pairs = [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3)]
    # pairs again on the pool left after the split; triples would need six
    rest = [(0, 2), (0, 4), (0, 5), (2, 4), (2, 5), (4, 5)]
    assert seen == singles + pairs + rest


def test_recombine_raises_past_the_subset_cap(monkeypatch):
    monkeypatch.setattr(factoring, "SUBSET_CAP", 10)
    seen = []
    with pytest.raises(Inconclusive, match="over the cap"):
        _recombine(8, lambda combo: seen.append(combo), "over the cap")
    assert len(seen) == 10
    # under the cap the same search finishes: 4 singles and 6 pairs
    _recombine(4, lambda combo: False, "over the cap")


# ----------------------------------------------------------------------
# y-adic lifting and planted bivariate factors

small = st.integers(-3, 3)
y_polys = st.lists(small, min_size=1, max_size=3).map(UniPoly)


def x_minus(p: UniPoly) -> BiPoly:
    """x - p(y)."""
    return X - BiPoly.from_unipoly(p, "y")


def padded(p: UniPoly, k):
    return [p.coeff(i) for i in range(k)]


@settings(max_examples=40, deadline=None)
@given(st.lists(y_polys, min_size=2, max_size=4, unique=True))
def test_factor_bivariate_returns_planted_linear_factors(ps):
    F = BiPoly.constant(1)
    for p in ps:
        F = F * x_minus(p)
    unit, facs = factor_bivariate(F)
    assert unit == 1
    assert sorted((f.to_str(), m) for f, m in facs) == sorted((x_minus(p).to_str(), 1) for p in ps)



@settings(max_examples=40, deadline=None)
@given(
    st.lists(y_polys, min_size=1, max_size=3, unique=True),
    st.lists(st.integers(1, 3), min_size=3, max_size=3),
    st.sampled_from([1, Fraction(-3, 2)]),
)
def test_factor_bivariate_counts_planted_multiplicities(ps, mults, unit):
    F = BiPoly.constant(unit)
    for p, m in zip(ps, mults):
        F = F * x_minus(p) ** m
    got_unit, facs = factor_bivariate(F)
    assert got_unit == unit
    want = sorted((x_minus(p).to_str(), m) for p, m in zip(ps, mults))
    assert sorted((f.to_str(), m) for f, m in facs) == want


def test_multiplicity_loop_makes_at_most_one_failed_division(monkeypatch):
    # the cubic cap-4 probe: its multiplicities come from the squarefree
    # test and from degree counts, not from divisions run until one fails
    from ratdyn.memo import clear_caches
    from ratdyn.search import SearchConfig, find_invariant_curves

    exact_div = BiPoly.exact_div
    failed = []

    def counted(self, other):
        q = exact_div(self, other)
        if q is None and sys._getframe(1).f_code.co_name == "factor_bivariate":
            failed.append(other)
        return q

    monkeypatch.setattr(BiPoly, "exact_div", counted)
    clear_caches()
    A = RatMap(UniPoly.of(1, -3, 0, 1))
    report = find_invariant_curves(A, A, SearchConfig((3, 3), 4))
    assert report.curves == () and report.completeness == "complete_up_to_cap"
    assert len(failed) <= 1
    # a repeated factor: in either order the degrees alone stop each loop
    del failed[:]
    clear_caches()
    _, facs = factor_bivariate((X - Y) ** 2 * (X - Y**2))
    assert sorted((f.to_str(), m) for f, m in facs) == [("x - y", 2), ("x - y^2", 1)]
    assert failed == []


def test_each_caller_of_factor_bivariate_owns_its_list():
    from ratdyn.memo import cache_stats, clear_caches

    clear_caches()
    F = (X - Y) ** 2 * (X - Y**2)
    first, second = factor_bivariate(F), factor_bivariate(F)
    assert first == second and first[1] is not second[1]
    kept = list(first[1])
    first[1].clear()
    second[1].append((X, 1))
    assert factor_bivariate(F) == (first[0], kept)
    assert cache_stats()["ratdyn.factoring.factor_bivariate"] == {"hits": 2, "misses": 1, "size": 1}


# a monic x-polynomial with coefficients in Q[tau]: its lower x-coefficients
monic_parts = st.lists(st.lists(small, min_size=1, max_size=3), min_size=1, max_size=2)


@settings(max_examples=40, deadline=None)
@given(st.lists(monic_parts, min_size=2, max_size=3), st.integers(1, 6))
def test_bi_hensel_lifts_to_the_planted_factors(parts, K):
    hs = [BiPoly.from_coeffs_in_x([UniPoly(c) for c in low] + [UniPoly.one()]) for low in parts]
    base = [h.eval_y(0) for h in hs]
    for i, b in enumerate(base):
        for c in base[i + 1 :]:
            assume(b.gcd(c).degree == 0)
    G = BiPoly.constant(1)
    for h in hs:
        G = G * h
    ghat = [c.trunc(K) for c in G.coeffs_in_x()]
    lifted = [F_i.coeffs_in_x() for F_i in _bi_hensel(ghat, base, K)]
    # monic lifts of coprime residues are unique, so they are the planted factors
    for F_i, h, b in zip(lifted, hs, base):
        assert [c.trunc(K) for c in F_i] == [c.trunc(K) for c in h.coeffs_in_x()]
        assert [c.coeff(0) for c in F_i] == list(b.c)
    # and their product is ghat mod tau^K, multiplied out in Fractions
    prod = [[Fraction(1)] + [Fraction(0)] * (K - 1)]
    for F_i in lifted:
        out = [[Fraction(0)] * K for _ in range(len(prod) + len(F_i) - 1)]
        for i, a in enumerate(prod):
            for j, c in enumerate(F_i):
                for t, v in enumerate(ser_mul(a, padded(c, K), K)):
                    out[i + j][t] += v
        prod = out
    assert prod == [padded(c, K) for c in ghat]


# ----------------------------------------------------------------------
# the Zassenhaus prime: distinct-degree data on every prime tried, and an
# equal-degree split of the kept prime alone

L = RatMap(UniPoly.of(1, 0, 1) ** 2, UniPoly.monomial(1, 4) * UniPoly.of(-1, 0, 1))


def zz_part(p: UniPoly):
    """The squarefree primitive integer part of p, as a coefficient list."""
    return list(p.squarefree_part().content_and_primitive()[1].nums)


FIXED = {
    # split modulo every prime
    "x^4+1": [1, 0, 0, 0, 1],
    "x^4-10x^2+1": [1, 0, -10, 0, 1],
    "x^8+1": [1, 0, 0, 0, 0, 0, 0, 0, 1],
    # the Wronskian of L o L: factors of degree 2, 2, 2, 8, 8, 8
    "wronskian(L o L)": zz_part(L.iterate(2).wronskian()),
    # irreducible, [4, 4] or [2, 2, 2, 2] modulo each of 3, 5, 7 and 11
    "octic mod 3": [1249, -11968, 50784, -123904, 188288, -180224, 104448, -32768, 4096],
    # irreducible, one split [4, 4] among three [2, 2, 2, 2] modulo 5, 7, 11, 13
    "octic mod 11": [1201, -5456, 4672, 19072, 10624, -72704, 53248, -8192, 4096],
}


def zz_product(factors):
    out = [1]
    for g in factors:
        out = _z_mul(out, g)
    return out


def same_up_to_sign(a, b):
    return a == b or a == [-v for v in b]


@pytest.mark.parametrize("name", sorted(FIXED))
def test_pick_modular_matches_the_full_split(name):
    f = FIXED[name]
    assert _pick_modular(f) == full_split_pick_modular(f)


def test_fixed_inputs_factor_as_known():
    counts = {name: len(_zassenhaus(f)) for name, f in FIXED.items()}
    assert counts == {
        "x^4+1": 1,
        "x^4-10x^2+1": 1,
        "x^8+1": 1,
        "wronskian(L o L)": 6,
        "octic mod 3": 1,
        "octic mod 11": 1,
    }
    facs = _zassenhaus(FIXED["wronskian(L o L)"])
    assert sorted(len(g) - 1 for g in facs) == [2, 2, 2, 8, 8, 8]
    assert same_up_to_sign(zz_product(facs), FIXED["wronskian(L o L)"])


planted_factors = st.lists(
    st.lists(st.integers(-9, 9), min_size=3, max_size=13).filter(lambda c: c[-1] != 0),
    min_size=1,
    max_size=3,
)


@settings(max_examples=60, deadline=None)
@given(planted_factors)
def test_pick_modular_matches_the_full_split_on_planted_products(parts):
    f = zz_product(parts)
    p = UniPoly(f)
    assume(p.is_squarefree() and gcd(*f) == 1 and p.degree >= 3)
    assert _pick_modular(f) == full_split_pick_modular(f)
    facs = _zassenhaus(f)
    assert same_up_to_sign(zz_product(facs), f)
    # every planted part splits the same way on its own
    assert len(facs) == sum(len(factor_univariate(UniPoly(c))[1]) for c in parts)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([3, 5, 7]),
    st.lists(st.integers(0, 6), min_size=2, max_size=16),
)
def test_gf_ddf_gives_the_degrees_of_the_full_split(p, low):
    f = _m_monic([v % p for v in low] + [1], p)
    assume(len(_m_gcd(f, _m_deriv(f, p), p)) == 1)
    facs = gf_factor_squarefree(f, p, random.Random(3))
    pieces = _gf_ddf(f, p)
    # each piece is the product of the factors of its degree
    degrees = sorted(d for g, d in pieces for _ in range((len(g) - 1) // d))
    assert degrees == sorted(len(g) - 1 for g in facs)
    for g, d in pieces:
        want = [1]
        for c in facs:
            if len(c) - 1 == d:
                want = _m_mul(want, c, p)
        assert g == want


def count_trial_divisions(monkeypatch, f):
    """(factors, subsets past the degree test, trial divisions) of
    _zassenhaus(f): without the value tests every subset past the degree
    test reaches a trial division."""
    _, modular, possible = _pick_modular(f)
    passed, divisions = [], []
    recombine, exact_div = factoring._recombine, factoring._z_exact_div

    def counted_recombine(count, split, message):
        def counted_split(combo):
            if sum(len(modular[i]) - 1 for i in combo) in possible:
                passed.append(combo)
            return split(combo)

        return recombine(count, counted_split, message)

    monkeypatch.setattr(factoring, "_recombine", counted_recombine)
    monkeypatch.setattr(factoring, "_z_exact_div", lambda a, b: divisions.append(b) or exact_div(a, b))
    return _zassenhaus(f), passed, divisions


def test_values_at_zero_and_one_skip_trial_divisions(monkeypatch):
    # six modular factors: ten subsets pass the degree test, and only the
    # two that are true factors reach a trial division
    parts = [[1, 0, 0, 0, 1], [1, 0, -10, 0, 1], [3, 1, 0, 1]]
    facs, passed, divisions = count_trial_divisions(monkeypatch, zz_product(parts))
    assert sorted(facs) == sorted(parts)
    assert len(passed) == 10 and len(divisions) == 2
    # x^8 + 1 is two quartics modulo 3 whose constant terms multiply to 1,
    # so only the values at 1 rule both out
    facs, passed, divisions = count_trial_divisions(monkeypatch, FIXED["x^8+1"])
    assert facs == [FIXED["x^8+1"]] and len(passed) == 2 and divisions == []


def test_equal_degree_splitting_runs_on_the_kept_prime_only(monkeypatch):
    # answers alone cannot tell this from a split of every prime tried
    tried, split = [], []
    ddf, edf = factoring._gf_ddf, factoring._gf_edf
    monkeypatch.setattr(factoring, "_gf_ddf", lambda f, p: tried.append(p) or ddf(f, p))
    monkeypatch.setattr(factoring, "_gf_edf", lambda f, d, p, rng: split.append(p) or edf(f, d, p, rng))
    kept = {}
    for name, f in FIXED.items():
        del tried[:], split[:]
        p = _pick_modular(f)[0]
        kept[name] = (p, tuple(tried))
        assert set(split) == {p}
        del tried[:], split[:]
        _zassenhaus(f)
        assert set(split) <= {p} and p in tried
    assert kept["x^4+1"] == (3, (3, 5, 7, 11))
    assert kept["octic mod 11"] == (11, (5, 7, 11, 13))
    # a quadratic is decided by its discriminant, with no prime at all
    del tried[:], split[:]
    assert _zassenhaus([-2, 0, 1]) == [[-2, 0, 1]]
    assert _zassenhaus([-6, 1, 1]) == [[-2, 1], [3, 1]]
    assert tried == split == []


def primitive_positive(c):
    c = [v // gcd(*c) for v in c]
    return c if c[-1] > 0 else [-v for v in c]


QUADRATICS = [
    [5, 1, 3],  # discriminant -59
    [1, 0, 1],  # -4
    [-5, 1, -3],  # -59, negative leading coefficient
    [-2, 0, 1],  # 8, not a square
    [11, 3, -7],  # 317, not a square
    [-6, 1, 1],  # 25: (z + 3)(z - 2)
    [2, -7, -15],  # 169: -(5z - 1)(3z + 2)
    _z_mul([1, 4], [1, 2**300]),  # 300 bits: (4z + 1)(2^300 z + 1)
    _z_mul([5, -2], [-(3**190), 7 * 5**130]),  # (5 - 2z)(7 5^130 z - 3^190)
    [1 + 2**301, 2**300 - 1, 2**299],  # 300-bit, not a square
]


def agrees_with_the_full_split(f, facs):
    """The integer factors reduce to the oracle's modular factors, and a
    modular certificate of irreducibility leaves f whole."""
    p, modular, possible = full_split_pick_modular(f)
    if len(modular) == 1 or possible <= {0, len(f) - 1}:
        return facs == [f]
    reduced = sorted((_m_monic([v % p for v in g], p) for g in facs), key=lambda c: (len(c), c))
    return len(facs) == 1 or reduced == modular


@pytest.mark.parametrize("f", QUADRATICS, ids=range(len(QUADRATICS)))
def test_quadratics_are_decided_by_the_discriminant(f):
    facs = _zassenhaus(f)
    assert agrees_with_the_full_split(f, facs)
    roots = rational_roots(UniPoly(f))  # p-adic lifting, with no Zassenhaus
    if not roots:
        assert facs == [f]
        return
    assert len(facs) == 2 and all(len(g) == 2 for g in facs)
    assert sorted(Fraction(-g[0], g[1]) for g in facs) == roots
    assert same_up_to_sign(zz_product(facs), f)
    assert all(gcd(*g) == 1 for g in facs)


wide = st.integers(-(2**300), 2**300)


@settings(max_examples=80, deadline=None)
@given(wide.filter(bool), wide, wide.filter(bool), wide)
def test_planted_quadratics_split_into_their_linear_factors(a1, b1, a2, b2):
    lin = [primitive_positive([b1, a1]), primitive_positive([b2, a2])]
    assume(lin[0] != lin[1])
    f = primitive_positive(_z_mul(lin[0], lin[1]))
    facs = _zassenhaus(f)
    assert sorted(primitive_positive(g) for g in facs) == sorted(lin)
    assert agrees_with_the_full_split(f, facs)


@settings(max_examples=80, deadline=None)
@given(wide.filter(bool), wide, wide.filter(bool))
def test_wide_quadratics_match_their_rational_roots(a, b, c):
    assume(b * b != 4 * a * c)
    f = primitive_positive([c, b, a])
    facs = _zassenhaus(f)
    assert agrees_with_the_full_split(f, facs)
    roots = rational_roots(UniPoly(f))
    assert len(facs) == (2 if roots else 1)
    assert same_up_to_sign(zz_product(facs), f)
    if roots:
        assert sorted(Fraction(-g[0], g[1]) for g in facs) == roots
