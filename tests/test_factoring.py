import random
import sys
import time
from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, given, settings, strategies as st

from ratdyn import factoring
from ratdyn.bipolys import BiPoly
from ratdyn.errors import Inconclusive, PreconditionError
from ratdyn.factoring import (
    _bi_hensel,
    _recombine,
    bi_is_irreducible,
    factor_bivariate,
    factor_univariate,
    is_irreducible,
    rational_roots,
)
from ratdyn.polynomials import UniPoly

from oracles import ser_mul

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
    from ratdyn.ratmaps import RatMap
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
    assert report.curves == [] and report.completeness == "complete_up_to_cap"
    assert len(failed) <= 1
    # a repeated factor: in either order the degrees alone stop each loop
    del failed[:]
    _, facs = factor_bivariate((X - Y) ** 2 * (X - Y**2))
    assert sorted((f.to_str(), m) for f, m in facs) == [("x - y", 2), ("x - y^2", 1)]
    assert failed == []

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
