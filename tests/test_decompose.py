import itertools
import random

import pytest

from ratdyn.bipolys import BiPoly
from ratdyn.decompose import (
    Decomposition,
    Diagram,
    all_left_factors,
    bound_C,
    bound_C_bit_length,
    bound_kappa,
    bound_phi,
    bound_psi,
    complete_semiconjugacy,
    detect_periodicity,
    elementary_transform,
    equivalence_walk,
    good_diagram_chain,
    graph_numerator,
    is_good_solution,
    left_divide,
    lemma1_assemble,
    max_common_right_factor,
    normalize_left_factor,
    proper_splittings,
    right_divide,
    right_factor_rep,
    genus_degree_gate,
    verify_semiconjugacy,
    _try_generator,
)
from ratdyn.errors import ChainError, PreconditionError
from ratdyn.factoring import factor_bivariate
from ratdyn.mobius import are_conjugate, mu_equivalent
from ratdyn.polynomials import UniPoly
from ratdyn.ratmaps import RatMap, chebyshev, mobius, power_map

A_SHIFT = RatMap(UniPoly.of(1, 2, 1))  # (z+1)^2
B_SHIFT = RatMap(UniPoly.of(1, 0, 1))  # z^2 + 1


def test_mcrf_monomials():
    w, f1, g1 = max_common_right_factor(power_map(4), power_map(6))
    assert w == power_map(2)
    assert f1.compose(w) == power_map(4)
    assert g1.compose(w) == power_map(6)


def test_mcrf_shifted():
    w, f1, g1 = max_common_right_factor(power_map(2), B_SHIFT)
    assert w == power_map(2)
    assert f1 == RatMap.identity()
    assert g1 == RatMap(UniPoly.of(1, 1))


def test_mcrf_coprime_degrees():
    w, _, _ = max_common_right_factor(power_map(2), power_map(3))
    assert w == RatMap.identity()


def test_mcrf_maximality_by_subset_oracle():
    """No irreducible-factor subset of the graph numerator with larger
    degree reconstructs a common right factor."""
    fixtures = [
        (power_map(4), power_map(6)),
        (power_map(2), B_SHIFT),
        (chebyshev(4), chebyshev(6)),
    ]
    for f, g in fixtures:
        w, _, _ = max_common_right_factor(f, g)
        _, facs = factor_bivariate(graph_numerator(f))
        factors = [p for p, _ in facs]
        for size in range(1, len(factors) + 1):
            for combo in itertools.combinations(factors, size):
                prod = BiPoly.constant(1)
                for p in combo:
                    prod = prod * p
                k = prod.deg_x
                if k <= w.degree or prod.deg_y != k:
                    continue
                cand = _reconstruct(prod, k)
                if cand is None:
                    continue
                assert right_divide(f, cand) is None or right_divide(g, cand) is None


def _reconstruct(prod, k):
    coeffs = prod.coeffs_in_x()
    nz = [(i, c) for i, c in enumerate(coeffs) if not c.is_zero]
    for (i, ci), (j, cj) in itertools.combinations(nz, 2):
        cand = RatMap(ci, cj)
        if cand.degree == k:
            from ratdyn.decompose import graph_numerator as gn

            if gn(cand).canonical() == prod.canonical():
                return cand
    return None


def test_right_factor_rep_is_class_invariant():
    w = power_map(2)
    for mu in (mobius(2, 1, 1, 3), mobius(0, 1, 1, 0), mobius(1, 5, 0, 1)):
        assert right_factor_rep(mu.compose(w)) == right_factor_rep(w)
    rng = random.Random(31)
    mobs = [mobius(2, 1, 1, 3), mobius(0, 1, 1, 0), mobius(1, 5, 0, 1), mobius(3, 0, 1, -1)]
    for _ in range(8):
        deg = rng.randrange(1, 4)
        num = UniPoly([rng.randrange(-3, 4) for _ in range(deg + 1)])
        den = UniPoly([rng.randrange(-3, 4) for _ in range(deg + 1)])
        try:
            w = RatMap(num, den)
        except Exception:
            continue
        if w.degree < 1:
            continue
        rep = right_factor_rep(w)
        assert right_factor_rep(rep) == rep
        for mu in mobs:
            assert right_factor_rep(mu.compose(w)) == rep
    # every degree-one class collapses to the identity
    assert right_factor_rep(mobius(5, 2, 3, 1)) == RatMap.identity()


def test_left_divide():
    assert sorted(r.to_str() for r in left_divide(power_map(6), power_map(3))) == ["z^2"]
    roots = left_divide(chebyshev(6), chebyshev(3))
    assert chebyshev(2) in roots
    assert left_divide(power_map(6), power_map(4)) == []
    # degree-one divisor inverts directly
    mu = mobius(1, 2, 0, 1)
    assert left_divide(mu.compose(power_map(2)), mu) == [power_map(2)]


def test_right_divide():
    assert right_divide(power_map(6), power_map(2)) == power_map(3)
    assert right_divide(B_SHIFT, power_map(2)) == RatMap(UniPoly.of(1, 1))
    assert right_divide(RatMap(UniPoly.of(0, 1, 1)), power_map(2)) is None
    t6 = chebyshev(6)
    assert right_divide(t6, chebyshev(2)) == chebyshev(3)


def test_all_left_factors_power():
    classes = all_left_factors(power_map(6), 2)
    assert len(classes) == 1
    assert mu_equivalent(classes[0], power_map(2))


def test_all_left_factors_chebyshev():
    classes = all_left_factors(chebyshev(6), 3)
    assert len(classes) == 1
    assert mu_equivalent(classes[0], chebyshev(3))


def test_all_left_factors_shifted_square():
    F = RatMap(UniPoly.of(0, 0, 2, 0, 1))  # z^4 + 2 z^2
    classes = all_left_factors(F, 2)
    assert len(classes) == 1
    assert mu_equivalent(classes[0], RatMap(UniPoly.of(0, 2, 1)))


def test_all_left_factors_classes_pairwise_inequivalent():
    F = A_SHIFT.iterate(2)
    for n in (2, 4):
        classes = all_left_factors(F, n)
        for i, a in enumerate(classes):
            for b in classes[i + 1 :]:
                assert not mu_equivalent(a, b)


def test_all_left_factors_every_class_divides():
    F = A_SHIFT.iterate(2)
    for n in (1, 2, 4):
        for X in all_left_factors(F, n):
            assert left_divide(F, X), X.to_str()


def test_all_left_factors_contains_planted_outer():
    rng = random.Random(51)
    built = 0
    while built < 6:
        dg = rng.choice([2, 3])
        dh = rng.choice([2, 3])
        g = RatMap(UniPoly([rng.randrange(-2, 3) for _ in range(dg)] + [1]))
        h = RatMap(UniPoly([rng.randrange(-2, 3) for _ in range(dh)] + [1]))
        if g.degree != dg or h.degree != dh:
            continue
        F = g.compose(h)
        classes = all_left_factors(F, dg)
        assert any(mu_equivalent(X, g) for X in classes), (g.to_str(), h.to_str())
        built += 1


def test_left_divide_recovers_planted_inner():
    rng = random.Random(52)
    built = 0
    while built < 8:
        dx = rng.choice([2, 3])
        dr = rng.choice([2, 3])
        Xn = UniPoly([rng.randrange(-3, 4) for _ in range(dx)] + [1])
        Xd = UniPoly([rng.randrange(-3, 4) for _ in range(rng.randrange(0, dx))] + [1])
        Rn = UniPoly([rng.randrange(-3, 4) for _ in range(dr)] + [1])
        try:
            Xm = RatMap(Xn, Xd)
            R = RatMap(Rn)
        except Exception:
            continue
        if Xm.degree != dx or R.degree != dr:
            continue
        F = Xm.compose(R)
        roots = left_divide(F, Xm)
        assert R in roots, (Xm.to_str(), R.to_str())
        for cand in roots:
            assert Xm.compose(cand) == F
        built += 1


def test_glued_squares_stay_good():
    # adjacent good commuting squares glue into a good square
    for base, col in ((power_map(2), power_map(3)), (chebyshev(2), chebyshev(3))):
        D = good_diagram_chain(base, col, 4)
        for d1 in range(0, 3):
            for d2 in range(d1 + 2, 5):
                rungs = D.rungs[d1]
                for j in range(d1 + 1, d2):
                    rungs = rungs.compose(D.rungs[j])
                assert is_good_solution(
                    D.columns[d1], rungs, base.iterate(d2 - d1), D.columns[d2]
                )


def test_elementary_transform():
    split = Decomposition(power_map(2), RatMap(UniPoly.of(1, 1)))
    assert elementary_transform(A_SHIFT, split) == B_SHIFT
    split = Decomposition(power_map(2), power_map(3))
    assert elementary_transform(power_map(6), split) == power_map(6)
    split = Decomposition(chebyshev(2), chebyshev(3))
    assert elementary_transform(chebyshev(6), split) == chebyshev(6)
    with pytest.raises(PreconditionError):
        elementary_transform(power_map(6), Decomposition(power_map(2), power_map(2)))


def test_equivalence_walk_classes():
    walk = equivalence_walk(power_map(2), 2)
    assert len(walk.representatives) == 1
    # both shifted squares live in one conjugacy class
    walk = equivalence_walk(A_SHIFT, 2)
    assert len(walk.representatives) == 1
    assert are_conjugate(walk.representatives[0], B_SHIFT)
    walk = equivalence_walk(chebyshev(6), 1)
    assert len(walk.representatives) == 1
    for idx, split, target in walk.edges:
        src = walk.representatives[idx]
        assert split.composite() == src


def test_lemma1_assemble_single_step():
    split = Decomposition(power_map(2), RatMap(UniPoly.of(1, 1)))
    U, V, s = lemma1_assemble([split])
    assert s == 1
    assert V.compose(U) == A_SHIFT
    assert U.compose(V) == B_SHIFT


def test_lemma1_assemble_two_steps():
    chain = [
        Decomposition(power_map(2), power_map(3)),
        Decomposition(power_map(3), power_map(2)),
    ]
    U, V, s = lemma1_assemble(chain)
    assert s == 2
    assert V.compose(U) == power_map(36)
    assert U.compose(V) == power_map(36)


def test_lemma1_rejects_mismatched_chain():
    chain = [
        Decomposition(power_map(2), RatMap(UniPoly.of(1, 1))),
        Decomposition(power_map(2), power_map(3)),
    ]
    with pytest.raises(PreconditionError):
        lemma1_assemble(chain)


def test_verify_semiconjugacy():
    assert verify_semiconjugacy(power_map(2), power_map(3), power_map(2))
    assert verify_semiconjugacy(A_SHIFT, power_map(2), B_SHIFT)
    assert not verify_semiconjugacy(power_map(2), RatMap(UniPoly.of(1, 1)), power_map(2))


def test_complete_semiconjugacy_basic():
    Y, d = complete_semiconjugacy(A_SHIFT, power_map(2), B_SHIFT)
    assert d == 1
    assert Y.compose(power_map(2)) == B_SHIFT
    assert power_map(2).compose(Y) == A_SHIFT


def test_complete_semiconjugacy_degree_one():
    A = RatMap(UniPoly.of(-1, 0, 1))
    mu = mobius(1, 1, 0, 1)
    B = mu.mobius_inverse().compose(A).compose(mu)
    Y, d = complete_semiconjugacy(A, mu, B)
    assert d == 1
    assert Y.compose(mu) == B
    assert mu.compose(Y) == A


def test_complete_semiconjugacy_two_steps():
    # A = V o U, B = U o V with a second descent level built in
    U = RatMap(UniPoly.of(1, 1))  # z + 1
    V = power_map(2)
    A = V.compose(U)  # (z+1)^2
    B = U.compose(V)  # z^2 + 1
    X = V
    # stack one more level: semiconjugacy of A2 = B o ... through X2
    A2 = A
    X2 = power_map(2).compose(RatMap(UniPoly.of(1, 1))).compose(power_map(2))
    # X2 = ((z^2)+1)^2; A2 o X2 = X2 o B2 with B2 = (z^2+1) o ... build honestly:
    X2 = power_map(2)
    Y, d = complete_semiconjugacy(A2, X2, B)
    assert A2.compose(X2) == X2.compose(B)
    assert Y.compose(X2) == B.iterate(d)
    assert X2.compose(Y) == A2.iterate(d)


def test_complete_semiconjugacy_constructed_fixtures():
    rng = random.Random(99)
    built = 0
    while built < 6:
        du = rng.choice([2, 3])
        dv = rng.choice([2, 3])
        U = RatMap(UniPoly([rng.randrange(-2, 3) for _ in range(du)] + [1]))
        V = RatMap(UniPoly([rng.randrange(-2, 3) for _ in range(dv)] + [1]))
        if U.degree != du or V.degree != dv:
            continue
        A = V.compose(U)
        B = U.compose(V)
        X = V
        assert verify_semiconjugacy(A, X, B)
        from ratdyn.classify import classify
        from ratdyn.errors import Inconclusive

        try:
            if classify(A).kind != "non_special_non_gl":
                continue
        except Inconclusive:
            continue
        Y, d = complete_semiconjugacy(A, X, B)
        assert Y.compose(X) == B.iterate(d)
        assert X.compose(Y) == A.iterate(d)
        assert X.compose(Y).compose(A) == A.compose(X.compose(Y))
        built += 1


def test_complete_semiconjugacy_depth_two_chain():
    # chain B -> B1 -> B2 through two splittings of z^2 (z^2 - 1)^2 whose
    # outer and inner parts share no compositional factor
    U1 = RatMap(UniPoly.of(0, 1, -2, 1))  # z (z - 1)^2
    V1 = power_map(2)
    B = V1.compose(U1)  # z^2 (z-1)^4
    B1 = U1.compose(V1)  # z^2 (z^2 - 1)^2
    U2 = RatMap(UniPoly.of(0, -1, 0, 1))  # z^3 - z
    V2 = power_map(2)
    assert V2.compose(U2) == B1
    A = U2.compose(V2)  # z^6 - z^2
    X = U2.compose(U1)
    assert verify_semiconjugacy(A, X, B)
    Y, d = complete_semiconjugacy(A, X, B)
    assert d == 2
    assert Y.compose(X) == B.iterate(2)
    assert X.compose(Y) == A.iterate(2)


def test_mcrf_on_rational_maps():
    rng = random.Random(77)
    built = 0
    while built < 5:
        wn = UniPoly([rng.randrange(-2, 3) for _ in range(2)] + [1])
        wd = UniPoly([rng.randrange(-2, 3), 1])
        an = UniPoly([rng.randrange(-2, 3) for _ in range(2)] + [1])
        bn = UniPoly([rng.randrange(-2, 3) for _ in range(3)] + [1])
        try:
            w = RatMap(wn, wd)
            a = RatMap(an)
            b = RatMap(bn)
        except Exception:
            continue
        if w.degree != 2 or a.degree != 2 or b.degree != 3:
            continue
        f = a.compose(w)
        g = b.compose(w)
        got, f1, g1 = max_common_right_factor(f, g)
        assert got.degree == 2
        assert f1.compose(got) == f
        assert g1.compose(got) == g
        built += 1


def test_normalize_left_factor():
    A = power_map(2)
    X = power_map(4)
    # X o R = A^o3 with R = z^2: plant d = 3
    R = power_map(2)
    N, Rp = normalize_left_factor(A, X, R, 3)
    assert N == 2
    assert X.compose(Rp) == A.iterate(2)
    assert Rp.compose(A.iterate(1)) == R
    # X = A itself
    N, Rp = normalize_left_factor(A, A, A, 2)
    assert N == 1 and Rp == RatMap.identity()
    t2 = chebyshev(2)
    N, Rp = normalize_left_factor(t2, chebyshev(4), chebyshev(4), 4)
    assert N == 2
    assert chebyshev(4).compose(Rp) == t2.iterate(2)


def test_normalize_minimality_certified_by_scan():
    A = power_map(2)
    X = power_map(4)
    for N in (1,):
        for Rp in left_divide(A.iterate(N), X):
            assert not Rp.compose(A.iterate(2)) == power_map(2)


def test_good_solution_two_of_three():
    # the commuting monomial square: all three conditions hold
    assert is_good_solution(power_map(3), power_map(2), power_map(2), power_map(3))
    # the diagonal square has a reducible fiber product and fails degrees
    assert not is_good_solution(power_map(2), RatMap.identity(), power_map(2), RatMap.identity())
    with pytest.raises(PreconditionError):
        is_good_solution(power_map(2), power_map(2), power_map(3), power_map(3))


def test_good_diagram_constant_chain():
    D = good_diagram_chain(power_map(2), power_map(3), 6)
    assert D.verify()
    assert D.length == 6
    assert all(w == power_map(3) for w in D.columns)
    assert all(h == power_map(2) for h in D.rungs)
    assert D.is_good()


def test_good_diagram_chebyshev_chain():
    D = good_diagram_chain(chebyshev(2), chebyshev(3), 6)
    assert D.verify()
    assert all(w == chebyshev(3) for w in D.columns)
    assert all(h == chebyshev(2) for h in D.rungs)
    assert D.is_good()


def test_seeded_chain_degenerates():
    # seed z^2 o z^2 = (z^2)^o2: the first column collapses to degree one
    D = good_diagram_chain(power_map(2), power_map(2), 3, seed=(power_map(2), 2))
    assert D.verify()
    assert D.columns[1].degree == 1


def test_chain_error_when_no_extension():
    with pytest.raises(ChainError):
        good_diagram_chain(RatMap(UniPoly.of(1, 0, 1)), RatMap(UniPoly.of(0, 0, 1, 1)), 2)


def test_detect_periodicity():
    D = good_diagram_chain(power_map(2), power_map(3), 6)
    got = detect_periodicity(D)
    assert got is not None
    n0, r, witnesses = got
    assert (n0, r) == (0, 1)
    for j, alpha in enumerate(witnesses):
        assert D.columns[j].compose(alpha) == D.columns[j + 1]


def test_detect_periodicity_after_degeneration():
    # a seeded chain with strictly decreasing degrees then constant columns
    D = good_diagram_chain(power_map(2), power_map(4), 3, seed=(power_map(2), 3))
    degs = [w.degree for w in D.columns]
    assert degs == [4, 2, 1, 1]
    n0, r, _ = detect_periodicity(D)
    assert (n0, r) == (2, 1)


def test_detect_periodicity_brute_agreement():
    D = good_diagram_chain(chebyshev(2), chebyshev(3), 5)
    n0, r, _ = detect_periodicity(D)
    # brute scan: all pairs must be equivalent with period 1 from the start
    from ratdyn.mobius import mu_right_transports

    for i in range(len(D.columns)):
        for j in range(i + 1, len(D.columns)):
            assert mu_right_transports(D.columns[i], D.columns[j])
    assert (n0, r) == (0, 1)


def test_bounds():
    assert bound_phi(3, 1) == 1
    assert bound_psi(2, 2) == 1 + bound_C(2) * bound_kappa(2)
    assert bound_kappa(2) >= 3
    assert bound_kappa(5) == 5  # index-5 subgroups of the icosahedral group
    assert bound_C(2) == 10 * 2**14
    assert bound_phi(2, 3) == bound_psi(2, 3) * 2 + 1


def test_bound_bit_length_from_the_closed_form():
    for m in range(2, 9):
        assert bound_C_bit_length(m) == bound_C(m).bit_length()
    assert bound_C_bit_length(1000) == 2 * 10**9 + 2
    with pytest.raises(PreconditionError):
        bound_C_bit_length(1)


def test_genus_degree_gate():
    assert genus_degree_gate(2, 2, 5)
    assert not genus_degree_gate(2, 1000, 0)
    assert not genus_degree_gate(3, 84 * 3 - 168, 0)  # boundary: 0 > 0 fails


def test_try_generator_checks_the_graph_numerator():
    # the ratio -2 z^2 of the two x-coefficients has degree 2, but its graph
    # numerator is x^2 - y^2, not x^2 - 2 y^2
    X, Y = BiPoly.var_x(), BiPoly.var_y()
    assert _try_generator(X**2 - 2 * Y**2, 2) is None
