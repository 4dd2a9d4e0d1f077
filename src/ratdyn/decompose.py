"""Functional decomposition of rational maps.

Common right factors come from the gcd over Q(t) of the two graph
numerators f(x) - f(t); the gcd is the graph numerator of the wanted
factor up to a unit, and a nonconstant ratio of its x-coefficients
recovers that factor directly.  Left division is power-series lifting
with exact verification; right division Newton-lifts the inverse of the
inner map as a series, composes the outer map with it and reconstructs
the quotient.  On top of these sit elementary transformations, the
descent that completes a semiconjugacy to a pair of iterate identities,
commuting-square chains with their periodicity detection, and the
explicit (deliberately loose) bound functions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .bipolys import BiPoly, gcd_x, separated
from .classify import classify
from .errors import ChainError, Inconclusive, PreconditionError, TheoremViolation
from .factoring import SUBSET_CAP, bi_is_irreducible, factor_bivariate
from .memo import memo
from .mobius import are_conjugate, mu_right_transports
from .polynomials import UniPoly, _centres
from .ratmaps import INF, RatMap, mobius
from .series import newton_series_root, pade_reconstruct, ratmap_roots_over_function_field


def graph_numerator(f: RatMap) -> BiPoly:
    """num(f(x) - f(t)) as a BiPoly in (x, t)."""
    return separated(f.num, f.den, f.num, f.den)


# ----------------------------------------------------------------------
# canonical representative of { mu o w }


def right_factor_rep(w: RatMap) -> RatMap:
    """Deterministic representative of the post-composition class of w:
    pole at infinity, monic numerator and denominator, and a vanishing
    numerator coefficient in the slot matching the denominator degree."""
    if w.degree < 1:
        raise PreconditionError("only nonconstant maps have class representatives")
    v0 = w.value_at_infinity()
    if v0 is not INF:
        w = mobius(0, 1, 1, -v0).compose(w)
    lead = w.num.lc / w.den.lc
    if lead != 1:
        w = w * (1 / lead)
    e = w.den.degree
    t = w.num.coeff(e) / w.den.lc
    if t:
        w = w - t
    return w


# ----------------------------------------------------------------------
# division


@memo
def left_divide(F: RatMap, X: RatMap):
    """All R with X o R = F; the empty list is a valid no-root answer."""
    if X.degree == 1:
        return [X.mobius_inverse().compose(F)]
    return ratmap_roots_over_function_field(X, F)


def right_divide(F: RatMap, W: RatMap):
    """X with X o W = F, or None; found by inverting W as a series around a
    generic center, composing F with that inverse, rational reconstruction
    and exact checking."""
    if F.degree < 1 or W.degree < 1:
        raise PreconditionError("right division needs nonconstant maps")
    if F.degree % W.degree != 0:
        return None
    if W.degree == 1:
        return F.compose(W.mobius_inverse())
    n = F.degree // W.degree
    k = 2 * n + 1
    wr = W.wronskian()
    for t0 in itertools.islice(_centres(), 100):
        if W.den(t0) == 0 or F.den(t0) == 0 or wr(t0) == 0:
            continue
        x0 = W(t0)
        if x0 is INF:
            continue
        # w(u) = t0 + sigma(u) with W(w(u)) = x0 + u, so X(x0 + u) = F(w(u))
        w = newton_series_root(W, UniPoly.of(x0, 1), t0, k)
        comp = F.num.compose_trunc(w, k).mul_trunc(F.den.compose_trunc(w, k).inv_trunc(k), k)
        rec = pade_reconstruct(comp, k, n, n)
        if rec is None:
            return None
        a, b = rec
        cand = RatMap(a.taylor_shift(-x0), b.taylor_shift(-x0))
        if cand.degree >= 1 and cand.compose(W) == F:
            return cand
        return None
    raise Inconclusive("no usable center for right division")


# ----------------------------------------------------------------------
# maximal common right factor


def max_common_right_factor(f: RatMap, g: RatMap):
    """(w, f1, g1) with f = f1 o w, g = g1 o w and w of maximal degree."""
    if f.degree < 1 or g.degree < 1:
        raise PreconditionError("common factors need nonconstant maps")
    G = gcd_x(graph_numerator(f), graph_numerator(g))
    dw = G.deg_x
    if dw <= 1:
        return RatMap.identity(), f, g
    w = _try_generator(G, dw)
    if w is None:
        raise TheoremViolation("graph gcd yielded no generator ratio")
    w = right_factor_rep(w)
    f1 = right_divide(f, w)
    g1 = right_divide(g, w)
    if f1 is None or g1 is None:
        raise TheoremViolation("maximal right factor failed to divide")
    return w, f1, g1


# ----------------------------------------------------------------------
# left factors of a map, up to precomposition


@memo
def all_left_factors(F: RatMap, n: int):
    """Representatives of the precomposition classes of degree-n left
    factors of F: every X with X o R = F for some R arises as X o mu."""
    if F.degree < 1:
        raise PreconditionError("left factors need a nonconstant map")
    if n < 1 or F.degree % n != 0:
        return []
    if n == 1:
        return [RatMap.identity()]
    if n == F.degree:
        return [F]
    k = F.degree // n
    NF = graph_numerator(F)
    _, facs = factor_bivariate(NF)
    factors = []
    for fac, mult in facs:
        if mult != 1:
            raise TheoremViolation("graph numerator was not squarefree")
        factors.append(fac)
    out = []
    visited = 0
    for size in range(1, len(factors) + 1):
        for combo in itertools.combinations(range(len(factors)), size):
            visited += 1
            if visited > SUBSET_CAP:
                raise Inconclusive("left-factor subset search exceeded the cap")
            # degrees add under products, so only subsets of bidegree (k, k) are built
            if sum(factors[i].deg_x for i in combo) != k or sum(factors[i].deg_y for i in combo) != k:
                continue
            prod = math.prod(factors[i] for i in combo)
            w = _try_generator(prod, k)
            if w is None:
                continue
            X = right_divide(F, w)
            if X is None:
                continue
            out.append(X)
    deduped = []
    for X in sorted(out, key=lambda r: r.sort_key()):
        if not any(mu_right_transports(Y, X) for Y in deduped):
            deduped.append(X)
    return deduped


def _try_generator(prod: BiPoly, k: int):
    """A degree-k map w whose graph numerator is prod up to a unit, read off
    as a ratio of two x-coefficients of prod, or None."""
    coeffs = prod.coeffs_in_x()
    nonzero = [(i, c) for i, c in enumerate(coeffs) if not c.is_zero]
    for (i, ci), (j, cj) in itertools.combinations(nonzero, 2):
        cand = RatMap(ci, cj)
        if cand.degree == k:
            gn = graph_numerator(cand).canonical()
            if gn == prod.canonical():
                return cand
    return None


# ----------------------------------------------------------------------
# elementary transformations


@dataclass(frozen=True)
class Decomposition:
    outer: RatMap
    inner: RatMap

    def composite(self) -> RatMap:
        return self.outer.compose(self.inner)


def elementary_transform(A: RatMap, split: Decomposition) -> RatMap:
    """A = V o U goes to U o V."""
    if split.composite() != A:
        raise PreconditionError("the split does not compose to the map")
    return split.inner.compose(split.outer)


def proper_splittings(A: RatMap):
    """All A = V o U with both degrees at least two, up to the inner
    Mobius ambiguity."""
    out = []
    d = A.degree
    for n in range(2, d):
        if d % n != 0:
            continue
        for V in all_left_factors(A, n):
            for U in left_divide(A, V):
                out.append(Decomposition(V, U))
    return out


@dataclass
class EquivalenceWalk:
    representatives: list
    edges: list = field(default_factory=list)  # (source index, Decomposition, target index)


def equivalence_walk(A: RatMap, depth: int) -> EquivalenceWalk:
    """Breadth-first closure of elementary transformations, collapsing
    conjugate representatives."""
    if A.degree < 2:
        raise PreconditionError("walks need degree at least two")
    walk = EquivalenceWalk(representatives=[A])
    frontier = [0]
    for _ in range(depth):
        new_frontier = []
        for idx in frontier:
            B = walk.representatives[idx]
            for split in proper_splittings(B):
                C = elementary_transform(B, split)
                target = None
                for j, rep in enumerate(walk.representatives):
                    if are_conjugate(rep, C):
                        target = j
                        break
                if target is None:
                    walk.representatives.append(C)
                    target = len(walk.representatives) - 1
                    new_frontier.append(target)
                walk.edges.append((idx, split, target))
        frontier = new_frontier
        if not frontier:
            break
    return walk


def lemma1_assemble(chain):
    """Fold a chain of elementary transformations: from splits
    (V_i, U_i) with A = V_1 o U_1, A_i = U_i o V_i, U_i o V_i = V_{i+1} o U_{i+1}
    build U = U_s o ... o U_1 and V = V_1 o ... o V_s; then V o U is the
    s-th iterate of A and U o V the s-th iterate of A_s."""
    if not chain:
        raise PreconditionError("a chain needs at least one split")
    s = len(chain)
    A = chain[0].composite()
    for i in range(s - 1):
        if chain[i].inner.compose(chain[i].outer) != chain[i + 1].composite():
            raise PreconditionError("chain links do not match")
    U = chain[0].inner
    for dec in chain[1:]:
        U = dec.inner.compose(U)
    V = chain[0].outer
    for dec in chain[1:]:
        V = V.compose(dec.outer)
    A_s = chain[-1].inner.compose(chain[-1].outer)
    if V.compose(U) != A.iterate(s):
        raise TheoremViolation("assembled V o U is not the expected iterate")
    if U.compose(V) != A_s.iterate(s):
        raise TheoremViolation("assembled U o V is not the expected iterate")
    return U, V, s


# ----------------------------------------------------------------------
# semiconjugacy


def verify_semiconjugacy(A: RatMap, X: RatMap, B: RatMap) -> bool:
    """Exact test of A o X = X o B."""
    return A.compose(X) == X.compose(B)


def complete_semiconjugacy(A: RatMap, X: RatMap, B: RatMap):
    """Complete A o X = X o B to a dual pair: (Y, d) with Y o X the d-th
    iterate of B and X o Y the d-th iterate of A, by repeated extraction
    of common right factors of the pair (X, B)."""
    if not verify_semiconjugacy(A, X, B):
        raise PreconditionError("the semiconjugacy identity fails")
    if X.degree < 1:
        raise PreconditionError("constant intertwiners are degenerate")
    cls = classify(A)
    if cls.kind != "non_special_non_gl":
        raise PreconditionError("completion needs a map with trivial maximal orbifold")
    if X.degree == 1:
        Y = X.mobius_inverse().compose(A)
        if Y.compose(X) != B or X.compose(Y) != A:
            raise TheoremViolation("degree-one completion failed")
        return Y, 1
    cur_X, cur_B = X, B
    inners = []
    outers = []
    steps = 0
    while cur_X.degree > 1:
        steps += 1
        if steps > X.degree:
            raise TheoremViolation("descent failed to terminate")
        U, X_next, V = max_common_right_factor(cur_X, cur_B)
        if U.degree <= 1:
            raise TheoremViolation("primitive pair reached with a large intertwiner")
        inners.append(U)
        outers.append(V)
        cur_X = X_next
        cur_B = U.compose(V)
    mu = cur_X  # degree one
    U_total = inners[0]
    for u in inners[1:]:
        U_total = u.compose(U_total)
    V_total = outers[0]
    for v in outers[1:]:
        V_total = V_total.compose(v)
    d = len(inners)
    Y = V_total.compose(mu.mobius_inverse())
    if Y.compose(X) != B.iterate(d) or X.compose(Y) != A.iterate(d):
        raise TheoremViolation("completion identities failed to verify")
    return Y, d


def normalize_left_factor(A: RatMap, X: RatMap, R: RatMap, d: int):
    """The least N with a factorization of the N-th iterate through X
    consistent with R; returns (N, R_prime)."""
    if X.compose(R) != A.iterate(d):
        raise PreconditionError("the seed factorization fails")
    for N in range(1, d + 1):
        for Rp in left_divide(A.iterate(N), X):
            if N == d:
                if Rp == R:
                    return N, Rp
            elif Rp.compose(A.iterate(d - N)) == R:
                return N, Rp
    raise TheoremViolation("no consistent normalization at or below the seed")


# ----------------------------------------------------------------------
# good solutions and commuting-square chains


def is_good_solution(f: RatMap, p: RatMap, g: RatMap, q: RatMap) -> bool:
    """Two-of-three test: irreducible fiber product, no common right factor
    of (p, q), degree matching; any two imply all three."""
    if f.compose(p) != g.compose(q):
        raise PreconditionError("the square does not commute")
    c1 = bi_is_irreducible(separated(f.num, f.den, g.num, g.den))
    c2 = max_common_right_factor(p, q)[0].degree <= 1
    c3 = f.degree == q.degree and g.degree == p.degree
    good = (c1 + c2 + c3) >= 2
    if good and not (c1 and c2 and c3):
        raise TheoremViolation("two conditions hold but not all three")
    return good


@dataclass
class Diagram:
    base: RatMap
    columns: list  # W_0 .. W_N
    rungs: list  # h_1 .. h_N

    @property
    def length(self) -> int:
        return len(self.rungs)

    def verify(self) -> bool:
        if len(self.columns) != len(self.rungs) + 1:
            return False
        for d in range(1, len(self.columns)):
            if self.columns[d - 1].compose(self.rungs[d - 1]) != self.base.compose(
                self.columns[d]
            ):
                return False
        return True

    def rung_quadruple(self, d: int):
        """(f, p, g, q) for the square between columns d-1 and d."""
        return self.columns[d - 1], self.rungs[d - 1], self.base, self.columns[d]

    def is_good(self) -> bool:
        return all(is_good_solution(*self.rung_quadruple(d)) for d in range(1, len(self.columns)))


def good_diagram_chain(A: RatMap, W0: RatMap, N: int, seed=None) -> Diagram:
    """A commuting chain over A of length N starting at W0.

    With seed = (R, d) satisfying W0 o R = the d-th iterate of A, the chain
    is built by the common-right-factor descent (and has length at most d).
    Without a seed, a constant-column chain W_d = W0 is attempted from any
    h with W0 o h = A o W0 and trivial common factor."""
    if A.degree < 2:
        raise PreconditionError("chains need degree at least two")
    if N < 1:
        raise PreconditionError("chains need positive length")
    if seed is not None:
        R, d = seed
        if W0.compose(R) != A.iterate(d):
            raise PreconditionError("the seed factorization fails")
        columns = [W0]
        rungs = []
        H = R
        for i in range(1, min(N, d) + 1):
            power = A.iterate(d - i) if d - i >= 1 else RatMap.identity()
            w, Wi, hi = max_common_right_factor(power, H)
            columns.append(Wi)
            rungs.append(hi)
            H = w
            if columns[-2].compose(hi) != A.compose(Wi):
                raise ChainError("rung fails to commute", level=i)
        return Diagram(A, columns, rungs)
    candidates = left_divide(A.compose(W0), W0)
    for h in candidates:
        if W0.compose(h) != A.compose(W0):
            continue
        if max_common_right_factor(W0, h)[0].degree > 1:
            continue
        return Diagram(A, [W0] * (N + 1), [h] * N)
    raise ChainError("no extension at the first level", level=1)


def detect_periodicity(D: Diagram):
    """Least (N0, r) making the tail of the chain r-periodic, with the
    degree-one witnesses; None when no tail is periodic."""
    n = D.length
    cols = D.columns
    for n0 in range(0, n):
        for r in range(1, n - n0 + 1):
            witnesses = []
            ok = True
            for j in range(n0, n - r + 1):
                trans = mu_right_transports(cols[j], cols[j + r])
                if not trans:
                    ok = False
                    break
                witnesses.append(trans[0])
            if ok and witnesses:
                return n0, r, witnesses
    return None


# ----------------------------------------------------------------------
# explicit bound functions (deliberately loose, documented)

_SUBGROUPS_BY_ORDER = {
    "tetrahedral": {1: 1, 2: 3, 3: 4, 4: 1, 12: 1},
    "octahedral": {1: 1, 2: 9, 3: 4, 4: 7, 6: 4, 8: 3, 12: 1, 24: 1},
    "icosahedral": {1: 1, 2: 15, 3: 10, 4: 5, 5: 6, 6: 10, 10: 6, 12: 5, 60: 1},
}
_GROUP_ORDERS = {"tetrahedral": 12, "octahedral": 24, "icosahedral": 60}


def bound_kappa(m: int) -> int:
    """Upper bound for the number of precomposition classes of degree-m maps
    with a fixed nonnegative-characteristic branch orbifold: the cyclic
    family gives one class, the dihedral at most three, and the three
    exceptional families at most their index-m subgroup counts."""
    if m < 1:
        raise PreconditionError("degree must be positive")
    best = 3
    for fam, order in _GROUP_ORDERS.items():
        if order % m == 0:
            best = max(best, _SUBGROUPS_BY_ORDER[fam].get(order // m, 0))
    return best


def bound_C(m: int) -> int:
    """Bound for the number of distinct branch orbifolds along a good chain:
    ten possible signatures times subsets of the critical values of the
    third iterate."""
    if m < 2:
        raise PreconditionError("the base degree must be at least two")
    return 10 * 2 ** (2 * m**3 - 2)


def bound_C_bit_length(m: int) -> int:
    """Bit length of bound_C(m), read off the closed form without building
    it: 10 has four bits, so 10 * 2^(2 m^3 - 2) has 2 m^3 + 2."""
    if m < 2:
        raise PreconditionError("the base degree must be at least two")
    return 2 * m**3 + 2


def bound_psi(m: int, n: int) -> int:
    """Chain length past which a good chain must repeat a column class."""
    if m < 2 or n < 1:
        raise PreconditionError("need m >= 2 and n >= 1")
    if n <= 2:
        log_term = 0
    else:
        log_term = 0
        power = 1
        while power <= 84 * (n - 2):
            power *= m
            log_term += 1
    return log_term + bound_C(m) * bound_kappa(m) + 1


def bound_phi(m: int, n: int) -> int:
    """Iterate bound for left factors of degree n."""
    if m < 2 or n < 1:
        raise PreconditionError("need m >= 2 and n >= 1")
    return bound_psi(m, n) * (n - 1) + 1


def genus_degree_gate(n: int, m: int, g: int) -> bool:
    """Exact test g > (m - 84 n + 168) / 84; when it fails for an
    irreducible separated curve, the branch orbifold upstairs has
    nonnegative characteristic."""
    if n < 1 or m < 1:
        raise PreconditionError("degrees must be positive")
    return Fraction(g) > Fraction(m - 84 * n + 168, 84)
