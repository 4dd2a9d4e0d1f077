"""Enumeration of invariant, periodic, and preperiodic curves for product
endomorphisms (z1, z2) -> (A1(z1), A2(z2)).

Candidate parametrization coordinates are compositional left factors of
iterates; a shared return map B must semiconjugate through both
coordinates, so candidates for B come from functional division and the
precomposition ambiguity is resolved by conjugacy transporters between
the per-coordinate candidates.  Every emitted curve carries its
parametrization and return map and is re-verified independently: the
curve must divide its pullback under the product map.  Reports label
their completeness honestly: the formal iterate bound is astronomically
large, so the default is completeness up to the user-chosen cap.
"""

from __future__ import annotations

from collections import namedtuple

from .classify import classify, maximal_orbifold, theta
from .curves import (
    Line,
    ParamCurve,
    implicitize,
    is_invariant,
    line_is_invariant,
    periodicity,
    preperiodicity,
    separated_curve,
)
from .decompose import all_left_factors, left_divide, right_divide
from .errors import (
    Inconclusive,
    NotDefined,
    PreconditionError,
    TheoremViolation,
)
from .mobius import conjugacy_transporters, mobius_commutant
from .orbifolds import chi
from .places import rational_fixed_points
from .ratmaps import RatMap


class SearchConfig(namedtuple("SearchConfig", ("bidegree", "iterate_cap", "include_lines"),
                              defaults=(2, False))):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        cfg = super().__new__(cls, *args, **kwargs)
        d1, d2 = cfg.bidegree
        if d1 < 1 or d2 < 1 or cfg.iterate_cap < 1:
            raise PreconditionError("bidegree entries and the cap must be positive")
        return cfg

    @classmethod
    def _make(cls, fields):
        # `_replace` builds through `_make`, so it meets the same check
        return cls(*fields)


CurveCertificate = namedtuple(
    "CurveCertificate", ("curve", "X1", "X2", "B", "Y1", "Y2", "period"), defaults=(None, None, 1)
)


class SearchReport(namedtuple("SearchReport", ("curves", "lines", "completeness", "cap"),
                              defaults=((), (), "complete_up_to_cap", 0))):
    """curves: CurveCertificates in canonical order; lines: invariant Lines."""

    __slots__ = ()

    def curve_set(self):
        return {c.curve for c in self.curves}


def _fixed_point_lines(A1: RatMap, A2: RatMap):
    lines = []
    for a in rational_fixed_points(A1):
        lines.append(Line("x", a))
    for b in rational_fixed_points(A2):
        lines.append(Line("y", b))
    return lines


def _pair_candidates(A: RatMap, X: RatMap):
    """All b with X o b = A o X; the conjugated return maps through X."""
    return left_divide(A.compose(X), X)


def find_invariant_curves(A1: RatMap, A2: RatMap, cfg: SearchConfig) -> SearchReport:
    """Invariant curves of the exact requested bi-degree, with certificates.

    For maps with trivial maximal orbifold the enumeration is complete up
    to the iterate cap; for special or generalized Lattes inputs the same
    enumeration runs but the report is labeled accordingly (the structure
    theorems exclude such maps from the completeness claim)."""
    if A1.degree < 2 or A2.degree < 2:
        raise PreconditionError("the search needs degrees at least two")
    try:
        special = classify(A1).kind != "non_special_non_gl" or classify(A2).kind != "non_special_non_gl"
    except Inconclusive:
        special = True
    completeness = "enumeration_only_for_special_maps" if special else "complete_up_to_cap"
    lines = ()
    if cfg.include_lines:
        lines = tuple(ln for ln in _fixed_point_lines(A1, A2) if line_is_invariant(ln, A1, A2))
    if A1.degree != A2.degree:
        # unequal degrees admit only line solutions
        return SearchReport((), lines, "complete", cfg.iterate_cap)
    d1, d2 = cfg.bidegree
    n_cap = cfg.iterate_cap
    F1 = A1.iterate(n_cap)
    F2 = A2.iterate(n_cap)
    X1s = all_left_factors(F1, d2)
    X2s = all_left_factors(F2, d1)
    found: dict = {}
    for X2 in X2s:
        S2 = _pair_candidates(A2, X2)
        for X1 in X1s:
            for b1 in _pair_candidates(A1, X1):
                for b2 in S2:
                    for mu in conjugacy_transporters(b2, b1):
                        X1m = X1.compose(mu)
                        if X1m.compose(b2) != A1.compose(X1m):
                            raise TheoremViolation("transported pair lost the identity")
                        C = implicitize(ParamCurve(X1m, X2))
                        if C.bidegree != (d1, d2) or C in found:
                            continue
                        if not is_invariant(C, A1, A2):
                            raise TheoremViolation("emitted curve failed invariance")
                        found[C] = CurveCertificate(curve=C, X1=X1m, X2=X2, B=b2)
    curves = tuple(sorted(found.values(), key=lambda c: c.curve.sort_key()))
    return SearchReport(curves, lines, completeness, cfg.iterate_cap)


def find_periodic_curves(A1: RatMap, A2: RatMap, cfg: SearchConfig, period_cap: int) -> SearchReport:
    """Curves periodic under the product map, labeled with minimal periods;
    runs the invariant-curve search on the iterated pair for each period."""
    if period_cap < 1:
        raise PreconditionError("the period cap must be positive")
    seen = {}
    for n in range(1, period_cap + 1):
        rep = find_invariant_curves(A1.iterate(n), A2.iterate(n), cfg)
        if n == 1:
            lines = rep.lines
        for cert in rep.curves:
            if cert.curve in seen:
                continue
            period = periodicity(cert.curve, A1, A2, n)
            if period is None:
                raise TheoremViolation("curve invariant for an iterate never returned")
            pair = _separated_witnesses(A1, A2, cert, n * cfg.iterate_cap)
            seen[cert.curve] = CurveCertificate(
                curve=cert.curve,
                X1=cert.X1,
                X2=cert.X2,
                B=cert.B,
                Y1=pair[0] if pair else None,
                Y2=pair[1] if pair else None,
                period=period,
            )
    curves = tuple(sorted(seen.values(), key=lambda c: (c.period, c.curve.sort_key())))
    return SearchReport(curves, lines, rep.completeness, cfg.iterate_cap)


def _separated_witnesses(A1, A2, cert, power):
    """(Y1, Y2) with X_i o Y_i the given iterate and equal compositions the
    other way around, when present at this power."""
    y1s = left_divide(A1.iterate(power), cert.X1)
    y2s = left_divide(A2.iterate(power), cert.X2)
    for y1 in y1s:
        for y2 in y2s:
            if y1.compose(cert.X1) == y2.compose(cert.X2):
                return y1, y2
    return None


def find_preperiodic_components(A1: RatMap, A2: RatMap, Y1: RatMap, Y2: RatMap,
                                iterate_cap: int = 3, tail_cap: int = 4, period_cap: int = 4):
    """Verify the separated-curve certificate data, then factor the curve
    Y1(x) = Y2(y) and report the orbit behaviour of each component."""
    witnesses = None
    for n in range(1, iterate_cap + 1):
        X1 = right_divide(A1.iterate(n), Y1)
        X2 = right_divide(A2.iterate(n), Y2)
        if X1 is None or X2 is None:
            continue
        if Y1.compose(X1) == Y2.compose(X2):
            witnesses = (n, X1, X2)
            break
    if witnesses is None:
        raise PreconditionError("the separated data does not satisfy the identities")
    n, X1, X2 = witnesses
    curve = separated_curve(Y1, Y2)
    components = []
    for comp, _ in curve.factor():
        components.append((comp, preperiodicity(comp, A1, A2, tail_cap, period_cap)))
    return {
        "witness_power": n,
        "X1": X1,
        "X2": X2,
        "components": components,
    }


def reduce_through_coverings(A1: RatMap, A2: RatMap):
    """(B1, B2, X1, X2) with X_i the stored Galois covering of the maximal
    orbifold of A_i, B_i the lifted return map (certified to have trivial
    maximal orbifold), and the diagram X_i o B_i = A_i o X_i commuting."""
    out = []
    for A in (A1, A2):
        try:
            o0 = maximal_orbifold(A)
        except NotDefined as exc:
            raise PreconditionError("special maps are out of scope here") from exc
        if o0 is None:
            raise NotDefined("nothing to reduce: the maximal orbifold is trivial")
        if chi(o0) <= 0:
            raise PreconditionError("reduction needs positive characteristic")
        X = theta(o0)
        lifts = left_divide(A.compose(X), X)
        if not lifts:
            raise TheoremViolation("no lift through the covering")
        B = lifts[0]
        if X.compose(B) != A.compose(X):
            raise TheoremViolation("the lifted square does not commute")
        if maximal_orbifold(B) is not None:
            raise TheoremViolation("lifted map still has a nontrivial orbifold")
        out.append((B, X))
    (B1, X1), (B2, X2) = out
    return B1, B2, X1, X2


def commuting_route(A: RatMap, cfg: SearchConfig) -> SearchReport:
    """Invariant curves for the diagonal pair (A, A) from pairs of maps
    commuting with A that split a common iterate both ways."""
    if A.degree < 2:
        raise PreconditionError("the commuting route needs degree at least two")
    special = classify(A).kind != "non_special_non_gl"
    completeness = "enumeration_only_for_special_maps" if special else "complete_up_to_cap"
    d1, d2 = cfg.bidegree
    found = {}
    for n in range(1, cfg.iterate_cap + 1):
        F = A.iterate(n)
        commuters = {}
        for k in sorted({d1, d2}):
            if F.degree % k != 0:
                continue
            commuters[k] = _commuting_factors(A, F, k)
        for U1 in commuters.get(d2, []):
            for U2 in commuters.get(d1, []):
                v1s = [V for V in left_divide(F, U1) if V.compose(U1) == F and U1.compose(V) == F]
                v2s = [V for V in left_divide(F, U2) if V.compose(U2) == F and U2.compose(V) == F]
                if not v1s or not v2s:
                    continue
                C = implicitize(ParamCurve(U1, U2))
                if C.bidegree != (d1, d2) or C in found:
                    continue
                if not is_invariant(C, A, A):
                    raise TheoremViolation("commuting-route curve failed invariance")
                found[C] = CurveCertificate(curve=C, X1=U1, X2=U2, B=A, Y1=v1s[0], Y2=v2s[0])
    curves = tuple(sorted(found.values(), key=lambda c: c.curve.sort_key()))
    return SearchReport(curves, (), completeness, cfg.iterate_cap)


def _commuting_factors(A: RatMap, F: RatMap, k: int):
    """Degree-k left factors of F that commute with A, fully twisted."""
    out = []
    seen = set()
    for U0 in all_left_factors(F, k):
        if k == 1:
            candidates = list(mobius_commutant(A))
        else:
            candidates = []
            for b in _pair_candidates(A, U0):
                for mu in conjugacy_transporters(A, b):
                    candidates.append(U0.compose(mu))
        for U in candidates:
            if U in seen:
                continue
            seen.add(U)
            if U.compose(A) == A.compose(U):
                out.append(U)
    return sorted(out, key=lambda r: r.sort_key())
