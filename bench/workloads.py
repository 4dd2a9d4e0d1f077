"""The benchmark's workloads: seeded inputs, the timed calls, and checks.

A workload builds one session's query list from (seed, session index).
Building goes through ratdyn's public constructors and is part of set-up;
each query's ``run`` is the timed call into ratdyn, and its ``check``
judges the outcome afterwards with ``checkers`` alone.  An outcome is
``(True, value)`` or ``(False, exception)``.
"""

from __future__ import annotations

import importlib
import json
import random
from fractions import Fraction
from pathlib import Path

import checkers as ck
from checkers import INF

# ----------------------------------------------------------------------
# shared input material


def _mobius_pool():
    """Primitive integer Moebius matrices with entries in [-2, 2], one per
    map (first nonzero entry positive), in a fixed order."""
    from math import gcd

    pool = []
    r = range(-2, 3)
    for a in r:
        for b in r:
            for c in r:
                for d in r:
                    if a * d - b * c == 0 or gcd(gcd(a, b), gcd(c, d)) != 1:
                        continue
                    if next(v for v in (a, b, c, d) if v) < 0:
                        continue
                    pool.append((a, b, c, d))
    return pool


MOBIUS_POOL = _mobius_pool()


def _lin(a, b) -> str:
    return f"({a}*z{'+' if b >= 0 else '-'}{abs(b)})"


def mobius_text(m) -> str:
    a, b, c, d = m
    return f"{_lin(a, b)}/{_lin(c, d)}"


def conjugate_text(base: str, m) -> str:
    """Expression for m^-1 o base o m."""
    return f"({mobius_text(ck.mobius_inverse(m))}) o ({base}) o ({mobius_text(m)})"


def conjugate_chain(chain, m):
    """Evaluation chain (innermost first) of m^-1 o base o m."""
    return [ck.mobius_map(m), *chain, ck.mobius_map(ck.mobius_inverse(m))]


def pinned(m, support) -> bool:
    """Whether m moves a finite singular point of B to infinity, i.e. m is
    not affine and m(infinity) lies in the support of B's orbifold.  Pinned
    and free (see below) conjugates of L are two cost classes, about 0.07 s
    against 0.65 s per query; affine conjugates mix both and are not used.
    Each session takes a fixed number of each class."""
    v = ck.map_eval(ck.mobius_map(m), INF)
    return v != INF and v in support


def free(m, support) -> bool:
    """Whether m is not affine and m(infinity) is a regular point of B."""
    v = ck.map_eval(ck.mobius_map(m), INF)
    return v != INF and v not in support


def to_map(f):
    """A ratdyn RatMap read into the checkers' representation."""
    return (tuple(f.num.c), tuple(f.den.c))


def to_curve(C):
    """A ratdyn BiCurve read into the checkers' representation."""
    return ck.curve(C.poly.terms)


class Query:
    """One timed call: ``run()`` calls ratdyn, looking the entry point up on
    its module at call time so that a traced run sees the call (the module
    comes from ``importlib``: ``import ratdyn.classify as m`` binds the
    function of that name that ``ratdyn/__init__.py`` exports);
    ``check(outcome)`` judges the outcome.
    ``fault`` names the known program fault that makes the check fail, for
    the few inputs kept on purpose to count it."""

    __slots__ = ("label", "run", "check", "fault")

    def __init__(self, label, run, check, fault=None):
        self.label = label
        self.run = run
        self.check = check
        self.fault = fault


# ----------------------------------------------------------------------
# orbifold-fresh

L_TEXT = "(z^2+1)^2 / (4*z*(z^2-1))"
L_MAP = ck.ratmap((1, 0, 2, 0, 1), (0, -4, 0, 4))
# A o TH = TH o PLANTED for the (2,2,2) generalized Lattes fixture; the
# checkers' tests prove the identity.
TH_MAP = ck.ratmap((1, 0, 0, 0, 1), (0, 0, 2))
PLANTED_MAP = ck.ratmap((0, 2, 0, 1), (1, 0, 2))
GL_TEXT = "(4*z^3 + 16*z^2 + 37*z + 24) / (16*z^2 + 40*z + 25)"
GL_MAP = ck.ratmap((24, 37, 16, 4), (25, 40, 16))

# Critical values of the Weierstrass-type quotient for L, and of the
# covering TH = (z^2 + z^-2)/2 (TH(+-1) = 1, TH(+-i) = -1, TH(0) = TH(inf) = inf).
LATTES_SUPPORT = frozenset({Fraction(0), Fraction(1), Fraction(-1), INF})
GL_SUPPORT = frozenset({Fraction(1), Fraction(-1), INF})

NON_SPECIAL = [
    ("(z+1)^2", ck.ratmap((1, 2, 1))),
    ("z^2-2*z+3", ck.ratmap((3, -2, 1))),
    ("(z^2+z)/(z+2)", ck.ratmap((0, 1, 1), (2, 1))),
    ("z^3-3*z+1", ck.ratmap((1, -3, 0, 1))),
    ("z^4+z+1", ck.ratmap((1, 1, 0, 0, 1))),
]
# Monic cubics whose two finite critical values form one irrational
# conjugate pair; none is conjugate to +-T3 by the centred-monic test.
FAULT_CUBICS = [
    ("z^3+z+1", (1, 1, 0, 1)),
    ("z^3-z+1", (1, -1, 0, 1)),
    ("z^3+5*z+2", (2, 5, 0, 1)),
]
POWERS = [2, -3]
CHEBYSHEVS = [(3, 1), (4, -1)]


def _orbifold_points(o):
    """[(point, place degree, value)] of a ratdyn Orbifold."""
    out = []
    for p, v in o.items():
        point = INF if p.is_infinity else p.rational_value()
        out.append((point, p.degree, v))
    return out


def _check_flat_or_gl(kind, support, m):
    want = ck.transport_points(ck.mobius_inverse(m), support)

    def check(outcome):
        ok, value = outcome
        if not ok:
            return False
        cls, orb = value
        if cls.kind != kind or isinstance(orb, Exception) or orb is None:
            return False
        for o in (orb, cls.orbifold):
            pts = _orbifold_points(o)
            if {p for p, _, _ in pts} != want or any(d != 1 or v != 2 for _, d, v in pts):
                return False
        x = ck.chi((d, v) for _, d, v in _orbifold_points(orb))
        return x == 0 if kind == "lattes" else x > 0

    return check


def _model(kind, n, sign):
    """The normal form +-z^n (sign of the exponent) or +-T_n."""
    if kind == "power":
        return ck.ratmap((0,) * n + (1,)) if sign > 0 else ck.ratmap((1,), (0,) * n + (1,))
    return ck.ratmap(tuple(sign * v for v in ck.chebyshev(n)))


def _check_power_like(kind, n, sign, chain):
    """NotDefined from maximal_orbifold, the planted degree (and for powers
    the exponent's sign, a conjugacy invariant), and a witness w, when
    given, proved to satisfy w o A = model o w."""

    def check(outcome):
        ok, value = outcome
        if not ok:
            return False
        cls, orb = value
        if type(orb).__name__ != "NotDefined" or cls.kind != kind or cls.n != n:
            return False
        if kind == "power" and cls.sign != sign:
            return False
        if cls.witness is None:
            return True
        w = to_map(cls.witness)
        return ck.identity_holds([*chain, w], [w, _model(kind, n, cls.sign)])

    return check


def _check_plain(outcome):
    ok, value = outcome
    if not ok:
        return False
    cls, orb = value
    return cls.kind == "non_special_non_gl" and orb is None


def _classify_run(A):
    lib = importlib.import_module("ratdyn.classify")
    from ratdyn.errors import NotDefined

    def run():
        cls = lib.classify(A)
        try:
            orb = lib.maximal_orbifold(A)
        except NotDefined as exc:
            orb = exc
        return cls, orb

    return run


def build_orbifold_fresh(rng: random.Random, session: int, out_dir: Path):
    from ratdyn import parse_map

    pool = list(MOBIUS_POOL)
    rng.shuffle(pool)
    built = set()
    queries = []

    def take(pred=lambda m: True):
        for i, m in enumerate(pool):
            if pred(m):
                return pool.pop(i)
        raise RuntimeError("Moebius pool exhausted")

    def add(label, text, chain, check_for, pred=lambda m: True, m=None, fault=None):
        while True:
            mm = m if m is not None else take(pred)
            A = parse_map(conjugate_text(text, mm))
            if A not in built:
                break
            if m is not None:
                raise RuntimeError("fixed conjugate repeats an input")
        built.add(A)
        queries.append(Query(label, _classify_run(A), check_for(mm, conjugate_chain(chain, mm)), fault))

    in_l = lambda m: pinned(m, LATTES_SUPPORT)  # noqa: E731
    out_l = lambda m: free(m, LATTES_SUPPORT)  # noqa: E731
    in_gl = lambda m: pinned(m, GL_SUPPORT)  # noqa: E731
    out_gl = lambda m: free(m, GL_SUPPORT)  # noqa: E731
    lattes = lambda m, c: _check_flat_or_gl("lattes", LATTES_SUPPORT, m)  # noqa: E731
    gl = lambda m, c: _check_flat_or_gl("generalized_lattes", GL_SUPPORT, m)  # noqa: E731
    # The 30 queries fall into cost clusters: 7 cheap power, Chebyshev and
    # fault queries; about 16 between 0.02 and 0.1 s, holding the median;
    # and 4 free Lattes conjugates near 0.65 s, so that the pooled p90 falls
    # inside that cluster rather than in the gap below it.
    for pred in (in_l, out_l, out_l, out_l, out_l):
        add("lattes", L_TEXT, [L_MAP], lattes, pred)
    add("lattes-iterate", f"({L_TEXT})^o2", [L_MAP, L_MAP], lattes, in_l)
    for pred in (in_gl, in_gl, out_gl, out_gl):
        add("generalized-lattes", GL_TEXT, [GL_MAP], gl, pred)
    for n in POWERS:
        sign = 1 if n > 0 else -1
        add("power", f"z^{n}" if n > 0 else f"1/z^{-n}", [_model("power", abs(n), sign)],
            lambda m, c, n=abs(n), sign=sign: _check_power_like("power", n, sign, c))
    for n, sign in CHEBYSHEVS:
        add("chebyshev", f"{'-' if sign < 0 else ''}T{n}", [_model("chebyshev", n, sign)],
            lambda m, c, n=n, sign=sign: _check_power_like("chebyshev", n, sign, c))
    for text, base in NON_SPECIAL:
        for _ in range(1 if text == "z^4+z+1" else 3):
            add("non-special", text, [base], lambda m, c: _check_plain)
    # The kept fault: its conjugators depend on the session index only, so
    # every seed attempts and fails the same operations.
    for k, (text, coeffs) in enumerate(FAULT_CUBICS):
        if ck.is_pm_t3_cubic(coeffs):
            raise RuntimeError(f"{text} is conjugate to a Chebyshev map")
        m = MOBIUS_POOL[(7 * session + 31 * k) % len(MOBIUS_POOL)]
        add("irrational-critical-pair-cubic", text, [ck.ratmap(coeffs)], lambda m, c: _check_plain,
            m=m, fault="chebyshev-without-verification")
    return queries


# ----------------------------------------------------------------------
# curve-search

SEARCH_BASES = [
    ("(z+1)^2", ck.ratmap((1, 2, 1))),
    ("z^2-2*z+3", ck.ratmap((3, -2, 1))),
    ("(z^2+z)/(z+2)", ck.ratmap((0, 1, 1), (2, 1))),
    ("z^3-3*z+1", ck.ratmap((1, -3, 0, 1))),
]
BIDEGREES = [(1, 1), (1, 2), (2, 1), (2, 2)]
CAPS = [1, 2]


def _shift_square_curves(bd):
    """Invariant curves of ((z+1)^2, (z+1)^2) at bidegree bd, from its
    commutant {id, A}: the diagonal and the two graphs of A."""
    A = ck.ratmap((1, 2, 1))
    return {
        (1, 1): [ck.curve({(1, 0): 1, (0, 1): -1})],
        (1, 2): [ck.swap(ck.graph_curve(A))],
        (2, 1): [ck.graph_curve(A)],
        (2, 2): [],
    }[bd]


def _conjugate_map(f, m):
    return ck.compose(ck.compose(ck.mobius_map(ck.mobius_inverse(m)), f), ck.mobius_map(m))


def _certificates_hold(rep, A1, A2, bd):
    """Every certificate proves X1 o B = A1 o X1 and X2 o B = A2 o X2, and its
    curve has bidegree bd and vanishes on (X1, X2)."""
    for cert in rep.curves:
        X1, X2, B = to_map(cert.X1), to_map(cert.X2), to_map(cert.B)
        if not ck.identity_holds([B, X1], [X1, A1]) or not ck.identity_holds([B, X2], [X2, A2]):
            return False
        C = to_curve(cert.curve)
        if ck.bidegree(C) != bd or not ck.vanishes_on(C, X1, X2):
            return False
    return True


def _curves(rep):
    return [to_curve(c.curve) for c in rep.curves]


def _search_queries(A, Amu, A1, A2, nu, mu, shift, cfg, store):
    """The three queries of one (map, bidegree, cap): the diagonal pair,
    the conjugate pair, and the commuting route on the diagonal."""
    lib = importlib.import_module("ratdyn.search")

    bd = cfg.bidegree

    def run_diag():
        store["diag"] = rep = lib.find_invariant_curves(A, A, cfg)
        return rep

    def run_pair():
        return lib.find_invariant_curves(A, Amu, cfg)

    def run_route():
        return lib.commuting_route(A, cfg)

    def check_diag(outcome):
        ok, rep = outcome
        if not ok or not _certificates_hold(rep, A1, A1, bd):
            return False
        got = _curves(rep)
        if shift:
            want = [ck.pullback_xy(C, nu) for C in _shift_square_curves(bd)]
            return ck.same_curve_sets(got, want)
        lower = []
        if bd == (1, 1):
            lower.append(ck.curve({(1, 0): 1, (0, 1): -1}))
        if bd == (ck.map_degree(A1), 1):
            lower.append(ck.graph_curve(A1))
        if bd == (1, ck.map_degree(A1)):
            lower.append(ck.swap(ck.graph_curve(A1)))
        return all(any(ck.same_curve_sets([C], [G]) for G in got) for C in lower)

    def check_pair(outcome):
        ok, rep = outcome
        diag = store.get("diag")
        if not ok or diag is None or not _certificates_hold(rep, A1, A2, bd):
            return False
        want = [ck.pullback_y(C, mu) for C in _curves(diag)]
        return ck.same_curve_sets(_curves(rep), want)

    def check_route(outcome):
        ok, rep = outcome
        diag = store.get("diag")
        if not ok or diag is None:
            return False
        for cert in rep.curves:
            U1, U2 = to_map(cert.X1), to_map(cert.X2)
            if not ck.identity_holds([A1, U1], [U1, A1]) or not ck.identity_holds([A1, U2], [U2, A1]):
                return False
            C = to_curve(cert.curve)
            if ck.bidegree(C) != bd or not ck.vanishes_on(C, U1, U2):
                return False
        return ck.same_curve_sets(_curves(rep), _curves(diag))

    return [
        Query("search-diagonal", run_diag, check_diag),
        Query("search-conjugate-pair", run_pair, check_pair),
        Query("commuting-route", run_route, check_route),
    ]


def build_curve_search(rng: random.Random, session: int, out_dir: Path):
    from ratdyn import SearchConfig, parse_map

    queries = []
    for b, (text, base) in enumerate(SEARCH_BASES):
        nu, nu2 = rng.sample(MOBIUS_POOL, 2)
        mu = ck.mobius_compose(ck.mobius_inverse(nu), nu2)
        A = parse_map(conjugate_text(text, nu))
        Amu = parse_map(conjugate_text(text, nu2))
        A1, A2 = _conjugate_map(base, nu), _conjugate_map(base, nu2)
        for cap in CAPS:
            for bd in BIDEGREES:
                cfg = SearchConfig(bidegree=bd, iterate_cap=cap)
                queries += _search_queries(A, Amu, A1, A2, nu, mu, b == 0, cfg, {})
    return queries


# ----------------------------------------------------------------------
# cli-session

CLI_MAPS = [
    # (expression, evaluation chain, kind, orbifold support); conjugated per command
    (L_TEXT, [L_MAP], "lattes", LATTES_SUPPORT),
    (GL_TEXT, [GL_MAP], "generalized_lattes", GL_SUPPORT),
    ("(z+1)^2", [ck.ratmap((1, 2, 1))], "non_special_non_gl", None),
    ("z^2-2*z+3", [ck.ratmap((3, -2, 1))], "non_special_non_gl", None),
    ("(z^2+z)/(z+2)", [ck.ratmap((0, 1, 1), (2, 1))], "non_special_non_gl", None),
    ("z^3-3*z+1", [ck.ratmap((1, -3, 0, 1))], "non_special_non_gl", None),
    ("z^3", [ck.ratmap((0, 0, 0, 1))], "power", None),
    ("1/z^2", [ck.ratmap((1,), (0, 0, 1))], "power", None),
    ("T4", [ck.ratmap(ck.chebyshev(4))], "chebyshev", None),
    ("-T3", [ck.ratmap(tuple(-v for v in ck.chebyshev(3)))], "chebyshev", None),
]
SEARCH_MAPS = CLI_MAPS[2:5]


def _q(v) -> str:
    v = Fraction(v)
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def _poly_text(p) -> str:
    terms = [f"({_q(c)})*z^{k}" for k, c in enumerate(p) if c]
    return "+".join(terms) if terms else "0"


def _point_text(p) -> str:
    return "inf" if p == INF else _q(p)


def _json_objects(text):
    dec = json.JSONDecoder()
    out, i = [], 0
    text = text.strip()
    while i < len(text):
        obj, i = dec.raw_decode(text, i)
        out.append(obj)
        while i < len(text) and text[i].isspace():
            i += 1
    return out


def _json_map(data):
    return ck.ratmap([Fraction(c) for c in data["num"]], [Fraction(c) for c in data["den"]])


def _json_curve(data):
    return ck.curve({(i, j): Fraction(v) for i, j, v in data["terms"]})


def _cli_run(argv):
    import contextlib
    import io

    lib = importlib.import_module("ratdyn.cli")

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = lib.main(list(argv))
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    return run


def _cli_check(structured, judge_json, judge_text):
    """Exit code 0, then the structured payloads or the text lines judged."""

    def check(outcome):
        ok, value = outcome
        if not ok:
            return False
        code, out, _ = value
        if code != 0:
            return False
        if structured:
            return judge_json(_json_objects(out))
        return judge_text(out.strip().splitlines())

    return check


def _pick_map(rng, pool, choices):
    text, chain, kind, support = rng.choice(choices)
    pred = (lambda m: pinned(m, support)) if support else (lambda m: True)
    m = next(m for m in rng.sample(pool, len(pool)) if pred(m))
    return conjugate_text(text, m), conjugate_chain(chain, m), kind, m, support


# Map categories; each command draws from a category fixed by its place in
# the session, so every session carries the same mix of costs.
WITH_ORBIFOLD, PLAIN, POWER_LIKE = CLI_MAPS[:2], CLI_MAPS[2:6], CLI_MAPS[6:]


def _t_classify(rng, structured, ctx, instance, command="classify"):
    category = (WITH_ORBIFOLD, PLAIN)[instance if command == "classify" else 1 - instance]
    text, _, kind, _, _ = _pick_map(rng, ctx["pool"], category)
    return [command, text], _cli_check(
        structured,
        lambda objs: len(objs) == 1 and objs[0]["classification"]["kind"] == kind,
        lambda lines: lines[-1] == f"classification: {kind}",
    )


def _t_analyze(rng, structured, ctx, instance):
    return _t_classify(rng, structured, ctx, instance, "analyze")


def _t_batch(rng, structured, ctx, command, categories):
    picks = [_pick_map(rng, ctx["pool"], c) for c in categories]
    path = ctx["out_dir"] / f"{command}-{ctx['session']}-{len(ctx['files'])}.txt"
    ctx["files"].append((path, "".join(p[0] + "\n" for p in picks)))
    kinds = [p[2] for p in picks]
    return [command, "--file", str(path)], _cli_check(
        structured,
        lambda objs: [o["classification"]["kind"] for o in objs] == kinds,
        lambda lines: [ln.split(": ", 1)[1] for ln in lines if ln.startswith("classification: ")] == kinds,
    )


def _t_analyze_file(rng, structured, ctx, instance):
    return _t_batch(rng, structured, ctx, "analyze", (WITH_ORBIFOLD, PLAIN, POWER_LIKE))


def _t_classify_file(rng, structured, ctx, instance):
    return _t_batch(rng, structured, ctx, "classify", (WITH_ORBIFOLD, PLAIN, PLAIN, POWER_LIKE))


QUADRATIC_NONSQUARES = (2, 3, 5, 6, 7, 10)


def _t_orbifold_chi(rng, structured, ctx, instance):
    points = rng.sample([Fraction(k, 2) for k in range(-9, 10)] + [INF], 2 + instance)
    entries, geometric = [], []
    for p in points:
        nu = rng.randint(2, 12)
        entries.append(f"{_point_text(p)}:{nu}")
        geometric.append((1, nu))
    k = rng.choice(QUADRATIC_NONSQUARES)
    nu = rng.randint(2, 12)
    entries.append(f"z^2-{k}:{nu}")
    geometric.append((2, nu))
    want = ck.chi(geometric)
    orb = ", ".join(entries)
    argv = ["orbifold", "chi"] + (["--"] if orb.startswith("-") else []) + [orb]
    return argv, _cli_check(
        structured,
        lambda objs: Fraction(objs[0]["chi"]) == want,
        lambda lines: lines == [f"chi: {_q(want)}"],
    )


def _t_orbifold_check(rng, structured, ctx, instance):
    text, _, kind, m, support = _pick_map(rng, ctx["pool"], WITH_ORBIFOLD[instance:instance + 1])
    # A self-covering of degree d >= 2 has chi = d chi (Riemann-Hurwitz), so
    # only the flat (Lattes) orbifold is covered; both maps are minimal
    # holomorphic self-maps of their orbifold.
    covering = kind == "lattes"
    points = ck.transport_points(ck.mobius_inverse(m), support)
    points = sorted(points, key=lambda p: (p != INF, -p if p != INF else 0))
    orb = ",".join(f"{_point_text(p)}:2" for p in points)
    # argparse takes an argument starting with "-" for an option, so an
    # orbifold whose points are all negative goes after "--"
    argv = ["orbifold", "check"] + (["--"] if orb.startswith("-") else []) + [text, orb, orb]
    return argv, _cli_check(
        structured,
        lambda objs: objs[0] == {"covering": covering, "minimal_holomorphic": True},
        lambda lines: lines == [f"covering: {covering}", "minimal_holomorphic: True"],
    )


def _t_semiconj(rng, structured, ctx, instance):
    c = rng.randint(1, 5)
    nu = rng.choice(ctx["pool"])
    nu_map, nu_inv = ck.mobius_map(nu), ck.mobius_map(ck.mobius_inverse(nu))
    A = [nu_inv, ck.ratmap((c * c, 2 * c, 1)), nu_map]
    X = [ck.ratmap((0, 0, 1)), nu_map]
    B = [ck.ratmap((c, 0, 1))]
    argv = [
        "semiconj", "complete",
        f"({mobius_text(nu)}) o ((z+{c})^2) o ({mobius_text(ck.mobius_inverse(nu))})",
        f"({mobius_text(nu)}) o (z^2)",
        f"z^2+{c}",
    ]

    def judge(objs):
        o = objs[0]
        Y, d = _json_map(o["Y"]), o["power"]
        return (o["identity"] is True and d >= 1
                and ck.identity_holds([*X, Y], B * d) and ck.identity_holds([Y, *X], A * d))

    return argv, _cli_check(
        structured, judge,
        lambda lines: lines[0] == "identity: A o X = X o B: True" and lines[2].startswith("power: "),
    )


def _random_poly(rng, degree):
    return ck.poly(*[rng.randint(-3, 3) for _ in range(degree)], rng.choice((1, 2, -1)))


def _t_decompose_factors(rng, structured, ctx, instance):
    g, h = ((2, 3), (3, 2))[instance]
    G, H = _random_poly(rng, g), _random_poly(rng, h)
    argv = ["decompose", "factors", f"({_poly_text(G)}) o ({_poly_text(H)})", str(g)]
    return argv, _cli_check(
        structured,
        lambda objs: bool(objs[0]["left_factor_classes"])
        and all(ck.map_degree(_json_map(x)) == g for x in objs[0]["left_factor_classes"]),
        lambda lines: lines[0].startswith("left_factor_classes: ['"),
    )


def _t_decompose_chain(rng, structured, ctx, instance):
    a, b, n = ((2, 3, 4), (3, 2, 5))[instance]
    return ["decompose", "chain", f"z^{a}", f"z^{b}", str(n)], _cli_check(
        structured,
        lambda objs: len(objs[0]["columns"]) == n + 1 and len(objs[0]["rungs"]) == n
        and isinstance(objs[0]["good"], bool),
        lambda lines: lines[0].startswith("columns: ") and lines[2].startswith("good: "),
    )


def _t_curve_genus(rng, structured, ctx, instance):
    roots = rng.sample(range(-6, 7), 4 + instance)
    want = (len(roots) - 1) // 2  # y^2 = squarefree f of degree d has genus floor((d-1)/2)
    Y1 = "*".join(f"(z{'+' if r <= 0 else '-'}{abs(r)})" for r in roots)
    return ["curve", "genus", Y1, "z^2"], _cli_check(
        structured,
        lambda objs: objs[0]["genus"] == want,
        lambda lines: lines == [f"genus: {want}"],
    )


def _t_curve_implicitize(rng, structured, ctx, instance):
    X1 = ck.ratmap(_random_poly(rng, 2 + instance))
    while True:
        num, den = _random_poly(rng, 2), ck.poly(rng.randint(-3, 3), rng.choice((1, -1, 2)))
        if ck.poly_eval(num, -den[0] / den[1]) != 0:
            break
    X2 = ck.ratmap(num, den)
    argv = ["curve", "implicitize", _poly_text(X1[0]), f"({_poly_text(num)})/({_poly_text(den)})"]

    def judge(objs):
        C = _json_curve(objs[0]["curve"])
        dx, dy = ck.bidegree(C)
        return (list(objs[0]["bidegree"]) == [dx, dy] and dx <= ck.map_degree(X2)
                and dy <= ck.map_degree(X1) and ck.vanishes_on(C, X1, X2))

    return argv, _cli_check(structured, judge, lambda lines: lines[1].startswith("bidegree: ["))


def _t_search(rng, structured, ctx, instance):
    text, chain, _, _, _ = _pick_map(rng, ctx["pool"], SEARCH_MAPS)
    d1, d2 = ((1, 2), (2, 1))[instance]
    A = ck.compose(ck.compose(chain[2], chain[1]), chain[0])

    def judge(objs):
        o = objs[0]
        for c in o["curves"]:
            X1, X2 = (_json_map(x) for x in c["parametrization"])
            B = _json_map(c["return_map"])
            C = _json_curve(c["curve"])
            if not (ck.identity_holds([B, X1], [X1, A]) and ck.identity_holds([B, X2], [X2, A])):
                return False
            if ck.bidegree(C) != (d1, d2) or not ck.vanishes_on(C, X1, X2):
                return False
        return bool(o["curves"]) and o["completeness"] == "complete_up_to_cap" and "lines" in o

    return ["search", "invariant", text, text, str(d1), str(d2), "--cap", "2", "--lines"], _cli_check(
        structured, judge, lambda lines: lines[-1].startswith("completeness: complete_up_to_cap"),
    )


def _t_genus_gate(rng, structured, ctx, instance):
    n, m, g = rng.randint(1, 5), rng.randint(1, 2000), rng.randint(0, 30)
    want = ck.genus_gate(n, m, g)
    return ["bounds", "genus-gate", str(n), str(m), str(g)], _cli_check(
        structured,
        lambda objs: objs[0]["gate"] is want,
        lambda lines: lines == [f"gate: g > (m - 84 n + 168)/84: {want}"],
    )


def _bound_check(which, structured):
    """bounds phi/psi 20 3 from the closed forms: C(20) = 10 * 2^(2*20^3 - 2),
    kappa(20) = 10 (icosahedral subgroups of order 3), the log term for
    n = 3 is 2, psi = 2 + 10 C + 1 and phi = psi (n - 1) + 1."""
    psi = 2 + 10 * (10 * 2 ** (2 * 20**3 - 2)) + 1
    want = psi if which == "psi" else 2 * psi + 1

    def judge_value(text):
        digits = text.strip()
        return digits.isdigit() and int(digits) == want

    return _cli_check(
        structured,
        lambda objs: judge_value(str(objs[0].get(which, ""))),
        lambda lines: lines[0].startswith(f"{which}: ") and judge_value(lines[0].split(": ", 1)[1]),
    )


CLI_TEMPLATES = [
    _t_analyze, _t_classify, _t_analyze_file, _t_classify_file, _t_orbifold_chi,
    _t_orbifold_check, _t_semiconj, _t_decompose_factors, _t_decompose_chain,
    _t_curve_genus, _t_curve_implicitize, _t_search, _t_genus_gate,
]
REPEAT_EVERY = 4  # every fourth command repeats an earlier one
FAULT_POSITIONS = {13: ("phi", False), 26: ("psi", True)}


def build_cli_session(rng: random.Random, session: int, out_dir: Path):
    """Each template runs twice, once per output format, in a fixed order;
    the seed picks every argument.  Command 4i+3 repeats fresh command 2i+1,
    and the two kept-fault commands sit at fixed places."""
    import ratdyn.cli  # noqa: F401  (importing the CLI module is part of set-up)

    ctx = {"pool": MOBIUS_POOL, "out_dir": out_dir / "cli", "session": session, "files": []}
    fresh = []
    for instance in (0, 1):
        for k, t in enumerate(CLI_TEMPLATES):
            structured = (k + instance) % 2 == 1
            argv, check = t(rng, structured, ctx, instance)
            prefix = ["--format", "structured"] if structured else []
            fresh.append((t.__name__[3:].replace("_", "-"), prefix + argv, check))
    queries, done, pos = [], [], -1
    while len(done) < len(fresh):
        pos += 1
        if pos in FAULT_POSITIONS:
            which, structured = FAULT_POSITIONS[pos]
            prefix = ["--format", "structured"] if structured else []
            queries.append(Query(f"bounds-{which}", _cli_run(prefix + ["bounds", which, "20", "3"]),
                                 _bound_check(which, structured), fault="int-to-str-limit"))
        elif pos % REPEAT_EVERY == REPEAT_EVERY - 1:
            label, argv, check = done[2 * (pos // REPEAT_EVERY) + 1]
            queries.append(Query(f"{label}-repeat", _cli_run(argv), check))
        else:
            item = fresh[len(done)]
            done.append(item)
            queries.append(Query(item[0], _cli_run(item[1]), item[2]))
    ctx["out_dir"].mkdir(parents=True, exist_ok=True)
    for path, text in ctx["files"]:
        path.write_text(text)
    return queries
