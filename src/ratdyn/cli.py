"""Command-line surface.

Commands mirror the library: analyze, orbifold (chi / pullback / check),
classify, semiconj (verify / complete), decompose (factors / normalize /
chain), curve (genus / invariant / orbit / implicitize), search invariant,
and the bound functions.  Output is text by default or a self-describing
JSON tree with --format structured; maps serialize as coefficient arrays
lowest degree first.  Exit codes: 0 success, 2 parse or precondition
problems, 3 a cap-limited search, 4 an internal consistency failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from .classify import classify
from .bipolys import BiPoly
from .curves import (
    BiCurve,
    ParamCurve,
    genus_separated,
    image_curve,
    implicitize,
    is_invariant,
)
from .decompose import (
    all_left_factors,
    bound_C_bit_length,
    bound_kappa,
    bound_phi,
    bound_psi,
    detect_periodicity,
    good_diagram_chain,
    normalize_left_factor,
    genus_degree_gate,
    verify_semiconjugacy,
    complete_semiconjugacy,
)
from .errors import (
    Inconclusive,
    ParseError,
    PreconditionError,
    RatDynError,
    TheoremViolation,
)
from .factoring import factor_univariate
from .orbifolds import Orbifold, chi, is_covering, is_min_holomorphic, o1_of, o2_of, pullback
from .parser import parse_curve, parse_map
from .places import PLACE_INF, Place, critical_values, fiber_partition
from .ratmaps import RatMap
from .search import SearchConfig, find_invariant_curves


# bounds whose closed form C(m) exceeds this many bits are refused before
# they are built; m = 20 needs 16 002 bits, m = 1000 two billion
BOUND_BITS_MAX = 1 << 16

# decimal digits per chunk when printing a large int: below the least
# int-to-str limit (640 digits) that the interpreter accepts
_DIGIT_CHUNK = 512


def _decimal(n: int) -> str:
    """Exact decimal of an int n >= 0 of any size, converted in chunks that
    each stay under the interpreter's int-to-str digit limit."""
    base = 10**_DIGIT_CHUNK
    parts = []
    while n >= base:
        n, r = divmod(n, base)
        parts.append(str(r).zfill(_DIGIT_CHUNK))
    parts.append(str(n))
    return "".join(reversed(parts))


def _q_str(v: Fraction) -> str:
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def map_to_json(f: RatMap):
    return {
        "num": [_q_str(c) for c in f.num.c],
        "den": [_q_str(c) for c in f.den.c],
        "text": f.to_str(),
    }


def curve_to_json(C):
    poly = C.poly if isinstance(C, BiCurve) else C
    return {
        "terms": [[i, j, _q_str(v)] for (i, j), v in sorted(poly.terms.items())],
        "text": poly.to_str(),
    }


def place_to_str(p: Place) -> str:
    if p.is_infinity:
        return "inf"
    v = p.rational_value()
    if v is not None:
        return _q_str(v)
    return p.minpoly.to_str()


def orbifold_to_json(o: Orbifold):
    return [[place_to_str(p), v] for p, v in o.items()]


def parse_orbifold(text: str) -> Orbifold:
    """Entries point:value separated by commas; a point is a rational
    number, inf, or a parenthesized polynomial in z for a Galois orbit."""
    ram = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" not in chunk:
            raise ParseError(f"missing value in orbifold entry {chunk!r}")
        point, _, value = chunk.rpartition(":")
        point = point.strip()
        try:
            nu = int(value)
        except ValueError as exc:
            raise ParseError(f"bad ramification value {value!r}") from exc
        if point in ("inf", "INF", "oo"):
            place = PLACE_INF
        else:
            f = parse_map(point)
            if f.degree == 0:
                place = Place.of_rational(f(0))
            elif f.is_polynomial:
                _, facs = factor_univariate(f.num)
                if len(facs) != 1:
                    raise ParseError(f"orbifold point {point!r} is not irreducible")
                place = Place(facs[0][0])
            else:
                raise ParseError(f"orbifold point {point!r} must be a polynomial")
        ram[place] = nu
    return Orbifold(ram)


class _Output:
    def __init__(self, structured: bool):
        self.structured = structured
        self.payload = {}
        self.lines = []
        self.numbers = {}  # placeholder string -> exact decimal digits

    def add(self, key, value, text=None):
        self.payload[key] = value
        self.lines.append(f"{key}: {value if text is None else text}")

    def add_int(self, key, value: int):
        """An int of any size, printed as its exact decimal: a JSON number
        in structured output."""
        digits = _decimal(value)
        token = f"\x00int:{key}"
        self.numbers[token] = digits
        self.add(key, token, digits)

    def emit(self):
        if self.structured:
            text = json.dumps(self.payload, indent=2, default=str)
            for token, digits in self.numbers.items():
                text = text.replace(json.dumps(token), digits)
            print(text)
        else:
            for line in self.lines:
                print(line)
        sys.stdout.flush()


def _cmd_analyze(args, out: _Output):
    f = parse_map(args.map)
    out.add("map", map_to_json(f), f.to_str())
    out.add("degree", f.degree)
    if f.degree >= 2:
        cvs = critical_values(f)
        portrait = []
        for q in cvs:
            portrait.append(
                {
                    "value": place_to_str(q),
                    "place_degree": q.degree,
                    "fiber": list(fiber_partition(f, q)),
                }
            )
        out.add("critical_values", portrait, [p["value"] for p in portrait])
        out.add("orbifold_downstairs", orbifold_to_json(o2_of(f)))
        out.add("orbifold_upstairs", orbifold_to_json(o1_of(f)))
        cls = classify(f)
        out.add("classification", _class_json(cls), cls.kind)


def _class_json(cls):
    data = {"kind": cls.kind}
    if cls.n is not None:
        data["n"] = cls.n
    if cls.sign is not None:
        data["sign"] = cls.sign
    if cls.witness is not None:
        data["witness"] = map_to_json(cls.witness)
    if cls.orbifold is not None:
        data["orbifold"] = orbifold_to_json(cls.orbifold)
    if cls.extension_needed:
        data["extension_needed"] = True
    return data


def _cmd_classify(args, out: _Output):
    f = parse_map(args.map)
    cls = classify(f)
    out.add("classification", _class_json(cls), cls.kind)


def _cmd_orbifold(args, out: _Output):
    if args.action == "chi":
        o = parse_orbifold(args.orbifold)
        out.add("chi", _q_str(chi(o)))
    elif args.action == "pullback":
        f = parse_map(args.map)
        o = parse_orbifold(args.orbifold)
        out.add("pullback", orbifold_to_json(pullback(f, o)))
    else:  # check
        f = parse_map(args.map)
        o1 = parse_orbifold(args.o1)
        o2 = parse_orbifold(args.o2)
        out.add("covering", is_covering(f, o1, o2))
        out.add("minimal_holomorphic", is_min_holomorphic(f, o1, o2))


def _cmd_semiconj(args, out: _Output):
    A = parse_map(args.A)
    X = parse_map(args.X)
    B = parse_map(args.B)
    ok = verify_semiconjugacy(A, X, B)
    out.add("identity", ok, f"A o X = X o B: {ok}")
    if args.action == "complete":
        if not ok:
            raise PreconditionError("the semiconjugacy identity fails")
        Y, d = complete_semiconjugacy(A, X, B)
        out.add("Y", map_to_json(Y), Y.to_str())
        out.add("power", d)
        out.add(
            "identities",
            {
                "Y o X equals B iterate": True,
                "X o Y equals A iterate": True,
            },
            f"Y o X = B^o{d}, X o Y = A^o{d}",
        )


def _cmd_decompose(args, out: _Output):
    if args.action == "factors":
        F = parse_map(args.F)
        n = args.n
        reps = all_left_factors(F, n)
        out.add(
            "left_factor_classes",
            [map_to_json(x) for x in reps],
            [x.to_str() for x in reps],
        )
    elif args.action == "normalize":
        A = parse_map(args.A)
        X = parse_map(args.X)
        R = parse_map(args.R)
        N, Rp = normalize_left_factor(A, X, R, args.d)
        out.add("least_power", N)
        out.add("cofactor", map_to_json(Rp), Rp.to_str())
    else:  # chain
        A = parse_map(args.A)
        W0 = parse_map(args.W0)
        D = good_diagram_chain(A, W0, args.N)
        out.add("columns", [map_to_json(w) for w in D.columns], [w.to_str() for w in D.columns])
        out.add("rungs", [map_to_json(h) for h in D.rungs], [h.to_str() for h in D.rungs])
        out.add("good", D.is_good())
        per = detect_periodicity(D)
        if per is None:
            out.add("periodic", False)
        else:
            n0, r, wits = per
            out.add("periodic", {"start": n0, "period": r}, f"tail from {n0} with period {r}")


def _cmd_curve(args, out: _Output):
    if args.action == "genus":
        Y1 = parse_map(args.a)
        Y2 = parse_map(args.b)
        out.add("genus", genus_separated(Y1, Y2))
    elif args.action == "implicitize":
        X1 = parse_map(args.a)
        X2 = parse_map(args.b)
        C = implicitize(ParamCurve(X1, X2))
        out.add("curve", curve_to_json(C), C.to_str())
        out.add("bidegree", list(C.bidegree))
    elif args.action == "invariant":
        C = BiCurve(parse_curve(args.a))
        A1 = parse_map(args.b)
        A2 = parse_map(args.c)
        out.add("invariant", is_invariant(C, A1, A2))
    else:  # orbit
        C = BiCurve(parse_curve(args.a))
        A1 = parse_map(args.b)
        A2 = parse_map(args.c)
        if not C.is_irreducible():
            raise PreconditionError("orbits are defined for irreducible curves")
        orbit = [C]
        for _ in range(args.N):
            orbit.append(image_curve(orbit[-1], A1, A2))
        out.add(
            "orbit",
            [curve_to_json(c) for c in orbit],
            [c.to_str() for c in orbit],
        )


def _cmd_search(args, out: _Output):
    A1 = parse_map(args.A1)
    A2 = parse_map(args.A2)
    cfg = SearchConfig(
        bidegree=(args.d1, args.d2),
        iterate_cap=args.cap,
        include_lines=args.lines,
    )
    rep = find_invariant_curves(A1, A2, cfg)
    curves = []
    for cert in rep.curves:
        curves.append(
            {
                "curve": curve_to_json(cert.curve),
                "parametrization": [map_to_json(cert.X1), map_to_json(cert.X2)],
                "return_map": map_to_json(cert.B),
                "identities": [
                    "X1 o B = A1 o X1",
                    "X2 o B = A2 o X2",
                    "curve divides its pullback under (A1, A2)",
                ],
            }
        )
    out.add("curves", curves, [c["curve"]["text"] for c in curves])
    if args.lines:
        out.add("lines", [f"{ln.axis} = {ln.value}" for ln in rep.lines])
    out.add("completeness", rep.completeness, f"{rep.completeness} (cap {rep.cap})")


def _cmd_bounds(args, out: _Output):
    if args.action in ("phi", "psi") and args.m >= 2:
        bits = bound_C_bit_length(args.m)
        if bits > BOUND_BITS_MAX:
            raise PreconditionError(
                f"the bound C({args.m}) = 10*2^(2m^3-2) has {bits} bits, "
                f"over the budget of {BOUND_BITS_MAX} bits"
            )
    if args.action == "phi":
        out.add_int("phi", bound_phi(args.m, args.n))
    elif args.action == "psi":
        out.add_int("psi", bound_psi(args.m, args.n))
    elif args.action == "kappa":
        out.add("kappa", bound_kappa(args.m))
    else:  # genus-gate
        gate = genus_degree_gate(args.n, args.m, args.g)
        out.add("gate", gate, f"g > (m - 84 n + 168)/84: {gate}")


class _ArgumentParser(argparse.ArgumentParser):
    """Reads an argument that starts with '-' but names no option of the
    command as a positional, so maps such as "-T3" and orbifolds such as
    "-1:2,0:2" need no '--'.  Subparsers inherit the class."""

    def _parse_optional(self, arg_string):
        parsed = super()._parse_optional(arg_string)
        # an (action, option, ...) tuple of three or four entries, or in later
        # patch releases a list of such tuples
        first = parsed[0] if isinstance(parsed, list) else parsed
        if first is not None and first[0] is None:
            return None
        return parsed


def build_parser() -> argparse.ArgumentParser:
    """A new parser for the whole command tree on every call.  ``main``
    builds one on its first call and reuses it for every later command of
    the process."""
    ap = _ArgumentParser(
        prog="ratdyn",
        description="Exact dynamics of rational self-maps: orbifolds, "
        "classification, decomposition, and invariant curves.",
    )
    ap.add_argument("--format", choices=["text", "structured"], default="text")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="degree, critical portrait, orbifolds, classification")
    p.add_argument("map", nargs="?")
    p.add_argument("--file", help="batch input, one map per line")

    p = sub.add_parser("classify", help="special / generalized Lattes classification")
    p.add_argument("map", nargs="?")
    p.add_argument("--file", help="batch input, one map per line")

    p = sub.add_parser("orbifold")
    ps = p.add_subparsers(dest="action", required=True)
    q = ps.add_parser("chi")
    q.add_argument("orbifold")
    q = ps.add_parser("pullback")
    q.add_argument("map")
    q.add_argument("orbifold")
    q = ps.add_parser("check")
    q.add_argument("map")
    q.add_argument("o1")
    q.add_argument("o2")

    p = sub.add_parser("semiconj")
    ps = p.add_subparsers(dest="action", required=True)
    for name in ("verify", "complete"):
        q = ps.add_parser(name)
        q.add_argument("A")
        q.add_argument("X")
        q.add_argument("B")

    p = sub.add_parser("decompose")
    ps = p.add_subparsers(dest="action", required=True)
    q = ps.add_parser("factors")
    q.add_argument("F")
    q.add_argument("n", type=int)
    q = ps.add_parser("normalize")
    q.add_argument("A")
    q.add_argument("X")
    q.add_argument("R")
    q.add_argument("d", type=int)
    q = ps.add_parser("chain")
    q.add_argument("A")
    q.add_argument("W0")
    q.add_argument("N", type=int)

    p = sub.add_parser("curve")
    ps = p.add_subparsers(dest="action", required=True)
    q = ps.add_parser("genus")
    q.add_argument("a")
    q.add_argument("b")
    q = ps.add_parser("implicitize")
    q.add_argument("a")
    q.add_argument("b")
    q = ps.add_parser("invariant")
    q.add_argument("a")
    q.add_argument("b")
    q.add_argument("c")
    q = ps.add_parser("orbit")
    q.add_argument("a")
    q.add_argument("b")
    q.add_argument("c")
    q.add_argument("N", type=int)

    p = sub.add_parser("search")
    ps = p.add_subparsers(dest="action", required=True)
    q = ps.add_parser("invariant")
    q.add_argument("A1")
    q.add_argument("A2")
    q.add_argument("d1", type=int)
    q.add_argument("d2", type=int)
    q.add_argument("--cap", type=int, default=2)
    q.add_argument("--lines", action="store_true")

    p = sub.add_parser("bounds")
    ps = p.add_subparsers(dest="action", required=True)
    q = ps.add_parser("phi")
    q.add_argument("m", type=int)
    q.add_argument("n", type=int)
    q = ps.add_parser("psi")
    q.add_argument("m", type=int)
    q.add_argument("n", type=int)
    q = ps.add_parser("kappa")
    q.add_argument("m", type=int)
    q = ps.add_parser("genus-gate", aliases=["m2"])
    q.add_argument("n", type=int)
    q.add_argument("m", type=int)
    q.add_argument("g", type=int)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser that main shares across calls, built on the first one
    and not at import.  Sharing is safe because parse_args leaves a parser
    as it found it: every default is immutable and _parse_optional keeps no
    state."""
    return build_parser()


_DISPATCH = {
    "analyze": _cmd_analyze,
    "classify": _cmd_classify,
    "orbifold": _cmd_orbifold,
    "semiconj": _cmd_semiconj,
    "decompose": _cmd_decompose,
    "curve": _cmd_curve,
    "search": _cmd_search,
    "bounds": _cmd_bounds,
}


def _exit_code(exc: Exception, where: str = "") -> int:
    """Report exc on stderr and return its exit code: 3 for a cap-limited
    search, 4 for a failed internal check, 2 for every other error."""
    if isinstance(exc, Inconclusive):
        code, kind = 3, "inconclusive"
    elif isinstance(exc, TheoremViolation):
        code, kind = 4, "theorem violation"
    else:
        code, kind = 2, "error"
    print(f"{kind}: {where}{exc}", file=sys.stderr)
    return code


def _run(args, structured: bool, where: str = "") -> int:
    """Run one command, print its output and return its exit code."""
    out = _Output(structured)
    try:
        if args.command in ("analyze", "classify") and not args.map:
            raise ParseError("a map expression is required")
        _DISPATCH[args.command](args, out)
    except (RatDynError, ZeroDivisionError) as exc:
        return _exit_code(exc, where)
    try:
        out.emit()
    except BrokenPipeError:
        # the reader has gone; what is left goes nowhere, and the exit
        # flush meets no closed pipe
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return 0


def main(argv=None) -> int:
    """Run one command line (sys.argv[1:] when argv is None) and return its
    exit code.  A usage error, or --help, raises SystemExit (code 2, or 0)
    as argparse does.  main may be called any number of times in one
    process; the parser is built on the first call and shared."""
    args = _parser().parse_args(argv)
    structured = args.format == "structured"
    if not getattr(args, "file", None):
        return _run(args, structured)
    try:
        with open(args.file) as handle:
            lines = handle.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        return _exit_code(ParseError(f"cannot read the batch file: {exc}"))
    # every line runs; a bad line is reported with its number, and the
    # batch exits with the largest code of its lines
    code = 0
    for n, line in enumerate(lines, 1):
        line = line.strip()
        if line and not line.startswith("#"):
            line_args = argparse.Namespace(**{**vars(args), "map": line})
            code = max(code, _run(line_args, structured, f"line {n}: "))
    return code


if __name__ == "__main__":
    sys.exit(main())
