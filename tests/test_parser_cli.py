import argparse
import contextlib
import io
import itertools
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ratdyn import cli
from ratdyn.bipolys import BiPoly
from ratdyn.errors import ParseError, RatDynError
from ratdyn.parser import MAX_DEGREE, parse_curve, parse_map
from ratdyn.polynomials import UniPoly
from ratdyn.ratmaps import RatMap, chebyshev, power_map
from oracles import reference_parse_map


def test_parse_basic_maps():
    assert parse_map("z^2 - 1") == RatMap(UniPoly.of(-1, 0, 1))
    assert parse_map("1/z") == power_map(-1)
    assert parse_map("(z+1)^2") == RatMap(UniPoly.of(1, 2, 1))
    assert parse_map("3/2 * z") == RatMap(UniPoly([0, "3/2"]))
    assert parse_map("+z^2 - 1") == RatMap(UniPoly.of(-1, 0, 1))


def test_parse_lattes_example():
    from fractions import Fraction

    f = parse_map("(z^2+1)^2 / (4*z*(z^2-1))")
    assert f.degree == 4
    assert f.num == (UniPoly.of(1, 0, 1) ** 2) * Fraction(1, 4)


def test_parse_aliases_and_composition():
    assert parse_map("T3") == chebyshev(3)
    assert parse_map("T2 o T3") == chebyshev(6)
    assert parse_map("T2 ∘ T3") == chebyshev(6)
    assert parse_map("z^2 o (z+1)") == RatMap(UniPoly.of(1, 2, 1))


def test_parse_iteration_suffix():
    assert parse_map("z^2^o3") == power_map(8)
    assert parse_map("z^2^o 3") == power_map(8)
    assert parse_map("(z^2-1)^o2") == RatMap(UniPoly.of(-1, 0, 1)).iterate(2)


def test_parse_negative_power():
    assert parse_map("z^-2") == power_map(-2)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError):
        parse_map("z^2 +")
    with pytest.raises(ParseError) as err:
        parse_map("z @ 2")
    assert err.value.position is not None
    with pytest.raises(ParseError):
        parse_map("w^2")
    with pytest.raises(ParseError, match="trailing input 'z'") as err:
        parse_map("z z")
    assert err.value.position == 2


def test_parse_rejects_degenerate_input():
    with pytest.raises(ParseError):
        parse_map("1/(z-z)")
    with pytest.raises(ParseError):
        parse_map("z^9999")
    with pytest.raises(ParseError):
        parse_map("z^2^o100")
    assert parse_map("z^0") == RatMap.constant(1)


def test_round_trip_fixtures():
    fixtures = [
        power_map(2),
        chebyshev(5),
        RatMap(UniPoly.of(1, 0, 1), UniPoly.of(0, 2)),
        RatMap(UniPoly.of(1, 2, 1)),
        RatMap(UniPoly.of(1, 0, 1) ** 2, UniPoly.monomial(1, 4) * UniPoly.of(-1, 0, 1)),
        RatMap(UniPoly(["1/3", 2]), UniPoly.of(5, 7)),
    ]
    for f in fixtures:
        assert parse_map(f.to_str()) == f


def test_parse_degree_budget():
    # one budget on every product, quotient, power, composition and iterate
    assert parse_map("z^2^o12") == power_map(MAX_DEGREE)
    assert parse_map("(z^2+1)^32 o z^64").degree == MAX_DEGREE
    for text, at in [
        ("((z+1)^512)^512", 11),
        ("z^2^o13", 3),
        ("(z+1)^o5000", 5),
        ("((z^512)^8) * z", 12),
        ("(z^512)^4 / (z^512)^5", 10),
        ("z^64 o z^65", 5),
        ("(z^64 o z^32) o z^3", 14),
    ]:
        with pytest.raises(ParseError) as err:
            parse_map(text)
        assert err.value.position == at, text
    # a curve of bidegree (dx, dy) counts as degree (dx + 1)(dy + 1) - 1
    assert parse_curve("(x*y + x + y + 1)^63").bidegree() == (63, 63)
    assert parse_curve("x^512 * x^256 - y^4").bidegree() == (768, 4)
    for text in ("(x + y)^64", "((x+y+1)^64)^64", "x^512 + y^512"):
        with pytest.raises(ParseError):
            parse_curve(text)
    # the exponent guard bounds coefficient height and stays
    with pytest.raises(ParseError, match="exponent"):
        parse_map("(1/2)^513")


def test_parse_bounds_a_sum_before_adding():
    # 4097 simple poles: the sum's denominator would have degree 4097
    text = " + ".join(f"1/(z-{k})" for k in range(1, MAX_DEGREE + 2))
    start = time.perf_counter()
    with pytest.raises(ParseError, match="budget") as err:
        parse_map(text)
    assert time.perf_counter() - start < 1.0
    assert err.value.position == text.index("+")
    # polynomial terms bound the numerator by their largest degree
    assert parse_map("(z^500)^6 + (z^500)^6") == RatMap(UniPoly.monomial(3000, 2))
    assert parse_map("1/z^512 - (z^512)^7 + 1").degree == MAX_DEGREE
    with pytest.raises(ParseError, match="budget") as err:
        parse_map("1/z^512 - (z^512)^7 * z")
    assert err.value.position == 8
    # curves: the largest degree in each variable
    assert parse_curve("x^512 * x^8 + y^6 - x*y").bidegree() == (520, 6)
    with pytest.raises(ParseError, match="budget") as err:
        parse_curve("x^2 - (x^512)^8 + y")
    assert err.value.position == 4


def test_parse_powers_by_squaring():
    t0 = time.perf_counter()
    f = parse_map("((z+1)/(z-1))^512")
    assert time.perf_counter() - t0 < 1.0
    num, den = UniPoly.of(1, 1), UniPoly.of(-1, 1)
    assert f == RatMap(num**512, den**512)
    assert parse_map("((z+1)/(z-1))^-301") == RatMap(den**301, num**301)
    assert parse_map("(2*z)^0") == RatMap.constant(1)
    s = parse_curve("x+y+1")
    want = BiPoly.constant(1)
    for _ in range(40):
        want = want * s
    assert parse_curve("(x+y+1)^40") == want


def test_parse_rejects_numbers_over_the_digit_limit():
    with pytest.raises(ParseError) as err:
        parse_map("z + " + "9" * 5000)
    assert err.value.position == 4


def test_parse_curves():
    assert parse_curve("x^2 - y^2").to_str() == "x^2 - y^2"
    assert parse_curve("x*y - 1").to_str() == "x*y - 1"
    assert parse_curve("(x+y)/2").to_str() == "1/2*x + 1/2*y"
    with pytest.raises(ParseError):
        parse_curve("x / y")


# the differential check of parse_map against the all-RatMap reference:
# the same map, or the same error with the same message and position
_leaves = st.one_of(
    st.integers(0, 12).map(str),
    st.tuples(st.integers(-9, 9), st.integers(1, 9)).map(lambda p: f"{p[0]}/{p[1]}"),
    st.sampled_from(["z", "T1", "T2", "T3", "T4"]),
    st.sampled_from(["(z-z)", "0", "(z+1-1-z)"]),
)
# monomials up to the budget: their sums, products and compositions stay
# sparse, so drawn expressions reach the budget at little cost
_sparse_leaves = st.sampled_from(["z", "2", "(z-z)", "z^64", "(z^512)^4", "(1/(z^512)^4)"])
def _extend(children):
    ops = st.sampled_from(["+", "-"])
    return st.one_of(
        st.tuples(children, st.lists(st.tuples(ops, children), min_size=1, max_size=3)).map(
            lambda t: "(" + t[0] + "".join(f" {op} {c}" for op, c in t[1]) + ")"),
        st.tuples(children, st.lists(st.tuples(st.sampled_from(["*", "/"]), children), min_size=1, max_size=3)).map(
            lambda t: "(" + t[0] + "".join(f"{op}{c}" for op, c in t[1]) + ")"),
        children.map(lambda c: f"(-{c})"),
        st.tuples(children, st.integers(-3, 5)).map(lambda t: f"{t[0]}^{t[1]}"),
        st.tuples(children, children).map(lambda t: f"({t[0]} o {t[1]})"),
        children.map(lambda c: f"{c}^o2"),
    )


_map_texts = st.one_of(
    st.recursive(_leaves, _extend, max_leaves=8),
    st.recursive(_sparse_leaves, _extend, max_leaves=6),
)


def _parse_outcome(parse, text):
    try:
        return "map", parse(text)
    except RatDynError as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


@settings(max_examples=300, deadline=None)
@given(_map_texts)
def test_parse_map_matches_the_ratmap_reference(text):
    assert _parse_outcome(parse_map, text) == _parse_outcome(reference_parse_map, text), text


@pytest.mark.parametrize("text", [
    "(z-z)", "(z-z)^-1", "1/(z-z)", "(z-z)^0", "0^-2", "(z-z) o z", "z o (z-z)", "1/z o 0",
    "(1/2)/(z-z+3)", "T4/T3*T3", "(z^2-1)/(z-1) + z", "-(z+1)/(z+1)", "(z^2)^-3 o T2^o2",
    "z^2048 * z^2049", "1/z^2048 + 1/z^2049", "(z^64 o z^65)", "z^2^o13", "(z^2 + 1/z)^o3",
    "1/(z-1) + 1/(z-2) - 3/(z-1)", "z^5/z^5 + (z-z)/z",
])
def test_parse_map_matches_the_ratmap_reference_on_edge_cases(text):
    assert _parse_outcome(parse_map, text) == _parse_outcome(reference_parse_map, text)


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "ratdyn.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc


def test_cli_classify():
    proc = run_cli("classify", "z^2-1")
    assert proc.returncode == 0
    assert "non_special_non_gl" in proc.stdout


def test_cli_genus():
    proc = run_cli("curve", "genus", "z^3-z", "z^2")
    assert proc.returncode == 0
    assert "genus: 1" in proc.stdout


def test_cli_structured_output():
    proc = run_cli("--format", "structured", "classify", "z^5")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["classification"]["kind"] == "power"
    assert data["classification"]["n"] == 5


def test_cli_search():
    proc = run_cli("search", "invariant", "(z+1)^2", "(z+1)^2", "1", "2", "--cap", "2")
    assert proc.returncode == 0
    assert "x - y^2 - 2*y - 1" in proc.stdout


def test_cli_search_structured():
    proc = run_cli(
        "--format", "structured", "search", "invariant", "(z+1)^2", "(z+1)^2", "1", "1", "--cap", "2"
    )
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["completeness"] == "complete_up_to_cap"
    assert len(data["curves"]) == 1
    entry = data["curves"][0]
    assert entry["curve"]["terms"] == [[0, 1, "-1"], [1, 0, "1"]]
    assert entry["parametrization"][0]["num"] == ["0", "1"]
    assert entry["identities"][2] == "curve divides its pullback under (A1, A2)"


@pytest.mark.parametrize("fmt", [[], ["--format", "structured"]])
def test_cli_closed_pipe_stops_without_a_traceback(fmt):
    # the read end is closed before the child starts, so its first write
    # meets a broken pipe
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ratdyn.cli", *fmt, "bounds", "phi", "3", "2"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 0
    assert proc.stderr == ""


def test_cli_exit_codes():
    assert run_cli("classify", "z^2 +").returncode == 2
    assert run_cli("classify", "z+1").returncode == 2  # degree too small
    assert run_cli("bounds", "genus-gate", "2", "2", "5").returncode == 0
    assert run_cli("bounds", "m2", "2", "2", "5").returncode == 0  # alias


def test_cli_orbifold_commands():
    proc = run_cli("orbifold", "chi", "0:2, inf:2")
    assert proc.returncode == 0
    assert "chi: 1" in proc.stdout
    proc = run_cli("orbifold", "chi", "0:2, 1:3, inf:7")
    assert "-1/42" in proc.stdout
    proc = run_cli("orbifold", "pullback", "z^3", "0:2, inf:2")
    assert proc.returncode == 0
    proc = run_cli(
        "orbifold", "check", "(z^2+1)^2 / (4*z*(z^2-1))", "0:2,1:2,-1:2,inf:2", "0:2,1:2,-1:2,inf:2"
    )
    assert proc.returncode == 0
    assert "covering: True" in proc.stdout


def test_cli_orbifold_quadratic_place():
    proc = run_cli("orbifold", "chi", "z^2-2:3")
    assert proc.returncode == 0
    assert "2/3" in proc.stdout


def test_cli_semiconj():
    proc = run_cli("semiconj", "complete", "(z+1)^2", "z^2", "z^2+1")
    assert proc.returncode == 0
    assert "power: 1" in proc.stdout


def test_cli_decompose():
    proc = run_cli("decompose", "factors", "T6", "3")
    assert proc.returncode == 0
    proc = run_cli("decompose", "chain", "z^2", "z^3", "4")
    assert proc.returncode == 0
    assert "periodic" in proc.stdout


def test_cli_curve_commands():
    proc = run_cli("curve", "invariant", "x - y", "z^2-1", "z^2-1")
    assert proc.returncode == 0 and "invariant: True" in proc.stdout
    proc = run_cli("curve", "orbit", "x + y", "z^2", "z^2", "2")
    assert proc.returncode == 0 and "x - y" in proc.stdout
    proc = run_cli("curve", "implicitize", "z^2", "z^3")
    assert proc.returncode == 0 and "x^3 - y^2" in proc.stdout


def test_cli_inconclusive_exit_code():
    # the wandering critical orbit is retired by the height bound
    proc = run_cli("classify", "(z^2+z+1)/z^2")
    assert proc.returncode == 0 and "non_special_non_gl" in proc.stdout
    # the fourth image would need an eliminant of bidegree (162, 81)
    proc = run_cli("curve", "orbit", "x^2 + y", "z^3-3*z+1", "z^3+z+1", "4")
    assert proc.returncode == 3
    assert "inconclusive" in proc.stderr.lower()
    assert "Traceback" not in proc.stderr


def test_cli_analyze():
    proc = run_cli("analyze", "T4")
    assert proc.returncode == 0
    assert "degree: 4" in proc.stdout
    assert "chebyshev" in proc.stdout


def test_cli_batch_file(tmp_path):
    batch = tmp_path / "maps.txt"
    batch.write_text("z^2-1\nz^5\n")
    proc = run_cli("classify", "--file", str(batch))
    assert proc.returncode == 0
    assert "non_special_non_gl" in proc.stdout
    assert "power" in proc.stdout


def test_cli_batch_file_missing(tmp_path):
    proc = run_cli("analyze", "--file", str(tmp_path / "absent.txt"))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def test_cli_batch_file_unreadable(tmp_path):
    # a directory cannot be read as a batch file
    proc = run_cli("classify", "--file", str(tmp_path))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def _int_from_decimal(digits):
    """The int of a decimal string, read in chunks below the int-to-str limit."""
    value = 0
    for i in range(0, len(digits), 500):
        chunk = digits[i : i + 500]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def test_cli_bounds_beyond_the_digit_limit():
    # closed forms: C(20) = 10 * 2^(2*20^3 - 2), kappa(20) = 10, the log
    # term for n = 3 is 2, psi = 2 + 10 C + 1 and phi = 2 psi + 1
    psi = 2 + 10 * (10 * 2 ** (2 * 20**3 - 2)) + 1
    want = {"psi": psi, "phi": 2 * psi + 1}
    for which in ("phi", "psi"):
        proc = run_cli("bounds", which, "20", "3")
        assert proc.returncode == 0
        assert "Traceback" not in proc.stderr
        key, digits = proc.stdout.strip().split(": ")
        assert key == which and digits.isdigit() and len(digits) > 4300
        assert _int_from_decimal(digits) == want[which]
        proc = run_cli("--format", "structured", "bounds", which, "20", "3")
        assert proc.returncode == 0
        body = proc.stdout.strip()
        assert body.startswith("{") and body.endswith("}")
        assert body[1:-1].strip() == f'"{which}": {digits}'


def test_cli_bounds_over_the_bit_budget():
    proc = run_cli("bounds", "psi", "1000", "3")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "2000000002 bits" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert run_cli("--format", "structured", "bounds", "phi", "1000", "3").returncode == 2


def test_cli_bounds_small_values_unchanged():
    proc = run_cli("--format", "structured", "bounds", "phi", "2", "3")
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"phi": 983057}
    assert run_cli("bounds", "psi", "2", "3").stdout == "psi: 491528\n"


def test_cli_batch_reports_every_line(tmp_path, monkeypatch):
    batch = tmp_path / "maps.txt"
    batch.write_text("z^2+1\nz^^\n(z+1)^2\n")
    proc = run_cli("classify", "--file", str(batch))
    assert proc.returncode == 2
    assert proc.stdout.count("classification: non_special_non_gl") == 2
    assert proc.stderr == "error: line 2: expected 'num', found '^'\n"
    proc = run_cli("--format", "structured", "classify", "--file", str(batch))
    assert proc.returncode == 2
    assert proc.stdout.count('"kind": "non_special_non_gl"') == 2
    # the batch exits with the largest code of its lines: 3 beats 2; no
    # legal map leaves classify inconclusive, so line 4 is made so in-process
    from ratdyn import cli
    from ratdyn.errors import Inconclusive

    capped = parse_map("(z^2+z+1)/z^2")
    real = cli.classify

    def classify(f):
        if f == capped:
            raise Inconclusive("postcritical orbit unresolved within the cap")
        return real(f)

    monkeypatch.setattr(cli, "classify", classify)
    batch.write_text("z^^\n# a comment\n\n(z^2+z+1)/z^2\nz^5\n")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["analyze", "--file", str(batch)])
    assert code == 3
    assert "degree: 5" in out.getvalue()
    lines = err.getvalue().splitlines()
    assert lines[0].startswith("error: line 1: ")
    assert lines[1].startswith("inconclusive: line 4: ")
    assert "Traceback" not in err.getvalue()


def test_cli_positionals_that_begin_with_a_minus():
    proc = run_cli("classify", "-T3")
    assert proc.returncode == 0 and "chebyshev" in proc.stdout
    lattes = "(z^2+1)^2 / (4*z*(z^2-1))"
    orb = "-1:2,0:2,1:2,inf:2"
    for argv in (["orbifold", "check", lattes, orb, orb], ["orbifold", "check", "--", lattes, orb, orb]):
        proc = run_cli(*argv)
        assert proc.returncode == 0 and "covering: True" in proc.stdout
    proc = run_cli("orbifold", "chi", "-1:2,inf:2")
    assert proc.returncode == 0 and "chi: 1" in proc.stdout
    # registered options keep working, and unknown words are still refused
    proc = run_cli("search", "invariant", "(z+1)^2", "(z+1)^2", "1", "1", "--cap", "1", "--lines")
    assert proc.returncode == 0 and "lines: " in proc.stdout
    assert run_cli("classify", "-h").returncode == 0
    assert run_cli("bounds", "kappa", "-1").returncode == 2
    proc = run_cli("classify", "z^2", "-x")
    assert proc.returncode == 2 and "unrecognized arguments" in proc.stderr


def test_cli_degree_budget_is_fast():
    start = time.perf_counter()
    proc = run_cli("classify", "((z+1)^512)^512")
    elapsed = time.perf_counter() - start
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: degree over the budget")
    assert "Traceback" not in proc.stderr
    assert elapsed < 1.0
    proc = run_cli("classify", "z^" + "9" * 5000)
    assert proc.returncode == 2 and "Traceback" not in proc.stderr



def test_cli_curve_images_refuse_constant_maps_and_reducible_curves():
    # input errors, exit 2, not failed internal checks (exit 4)
    proc = run_cli("curve", "invariant", "x - y", "2", "z^2")
    assert proc.returncode == 2 and "nonconstant" in proc.stderr
    proc = run_cli("curve", "orbit", "y^2 - x^2*y", "z", "z", "1")
    assert proc.returncode == 2 and "irreducible" in proc.stderr


@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_cli_genus_refuses_curves_split_over_an_extension(fmt):
    # irreducible over Q, two conjugate lines over Q(sqrt 2): an input
    # error (exit 2), not a failed internal check (exit 4)
    for a, b in (("z^2", "2*z^2"), ("(z^2+2*z+1)/2", "(z+1)^2")):
        proc = run_cli("--format", fmt, "curve", "genus", a, b)
        assert proc.returncode == 2
        assert "conjugate components" in proc.stderr and "Traceback" not in proc.stderr
    assert "genus: 1" in run_cli("curve", "genus", "z^3-z", "z^2").stdout

@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_cli_genus_without_a_certificate_is_inconclusive(fmt):
    # two genus-1 curves conjugate over Q(sqrt 2): the pairing count reads
    # genus 1, and without a certificate of geometric irreducibility the
    # answer is exit 3 with nothing on stdout
    proc = run_cli("--format", fmt, "curve", "genus", "(z^3+z+1)^2", "2*(z^3-z+3)^2")
    assert proc.returncode == 3
    assert proc.stderr.startswith("inconclusive:") and "geometrically irreducible" in proc.stderr
    assert "Traceback" not in proc.stderr and proc.stdout == ""


def test_cli_genus_on_planted_splits_never_answers_or_fails_a_check():
    # P(x)^2 = c Q(y)^2 with c not a square: exit 2 or 3, never a genus
    # and never exit 4
    polys = ["z^3-z", "z^3+2*z-3", "z^2+1", "2*z-1", "z^3+z+1"]
    for (P, Q), c in itertools.product(itertools.product(polys, repeat=2), ["2", "-1", "3/2"]):
        for fmt in ("text", "structured"):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main(["--format", fmt, "curve", "genus", f"({P})^2", f"{c}*({Q})^2"])
            assert code in (2, 3), (P, Q, c, err.getvalue())


# argv drawn from the command grammar under a small degree budget: maps of
# degree at most 4, curves of bidegree at most (2, 2), small integers, and
# some words that no command accepts
_coeffs = st.sampled_from(["1", "-1", "2", "-3", "1/2"])
_polys = st.lists(_coeffs, min_size=1, max_size=3).map(
    lambda cs: " + ".join(f"({c})*z^{i}" for i, c in enumerate(cs))
)
_maps = st.one_of(
    _polys,
    st.tuples(_polys, _polys).map(lambda nd: f"({nd[0]}) / ({nd[1]})"),
    st.sampled_from(
        ["z^2", "T2", "-T3", "z^-2", "1/z", "(z+1)^2", "z^2 o z+1", "z^2^o2", "z", "0", "z^", "w"]
    ),
)
_curves = st.sampled_from(
    ["x - y", "x^2 - y", "x*y - 1", "x^2 + y^2 - 1", "x - 1", "x y", "y^2 - x^2*y"]
)
_points = st.sampled_from(["0", "1", "-1", "inf", "1/2", "z^2-2", "z^2-1", "z/(z+1)"])
_orbifolds = st.lists(
    st.tuples(_points, st.sampled_from(["1", "2", "3", "0", "x"])), max_size=4
).map(lambda es: ", ".join(f"{p}:{v}" for p, v in es))
_ints = st.integers(-1, 4).map(str)
_words = st.sampled_from(["", "--cap", "-x", "--", "inf", "--lines", "-1"])


def _command(name, *parts):
    return st.tuples(*parts).map(lambda args: [*name.split(), *args])


_argvs = st.tuples(
    st.sampled_from([[], ["--format", "structured"]]),
    st.one_of(
        _command("analyze", _maps),
        _command("classify", _maps),
        _command("orbifold chi", _orbifolds),
        _command("orbifold pullback", _maps, _orbifolds),
        _command("orbifold check", _maps, _orbifolds, _orbifolds),
        _command("semiconj verify", _maps, _maps, _maps),
        _command("semiconj complete", _maps, _maps, _maps),
        _command("decompose factors", _maps, _ints),
        _command("decompose normalize", _maps, _maps, _maps, _ints),
        _command("decompose chain", _maps, _maps, _ints),
        _command("curve genus", _maps, _maps),
        _command("curve implicitize", _maps, _maps),
        _command("curve invariant", _curves, _maps, _maps),
        _command("curve orbit", _curves, _maps, _maps, st.integers(0, 2).map(str)),
        _command(
            "search invariant",
            _maps,
            _maps,
            st.sampled_from(["1", "2", "0"]),
            st.sampled_from(["1", "0"]),
            st.sampled_from(["--cap", "--lines"]),
            st.sampled_from(["1", "0"]),
        ),
        _command("bounds phi", _ints, _ints),
        _command("bounds psi", _ints, _ints),
        _command("bounds kappa", _ints),
        _command("bounds genus-gate", _ints, _ints, _ints),
    ),
    st.lists(_words, max_size=1),
).map(lambda t: t[0] + t[1] + t[2])


# One parser per process: main parses with a parser built on its first call
# and shared by every later call, and build_parser stays the oracle.

_README_LINES = [
    line
    for line in (Path(__file__).resolve().parents[1] / "README.md")
    .read_text()
    .split("## Command line", 1)[1]
    .split("```")[1]
    .splitlines()
    if line.startswith("ratdyn ")
]

# argv that argparse refuses with exit 2 or answers with --help and exit 0
_USAGE = [
    ["--help"],
    ["search", "invariant", "-h"],
    ["bogus"],
    ["bounds", "kappa"],
    ["--format", "json", "classify", "z^2"],
    ["search", "invariant", "z^2", "z^2", "1", "1", "--cap"],
    ["classify", "z^2", "-x"],
]


def _captured(call):
    """(exit code, stdout, stderr) of call() in process; a SystemExit from
    argparse gives its code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = call()
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _fresh(argv):
    """What main does with a parser built for this argv alone."""
    args = cli.build_parser().parse_args(argv)
    return cli._run(args, args.format == "structured")


def _same_as_fresh(argv):
    shared = _captured(lambda: cli.main(list(argv)))
    assert shared == _captured(lambda: _fresh(list(argv))), argv
    return shared


def _parser_tree(parser):
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            # an alias maps to the parser of its command
            for sub in dict.fromkeys(action.choices.values()):
                yield from _parser_tree(sub)


def _snapshot(parser):
    return [(repr(vars(p)), [repr(vars(a)) for a in p._actions]) for p in _parser_tree(parser)]


def test_cli_readme_lines_match_a_fresh_parser():
    assert len(_README_LINES) >= 10
    usage = itertools.cycle(_USAGE)
    for line in _README_LINES:
        for fmt in ([], ["--format", "structured"]):
            code, out, err = _same_as_fresh([*fmt, *shlex.split(line)[1:]])
            assert code == 0 and out and err == "", line
            code, out, err = _same_as_fresh(next(usage))
            assert code in (0, 2) and "Traceback" not in err




def test_cli_defaults_return_after_explicit_options():
    argv = ["search", "invariant", "z^2", "z^2", "1", "1"]
    code, out, _ = _captured(lambda: cli.main([*argv, "--cap", "1", "--lines"]))
    assert code == 0 and "(cap 1)" in out and "lines: " in out
    code, out, _ = _captured(lambda: cli.main(argv))
    assert code == 0 and "(cap 2)" in out and "lines: " not in out


def test_cli_parse_args_leaves_the_parser_unchanged():
    parser = cli.build_parser()
    assert parser is not cli.build_parser()
    # immutable defaults: no parse can change one in place
    for p in _parser_tree(parser):
        for action in p._actions:
            assert action.default is None or type(action.default) in (str, int, bool), action
    before = _snapshot(parser)
    argvs = [shlex.split(line)[1:] for line in _README_LINES] + _USAGE
    argvs += [["classify", "-T3"], ["orbifold", "chi", "-1:2,inf:2"], ["bounds", "m2", "2", "2", "5"]]
    for argv in argvs:
        _captured(lambda: parser.parse_args(argv))
    assert _snapshot(parser) == before


def test_cli_main_builds_its_parser_once(monkeypatch):
    built = []
    real = cli.build_parser

    def counting():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    for argv in (["bounds", "kappa", "2"], ["bogus"], ["classify", "z^2"]):
        _captured(lambda: cli.main(argv))
    assert built == [1]
    # importing the module builds nothing
    proc = subprocess.run(
        [sys.executable, "-c", "import ratdyn.cli as c; print(c._parser.cache_info().currsize)"],
        capture_output=True,
        text=True,
    )
    assert proc.stdout == "0\n"


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd to count descriptors")
def test_cli_closed_pipe_leaks_no_descriptor():
    def closed_pipe_run():
        read_end, write_end = os.pipe()
        os.close(read_end)
        # the handler points the descriptor at the null device, so closing
        # the stream flushes what is left there
        with open(write_end, "w") as stream, contextlib.redirect_stdout(stream):
            return cli.main(["bounds", "phi", "3", "2"])

    assert closed_pipe_run() == 0
    before = len(os.listdir("/dev/fd"))
    for _ in range(4):
        assert closed_pipe_run() == 0
    assert len(os.listdir("/dev/fd")) == before


@settings(max_examples=120, deadline=None)
@given(_argvs, st.sampled_from(_USAGE))
def test_cli_argv_fuzz_keeps_the_exit_contract(argv, usage):
    # the examples share one parser in this process, and each answers as a
    # fresh parser does, also after a usage error or --help
    code, _, err = _same_as_fresh(argv)
    assert code in (0, 2, 3, 4), (argv, code, err)
    assert "Traceback" not in err
    code, _, err = _same_as_fresh(usage)
    assert code in (0, 2) and "Traceback" not in err
