"""The lazy package namespace: what `import ratdyn` loads, and that every
public name is the object its defining module holds, whatever is imported
first."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ratdyn
from ratdyn import SpecialClass
from ratdyn.curves import Line, ParamCurve, periodic_curve_certificate
from ratdyn.decompose import equivalence_walk, good_diagram_chain, proper_splittings
from ratdyn.errors import PreconditionError
from ratdyn.polynomials import UniPoly
from ratdyn.ratmaps import INF, RatMap, power_map
from ratdyn.search import SearchConfig, find_invariant_curves


def _run(code: str) -> str:
    """stdout of `code` in a fresh interpreter that imports this ratdyn."""
    env = {**os.environ, "PYTHONPATH": str(Path(ratdyn.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_a_classification_session_loads_no_search_stack():
    loaded = _run(
        "import sys\n"
        "from ratdyn import classify, maximal_orbifold, parse_map\n"
        "L = parse_map('(z^2+1)^2/(4*z*(z^2-1))')\n"
        "assert classify(L).kind == 'lattes' and not maximal_orbifold(L).is_trivial\n"
        "print(*sorted(sys.modules))\n"
    ).split()
    unwanted = ["ratdyn.curves", "ratdyn.decompose", "ratdyn.search", "ratdyn.series", "ratdyn.cli", "dataclasses"]
    assert [m for m in unwanted if m in loaded] == []
    assert "ratdyn.classify" in loaded and "ratdyn.parser" in loaded


def test_a_search_and_chain_session_loads_no_dataclasses():
    loaded = _run(
        "import sys\n"
        "import ratdyn.cli\n"
        "from ratdyn import SearchConfig, find_invariant_curves, parse_map, power_map\n"
        "from ratdyn.decompose import good_diagram_chain\n"
        "A = parse_map('(z+1)^2')\n"
        "assert find_invariant_curves(A, A, SearchConfig((1, 1), 2, True)).curves\n"
        "assert good_diagram_chain(power_map(2), power_map(3), 2).verify()\n"
        "print(*sorted(sys.modules))\n"
    ).split()
    assert "ratdyn.search" in loaded and "ratdyn.cli" in loaded
    assert "dataclasses" not in loaded


def test_every_public_name_is_its_modules_object_after_every_submodule_is_imported():
    # each submodule imported before any public name is read: a submodule's
    # import binds its name on the package, which must not shadow a function
    out = _run(
        "import importlib, pkgutil, sys\n"
        "import ratdyn\n"
        "for m in pkgutil.iter_modules(ratdyn.__path__):\n"
        "    importlib.import_module('ratdyn.' + m.name)\n"
        "bad = []\n"
        "for name in ratdyn.__all__:\n"
        "    obj = getattr(ratdyn, name)\n"
        "    home = getattr(obj, '__module__', None) or type(obj).__module__\n"
        "    if getattr(sys.modules[home], name, None) is not obj or name not in dir(ratdyn):\n"
        "        bad.append(name)\n"
        "print(bad, len(set(ratdyn.__all__)), hasattr(ratdyn, 'no_such_name'))\n"
        "print(ratdyn.mobius is ratdyn.ratmaps.mobius, ratdyn.classify is sys.modules['ratdyn.classify'].classify)\n"
    )
    assert out == "[] 40 False\nTrue True\n"


def test_special_class_keeps_its_fields_defaults_repr_and_equality():
    assert SpecialClass._fields == ("kind", "n", "sign", "witness", "orbifold", "extension_needed")
    plain = SpecialClass("lattes")
    assert plain == ("lattes", None, None, None, None, False)
    assert repr(SpecialClass("power", n=2, sign=-1)) == (
        "SpecialClass(kind='power', n=2, sign=-1, witness=None, orbifold=None, extension_needed=False)"
    )
    assert SpecialClass("power", n=2) == SpecialClass("power", 2)
    assert hash(SpecialClass("power", n=2)) == hash(SpecialClass("power", 2))
    assert SpecialClass("power", n=2) != SpecialClass("power", n=3)
    assert SpecialClass("chebyshev", 3, extension_needed=True).extension_needed is True
    with pytest.raises(AttributeError):
        plain.kind = "power"


def _records():
    """One record of each kind the library returns, and its sequence fields."""
    shift = RatMap(UniPoly.of(1, 2, 1))  # (z+1)^2
    rep = find_invariant_curves(shift, shift, SearchConfig((1, 1), 1, True))
    ident = periodic_curve_certificate(shift, RatMap.identity(), RatMap.identity(), shift, shift, shift, 1)
    failed = periodic_curve_certificate(power_map(2), RatMap.identity(), power_map(3), shift, shift, shift, 1)
    return [
        (SpecialClass("lattes"), ()),
        (ParamCurve(shift, RatMap.identity()), ()),
        (Line("x", INF), ()),
        (ident, ("checks",)),
        (failed, ("checks",)),
        (proper_splittings(power_map(6))[0], ()),
        (equivalence_walk(power_map(6), 1), ("representatives", "edges")),
        (good_diagram_chain(power_map(2), power_map(3), 2), ("columns", "rungs")),
        (SearchConfig((1, 1)), ()),
        (rep.curves[0], ()),
        (rep, ("curves", "lines")),
    ]


RECORDS = _records()


@pytest.mark.parametrize("record, sequences", RECORDS, ids=[type(r).__name__ for r, _ in RECORDS])
def test_records_are_immutable_tuples(record, sequences):
    assert isinstance(record, tuple)
    assert record == tuple(record)
    assert record._make(record) == record
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    for name in sequences:
        assert type(getattr(record, name)) is tuple, name


def test_checked_records_refuse_bad_values_when_built_or_replaced():
    with pytest.raises(PreconditionError):
        SearchConfig((0, 1))
    with pytest.raises(PreconditionError):
        SearchConfig((1, 1), iterate_cap=0)
    with pytest.raises(PreconditionError):
        ParamCurve(RatMap.constant(3), RatMap.identity())
    cfg = SearchConfig((1, 1))
    with pytest.raises(PreconditionError):
        cfg._replace(bidegree=(0, 1))
    with pytest.raises(PreconditionError):
        ParamCurve(power_map(2), power_map(3))._replace(X2=RatMap.constant(0))
    assert cfg._replace(iterate_cap=3) == SearchConfig((1, 1), 3, False)
