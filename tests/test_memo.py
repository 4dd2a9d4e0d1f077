import pytest

from ratdyn.classify import classify, maximal_orbifold
from ratdyn.curves import genus_separated, implicitize
from ratdyn.decompose import all_left_factors, left_divide
from ratdyn.errors import ChainError, NotDefined, ParseError, PreconditionError, ReducibleCurve
from ratdyn.factoring import factor_univariate
from ratdyn.memo import MEMO_SIZE, cache_stats, clear_caches, memo
from ratdyn.mobius import _marked_points, conjugacy_transporters
from ratdyn.parser import parse_map
from ratdyn.places import Place, critical_values, preimage_places
from ratdyn.polynomials import UniPoly
from ratdyn.ratmaps import RatMap, power_map
from test_classify import LATTES


def counted():
    calls = []

    @memo
    def square(x, shift=0):
        calls.append((x, shift))
        if x < 0:
            raise NotDefined(f"no square for {x}")
        return x * x + shift

    return square, calls


def test_memo_is_bounded_and_least_recently_used():
    square, calls = counted()
    for x in range(MEMO_SIZE):
        square(x)
    square(0)  # refresh: now 1 is the oldest key
    square(MEMO_SIZE)
    assert len(calls) == MEMO_SIZE + 1
    square(0)
    assert len(calls) == MEMO_SIZE + 1
    square(1)
    assert calls[-1] == (1, 0) and len(calls) == MEMO_SIZE + 2


def test_memo_reraises_a_cached_error_without_recomputing():
    square, calls = counted()
    for _ in range(2):
        with pytest.raises(NotDefined) as err:
            square(-3)
        assert type(err.value) is NotDefined
        assert str(err.value) == "no square for -3"
        assert err.value.__context__ is None
    assert calls == [(-3, 0)]


def test_memo_raises_an_error_with_no_chained_exception_on_a_miss_or_a_hit():
    square, calls = counted()
    for _ in range(2):
        with pytest.raises(NotDefined) as err:
            square(-2)
        exc = err.value
        assert (exc.__cause__, exc.__context__, exc.__suppress_context__) == (None, None, False)
    assert calls == [(-2, 0)]


@pytest.mark.parametrize("error", [
    ParseError("unexpected character '@'", position=2),
    ReducibleCurve("the separated curve is reducible", factors=("x - y", "x + y")),
    ChainError("rung fails to commute", level=3),
    NotDefined("no orbifold", "second argument"),
], ids=lambda e: type(e).__name__)
def test_memo_keeps_an_errors_arguments_and_attributes(error):
    calls = []

    @memo
    def refuse(x):
        calls.append(x)
        try:
            raise ValueError("a cause that must not be kept")
        except ValueError:
            raise error

    raised = []
    for _ in range(3):
        with pytest.raises(type(error)) as err:
            refuse(1)
        raised.append(err.value)
    assert calls == [1]
    for exc in raised:
        assert type(exc) is type(error) and exc is not error
        assert exc.args == error.args and str(exc) == str(error)
        assert vars(exc) == vars(error)
        assert exc.__context__ is None and exc.__cause__ is None
    # each hit is a fresh instance: a change to one is seen by no other
    assert raised[0] is not raised[1]
    raised[0].extra = "changed"
    with pytest.raises(type(error)) as err:
        refuse(1)
    assert not hasattr(err.value, "extra") and calls == [1]


def test_memoised_library_errors_keep_their_attributes():
    for _ in range(2):
        with pytest.raises(ParseError) as err:
            parse_map("z @ 2")
        assert err.value.position == 2 and err.value.__context__ is None
    for _ in range(2):
        with pytest.raises(ReducibleCurve) as err:
            genus_separated(power_map(2), power_map(2))
        assert sorted(f.to_str() for f in err.value.factors) == ["x + y", "x - y"]
        assert err.value.__context__ is None
    stats = cache_stats()
    assert stats["ratdyn.parser.parse_map"] == {"hits": 1, "misses": 1, "size": 1}
    assert stats["ratdyn.curves.genus_separated"] == {"hits": 1, "misses": 1, "size": 1}


def test_clear_caches_forces_recomputation():
    square, calls = counted()
    square(5)
    square(5)
    clear_caches()
    square(5)
    assert calls == [(5, 0), (5, 0)]


def test_memo_keeps_keyword_calls_and_the_wrapped_metadata():
    square, calls = counted()
    assert square(3, shift=1) == 10
    assert square(3, shift=1) == 10
    assert square(3) == 9
    assert calls == [(3, 1), (3, 0)]
    assert square.__name__ == "square" and square.__wrapped__ is not None


def test_cache_stats_reads_hits_misses_and_size():
    square, _ = counted()
    square(2)
    square(2)
    square(3)
    stats = cache_stats()
    assert stats["test_memo.counted.<locals>.square"] == {"hits": 1, "misses": 2, "size": 2}
    assert "ratdyn.classify.maximal_orbifold" in stats
    assert "ratdyn.parser.parse_map" in stats and "ratdyn.curves.genus_separated" in stats
    clear_caches()
    assert cache_stats()["test_memo.counted.<locals>.square"] == {"hits": 0, "misses": 0, "size": 0}


def test_compose_cache_stays_bounded():
    clear_caches()
    identity = RatMap.identity()
    for k in range(MEMO_SIZE + 2):
        RatMap(UniPoly.of(k, 1)).compose(identity)
    stats = cache_stats()
    assert stats["ratdyn.ratmaps.RatMap.compose"] == {"hits": 0, "misses": MEMO_SIZE + 2, "size": MEMO_SIZE}
    assert "ratdyn.factoring.factor_bivariate" in stats


# the entry points that a curve search repeats, and the list-valued
# kernels under places and transporters: each call, its cache, and one
# refusal with its type and message
A_SHIFT = RatMap(UniPoly.of(1, 2, 1))  # (z+1)^2
CONSTANT = RatMap.constant(2)
ENTRY_POINTS = [
    (factor_univariate, (UniPoly.of(-1, 0, 1),), "ratdyn.factoring.factor_univariate",
     (UniPoly.zero(),), PreconditionError, "cannot factor the zero polynomial"),
    (preimage_places, (A_SHIFT, Place.of_rational(1)), "ratdyn.places.preimage_places",
     (CONSTANT, Place.of_rational(1)), PreconditionError, "preimages need a nonconstant map"),
    (critical_values, (A_SHIFT,), "ratdyn.places.critical_values",
     (RatMap.identity(),), PreconditionError, "critical values need degree at least two"),
    (conjugacy_transporters, (A_SHIFT, A_SHIFT), "ratdyn.mobius.conjugacy_transporters",
     (RatMap.identity(), RatMap.identity()), PreconditionError, "transporters need degree at least two"),
    (all_left_factors, (A_SHIFT.iterate(2), 2), "ratdyn.decompose.all_left_factors",
     (CONSTANT, 2), PreconditionError, "left factors need a nonconstant map"),
    (left_divide, (A_SHIFT.iterate(2), A_SHIFT), "ratdyn.decompose.left_divide",
     (A_SHIFT, CONSTANT), PreconditionError, "functional division needs nonconstant maps"),
    (implicitize, ((A_SHIFT, power_map(2)),), "ratdyn.curves.implicitize",
     ((A_SHIFT, CONSTANT),), PreconditionError, "parametrizations need nonconstant coordinates"),
    (classify, (LATTES,), "ratdyn.classify.classify",
     (RatMap.identity(),), PreconditionError, "classification needs degree at least two"),
]


def owned_lists(answer):
    """The lists of an answer: the answer itself, or those in a tuple."""
    return [answer] if isinstance(answer, list) else [p for p in answer if isinstance(p, list)]


@pytest.mark.parametrize("fn, args, cache, bad, kind, message", ENTRY_POINTS,
                         ids=[e[2] for e in ENTRY_POINTS])
def test_entry_points_answer_from_their_cache(fn, args, cache, bad, kind, message):
    first = fn(*args)
    second = fn(*args)
    assert first and first == second
    if fn not in (implicitize, classify):
        # each caller owns its lists: changing one changes no later answer
        mine, theirs = owned_lists(first), owned_lists(second)
        assert mine and all(m is not t for m, t in zip(mine, theirs))
        kept = [list(m) for m in mine]
        for m, t in zip(mine, theirs):
            m.clear()
            t.append(CONSTANT)
        assert owned_lists(fn(*args)) == kept
    stats = cache_stats()[cache]
    assert stats["misses"] == 1 and stats["hits"] >= 1
    for _ in range(2):
        with pytest.raises(kind) as err:
            fn(*bad)
        assert type(err.value) is kind and str(err.value) == message
    # a refusal is computed at most once
    assert cache_stats()[cache]["misses"] <= 2


def test_a_caller_cannot_change_a_stored_orbifold_or_label_dict():
    kept = maximal_orbifold(LATTES).items()
    ram = maximal_orbifold(LATTES).ram
    with pytest.raises(AttributeError):
        ram.clear()
    with pytest.raises(TypeError):
        ram[Place.of_rational(5)] = 3
    assert maximal_orbifold(LATTES).items() == kept and len(kept) == 4
    labels = _marked_points(LATTES)
    want = dict(labels)
    labels.clear()
    again = _marked_points(LATTES)
    assert again == want and again is not labels
    again[Place.of_rational(5)] = None
    assert _marked_points(LATTES) == want
    stats = cache_stats()
    assert stats["ratdyn.classify.maximal_orbifold"]["misses"] == 1
    assert stats["ratdyn.mobius._marked_points"]["misses"] == 1
