import pytest

from ratdyn.classify import NU_CAP, maximal_orbifold
from ratdyn.errors import NotDefined
from ratdyn.memo import MEMO_SIZE, clear_caches, memo
from test_classify import LATTES, O2222


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
    assert maximal_orbifold(LATTES, place_cap=8) == maximal_orbifold(LATTES, NU_CAP, 8) == O2222
