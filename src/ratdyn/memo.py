"""One bounded memo for the pure, expensive entry points of the library.

``memo`` keeps the last ``MEMO_SIZE`` outcomes of a function in a
``functools.lru_cache``, so memory stays bounded in a long-running
process and concurrent callers share one thread-safe cache.  An outcome
is a value or a library error.  The error is stored as its type, its
``args`` and its instance attributes (``ParseError.position``,
``ReducibleCurve.factors``, ``ChainError.level``) and raised afresh, with
all three, on every hit, so no traceback (and nothing it references) is
kept alive.

No caller can change a stored answer: a list answer, and each list
inside a tuple answer such as ``(unit, factors)``, is stored as a tuple,
and a dict answer behind a read-only view; every caller, on a miss or a
hit, gets its own list or dict.  How an answer is handed out is decided
once, when it is stored.

It sits on the kernels that places, orbifolds and transporters repeat
(`factor_univariate`, the place routines, `conjugacy_transporters`,
`maximal_orbifold`); on the exact kernels that a search's checks repeat
(`RatMap.compose`, `factor_bivariate`); on the entry points that a curve
search repeats across bidegrees, caps and routes (`classify`,
`all_left_factors`, `left_divide`, `implicitize`); and on what a CLI
session repeats across commands (`parse_map`, `genus_separated`).  Every
check runs per call, and the compositions and factorizations it compares
come from the memo: no check's outcome is stored.  ``cache_stats`` reads
the hits, misses and sizes of every cache.
"""

from __future__ import annotations

import functools
from types import MappingProxyType

from .errors import RatDynError

MEMO_SIZE = 4096

_caches = []  # (module.qualname, lru_cache) in registration order


def memo(fn):
    """Memoise fn on its (hashable) arguments, keyword arguments included."""

    @functools.lru_cache(maxsize=MEMO_SIZE)
    def outcome(*args, **kwargs):
        try:
            return _stored(fn(*args, **kwargs))
        except RatDynError as exc:
            return _raise, (type(exc), exc.args, tuple(vars(exc).items()))

    @functools.wraps(fn)
    def memoised(*args, **kwargs):
        hand_out, value = outcome(*args, **kwargs)
        return value if hand_out is None else hand_out(value)

    _caches.append((f"{fn.__module__}.{fn.__qualname__}", outcome))
    return memoised


def _stored(value):
    """(hand_out, frozen): value with its lists made tuples and a dict made
    a read-only view, and what gives a caller its own copy of them (None
    when value holds neither)."""
    if type(value) is list:
        return list, tuple(value)
    if type(value) is dict:
        return dict, MappingProxyType(value)
    if type(value) is tuple:
        lists = tuple(type(v) is list for v in value)
        if any(lists):
            return functools.partial(_thaw, lists), tuple(
                tuple(v) if is_list else v for v, is_list in zip(value, lists))
    return None, value


def _thaw(lists, frozen):
    return tuple(list(v) if is_list else v for v, is_list in zip(frozen, lists))


def _raise(stored):
    """Raise a fresh error of the stored type with the stored args and
    instance attributes; its __init__ is not run, since its signature is
    its own."""
    kind, args, attrs = stored
    exc = kind.__new__(kind, *args)
    exc.__dict__.update(attrs)
    raise exc


def clear_caches() -> None:
    """Forget every memoised outcome."""
    for _, cache in _caches:
        cache.cache_clear()


def cache_stats() -> dict:
    """{"module.qualname": {"hits", "misses", "size"}} for every memoised
    function (a name memoised twice reports its later definition)."""
    stats = {}
    for name, cache in _caches:
        info = cache.cache_info()
        stats[name] = {"hits": info.hits, "misses": info.misses, "size": info.currsize}
    return stats
