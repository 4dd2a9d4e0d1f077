"""One bounded memo for the pure, expensive entry points of the library.

``memo`` keeps the last ``MEMO_SIZE`` outcomes of a function in a
``functools.lru_cache``, so memory stays bounded in a long-running
process and concurrent callers share one thread-safe cache.  An outcome
is a value or a library error.  The error is stored as its type, its
``args`` and its instance attributes (``ParseError.position``,
``ReducibleCurve.factors``, ``ChainError.level``) and raised afresh, with
all three, on every hit, so no traceback (and nothing it references) is
kept alive.

It sits on the kernels that places, orbifolds and transporters repeat
(`factor_univariate`, the place routines, `conjugacy_transporters`,
`maximal_orbifold`); on the exact kernels that a search's checks repeat,
through private helpers under `RatMap.compose` and `factor_bivariate`;
on the entry points that a curve search repeats across bidegrees, caps
and routes: `classify`, and private helpers under `all_left_factors`,
`left_divide` and `implicitize`; and on what a CLI session repeats across
commands: `parse_map` and `genus_separated`.  Every check runs per call,
and the compositions and factorizations it compares come from the memo:
no check's outcome is stored.  The list-valued helpers return tuples,
and the public functions hand each caller a fresh list, so no caller can
change a stored answer.  ``cache_stats`` reads the hits, misses and sizes
of every cache.
"""

from __future__ import annotations

import functools

from .errors import RatDynError

MEMO_SIZE = 4096

_caches = []  # (module.qualname, lru_cache) in registration order


def memo(fn):
    """Memoise fn on its (hashable) arguments, keyword arguments included."""

    @functools.lru_cache(maxsize=MEMO_SIZE)
    def outcome(*args, **kwargs):
        try:
            return True, fn(*args, **kwargs)
        except RatDynError as exc:
            return False, (type(exc), exc.args, tuple(vars(exc).items()))

    @functools.wraps(fn)
    def memoised(*args, **kwargs):
        ok, value = outcome(*args, **kwargs)
        if ok:
            return value
        raise _revive(*value)

    _caches.append((f"{fn.__module__}.{fn.__qualname__}", outcome))
    return memoised


def _revive(kind, args, attrs):
    """A fresh error of type kind with the given args and instance
    attributes; its __init__ is not run, since its signature is its own."""
    exc = kind.__new__(kind, *args)
    exc.__dict__.update(attrs)
    return exc


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
