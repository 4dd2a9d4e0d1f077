"""One bounded memo for the pure, expensive entry points of the library.

``memo`` keeps the last ``MEMO_SIZE`` outcomes of a function in a
``functools.lru_cache``, so memory stays bounded in a long-running
process and concurrent callers share one thread-safe cache.  An outcome
is a value or a library error: the error is stored as its type and
message and raised afresh on every hit, so no traceback (and nothing it
references) is kept alive.
"""

from __future__ import annotations

import functools

from .errors import RatDynError

MEMO_SIZE = 4096

_caches = []


def memo(fn):
    """Memoise fn on its (hashable) arguments, keyword arguments included."""

    @functools.lru_cache(maxsize=MEMO_SIZE)
    def outcome(*args, **kwargs):
        try:
            return True, fn(*args, **kwargs)
        except RatDynError as exc:
            return False, (type(exc), str(exc))

    @functools.wraps(fn)
    def memoised(*args, **kwargs):
        ok, value = outcome(*args, **kwargs)
        if ok:
            return value
        kind, message = value
        raise kind(message)

    _caches.append(outcome)
    return memoised


def clear_caches() -> None:
    """Forget every memoised outcome."""
    for cache in _caches:
        cache.cache_clear()
