"""Every test starts with cold memos, so none passes on answers that an
earlier test left in a cache."""

import pytest

from ratdyn.memo import clear_caches


@pytest.fixture(autouse=True)
def cold_memos():
    clear_caches()
