"""Every test starts with cold memos, so none passes on answers that an
earlier test left in a cache, and every test fails, instead of hanging the
suite, once it runs past a generous wall-clock bound."""

import signal
import threading

import pytest

from ratdyn.memo import clear_caches

# seconds; the slowest test takes about 4 s
TEST_WALL_CLOCK_BOUND_S = 300


@pytest.fixture(autouse=True)
def cold_memos():
    clear_caches()


@pytest.fixture(autouse=True)
def wall_clock_bound():
    # SIGALRM exists only on POSIX, and only the main thread may set a handler
    if not hasattr(signal, "SIGALRM") or threading.current_thread() is not threading.main_thread():
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"the test ran past its wall-clock bound of {TEST_WALL_CLOCK_BOUND_S} s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_WALL_CLOCK_BOUND_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
