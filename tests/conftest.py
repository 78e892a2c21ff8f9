import signal
from contextlib import contextmanager

import pytest


@pytest.fixture
def budget():
    """Context manager factory: the block fails with TimeoutError, instead of
    hanging, once it has run for `seconds` of wall time."""

    @contextmanager
    def run_within(seconds):
        def expire(*_):
            raise TimeoutError(f"overran its {seconds}s budget")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return run_within
