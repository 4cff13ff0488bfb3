"""Shared fixtures."""

import signal
from contextlib import contextmanager

import pytest


@pytest.fixture
def deadline():
    """deadline(seconds) is a context that raises TimeoutError once it has run that long.

    It bounds a call that could loop for a very long time, so a regression fails
    the test instead of stalling the suite.  It uses SIGALRM, so POSIX only.
    """

    def expire(signum, frame):
        raise TimeoutError("ran past its deadline")

    @contextmanager
    def within(seconds: float):
        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    return within
