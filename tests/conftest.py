import signal

import numpy as np
import pytest


@pytest.fixture
def rng():
    """Fixed-seed generator for randomized test-case construction."""
    return np.random.default_rng(20240817)


@pytest.fixture
def deadline():
    """Fail the test, instead of stalling the suite, when it runs past 20 s.

    The alarm raises pytest's own failure, which no ``except Exception`` or
    ``except OSError`` in the code under test can swallow.
    """

    def expire(signum, frame):
        pytest.fail("still running after 20 s: a loop does not end", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(20)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
