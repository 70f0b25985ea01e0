import signal

import numpy as np
import pytest
from hypothesis import settings

# every run draws the same examples and writes no example database, so two
# runs of the suite see the same @given cases
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


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
