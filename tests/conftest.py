import contextlib
import signal

import pytest
from hypothesis import settings

settings.register_profile("det", derandomize=True, deadline=None)
settings.load_profile("det")


@pytest.fixture
def time_cap():
    """A context manager that raises TimeoutError in the test once its
    seconds have passed, so work that never ends fails instead of hanging."""

    @contextlib.contextmanager
    def cap(seconds):
        def expire(signum, frame):
            raise TimeoutError("still running after %g s" % seconds)

        old = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)

    return cap
