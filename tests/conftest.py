import threading

import numpy as np
import pytest

from bornsim import RngStream


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """Fail a test that leaves a new non-daemon thread alive: such a thread outlives its join."""
    before = set(threading.enumerate())
    yield
    left = [t for t in threading.enumerate() if t not in before and not t.daemon]
    assert not left, f"threads left running: {left}"


@pytest.fixture
def rng():
    return RngStream(20240817)


def binomial_sigma(p: float, n: int) -> float:
    return float(np.sqrt(max(p * (1.0 - p), 1e-300) / n))
