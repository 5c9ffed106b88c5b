import signal

import numpy as np
import pytest

from oracles import GronwallPathBundle


def make_random_bundle(rng, horizon, with_slack=False):
    """Random bundle satisfying the recursion hypothesis.

    F is bounded below so that a bounded-increment martingale keeps
    F_n + M_n nonnegative; X is built by equality (optionally minus a
    nonnegative slack, clipped at zero, which preserves the hypothesis).
    """
    n = horizon
    f_min = rng.uniform(0.5, 5.0)
    f = f_min + rng.uniform(0.0, 5.0, n + 1)
    g = rng.uniform(0.0, 0.5, n + 1)
    inc_cap = f_min / max(n, 1)
    m = np.zeros(n + 1)
    m[1:] = np.cumsum(rng.uniform(-inc_cap, inc_cap, n))
    x = np.empty(n + 1)
    acc = 0.0
    for k in range(n + 1):
        rhs = f[k] + m[k] + acc
        slack = rng.uniform(0.0, 1.0) if with_slack else 0.0
        x[k] = max(0.0, rhs - slack)
        acc += g[k] * x[k] if k < n else 0.0
    return GronwallPathBundle(x, f, g, m)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def deadline():
    """Raises TimeoutError in the test after 60 s, so that a wait on a
    pool child that never ends fails the test instead of hanging it."""
    def expire(signum, frame):
        raise TimeoutError("the test ran for 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
