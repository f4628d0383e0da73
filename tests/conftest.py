import threading

import numpy as np
import pytest

from leaky_rbm import RbmParams
from leaky_rbm.experiments import random_orthogonal_params
from leaky_rbm.sampler import make_rng


def random_safe_params(
    rng: np.random.Generator,
    n_visible: int = 2,
    n_hidden: int = 2,
    leakiness: float = 0.1,
    max_norm: float = 0.9,
    with_bias: bool = True,
) -> RbmParams:
    """Random model with sigma_max scaled below the constraint boundary."""
    W = rng.uniform(-1.0, 1.0, size=(n_visible, n_hidden))
    smax = np.linalg.svd(W, compute_uv=False)[0]
    if smax > 0:
        W *= rng.uniform(0.3, max_norm) / smax
    b = rng.uniform(-0.8, 0.8, size=n_hidden) if with_bias else None
    return RbmParams.create(W, hidden_bias=b, leakiness=leakiness)


def random_orthogonal(
    rng: np.random.Generator,
    n_visible: int,
    n_hidden: int,
    leakiness: float,
    lo: float = 0.3,
    hi: float = 0.95,
) -> RbmParams:
    return random_orthogonal_params(n_visible, n_hidden, leakiness, rng, norm_range=(lo, hi))


@pytest.fixture
def rng():
    return make_rng(1234)


@pytest.fixture
def threads_started(monkeypatch):
    """The threads started while the test runs, each with the name of its job."""
    started, Thread = [], threading.Thread

    class Spy(Thread):
        def start(self):
            self.job = self._target.__name__  # a finished thread forgets its target
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Spy)
    return started
