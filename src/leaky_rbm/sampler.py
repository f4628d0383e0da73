"""Gibbs sampling and the leakiness-annealing meta-sampler.

Chains are stored as row-stacked arrays and updated in lock-step, so one
pass over a ChainSet is a couple of matrix products.  All randomness
comes from a caller-supplied numpy Generator (or a seed), which makes
every sampler deterministic given its inputs.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionError, NonPDRegionError
from .model import HiddenKind, RbmParams, bernoulli_hidden_conditional, hidden_conditional
from .projection import safety_from_max_singular_value

# Shrink applied to W when its top singular value is within this margin of
# 1, so the c = 1 covariance stays invertible for the exact base draw.
_BASE_SHRINK_MARGIN = 1e-6


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Derive an independent generator from (seed, stream)."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(stream)]))


def _as_rng(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return make_rng(int(rng))


@dataclass(frozen=True)
class AnnealSchedule:
    """Leakiness schedule: decrement by epsilon per step, clamp at target.

    The default epsilon finishes the anneal within the first 90% of steps,
    leaving the tail at the target leakiness.
    """

    c_target: float
    total_steps: int
    c_start: float = 1.0
    epsilon: float | None = None

    def __post_init__(self):
        if not (0.0 < self.c_target <= self.c_start <= 1.0):
            raise ValueError("need 0 < c_target <= c_start <= 1")
        if self.total_steps < 0:
            raise ValueError("total_steps must be non-negative")
        if self.epsilon is None:
            span = self.c_start - self.c_target
            if span == 0.0 or self.total_steps == 0:
                eps = 0.0
            else:
                eps = span / (0.9 * self.total_steps)
            object.__setattr__(self, "epsilon", eps)
        elif self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")

    def leakiness_sequence(self) -> np.ndarray:
        """The leakiness used at each of the total_steps Gibbs sweeps."""
        out = np.empty(self.total_steps)
        c = self.c_start
        for t in range(self.total_steps):
            if c > self.c_target:
                c = max(c - self.epsilon, self.c_target)
            out[t] = c
        return out


@dataclass
class ChainSet:
    """A batch of Gibbs chains advanced in lock-step."""

    v: np.ndarray  # (n_chains, I)
    h: np.ndarray  # (n_chains, J)


def gaussian_base_params(params: RbmParams) -> RbmParams:
    """The model whose leakiness-1 marginal the base Gaussian is.

    Raises NonPDRegionError unless I - W W^T >= 0.  When the top singular
    value of W is within _BASE_SHRINK_MARGIN of 1, W is rescaled so that
    it is 1 - _BASE_SHRINK_MARGIN; otherwise the model comes back as given.
    """
    smax = params.max_singular_value()
    safe, min_eig = safety_from_max_singular_value(smax)
    if not safe:
        raise NonPDRegionError(min_eig, "base Gaussian requires I - WW^T >= 0")
    if smax > 1.0 - _BASE_SHRINK_MARGIN:
        return params.with_(weights=params.weights * ((1.0 - _BASE_SHRINK_MARGIN) / smax))
    return params


def gaussian_base_moments(params: RbmParams) -> tuple[np.ndarray, np.ndarray]:
    """Mean and precision Cholesky factor of the exact c = 1 Gaussian.

    The marginal at leakiness 1 is N(mu, Omega^-1) with Omega = I - W W^T
    and Omega mu = a + W b, for the W of ``gaussian_base_params``.
    """
    W = gaussian_base_params(params).weights
    omega = np.eye(params.n_visible) - W @ W.T
    try:
        chol_prec = np.linalg.cholesky(omega)
    except np.linalg.LinAlgError:
        raise NonPDRegionError(
            float(np.linalg.eigvalsh(omega)[0]),
            "c = 1 covariance not positive definite after shrink",
        ) from None
    mean = np.linalg.solve(omega, params.visible_bias + W @ params.hidden_bias)
    return mean, chol_prec


def sample_gaussian_base(params: RbmParams, n: int, rng) -> np.ndarray:
    """i.i.d. draws from the exact leakiness-1 Gaussian, shape (n, I).

    Uses the precision Cholesky factor L (Omega = L L^T): a standard
    normal z maps to mu + L^-T z.
    """
    rng = _as_rng(rng)
    mean, chol_prec = gaussian_base_moments(params)
    z = rng.standard_normal((n, params.n_visible))
    # solve L^T x = z for each row
    x = np.linalg.solve(chol_prec.T, z.T).T
    return mean + x


def gibbs_step(
    params: RbmParams,
    v: np.ndarray,
    rng,
    leakiness: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One full sweep: sample h | v, then v | h, for a batch of chains.

    Returns (v', h').  ``leakiness`` overrides the model's c for this
    sweep (the annealing samplers use this).
    """
    rng = _as_rng(rng)
    v = np.asarray(v, dtype=np.float64)
    if v.ndim == 1:
        v = v[None, :]
    if v.shape[1] != params.n_visible:
        raise DimensionError("chain state dimension does not match model")
    if params.hidden_kind is HiddenKind.BERNOULLI:
        p = bernoulli_hidden_conditional(params, v)
        h = (rng.random(p.shape) < p).astype(np.float64)
    else:
        sweep_params = params if leakiness is None else params.with_(leakiness=leakiness)
        mean, var = hidden_conditional(sweep_params, v)
        h = mean + np.sqrt(var) * rng.standard_normal(mean.shape)
    v_mean = h @ params.weights.T + params.visible_bias
    v_new = v_mean + rng.standard_normal(v_mean.shape)
    return v_new, h


StepCallback = Callable[[int, float, np.ndarray], None]


def anneal_leakiness_sample(
    params: RbmParams,
    schedule: AnnealSchedule,
    n_chains: int,
    rng,
    callback: StepCallback | None = None,
) -> ChainSet:
    """Sample by annealing leakiness from 1 down to the target.

    Chains start at exact draws from the c = 1 Gaussian; each step lowers
    the leakiness per the schedule and runs one Gibbs sweep.  The callback
    (step index, leakiness about to be used, current v) fires before each
    sweep, which is where importance-weight accumulation hooks in.
    """
    rng = _as_rng(rng)
    v = sample_gaussian_base(params, n_chains, rng)
    h = np.zeros((n_chains, params.n_hidden))
    return _run_annealed(params, schedule, v, h, rng, callback)


def mix_sample(
    params: RbmParams,
    data_batch: np.ndarray,
    schedule: AnnealSchedule,
    rng,
    n_chains: int | None = None,
) -> ChainSet:
    """Annealed sampling with chains initialized at empirical data rows.

    Skips the Gaussian factorization entirely; rows are drawn uniformly
    with replacement when n_chains differs from the batch size.
    """
    rng = _as_rng(rng)
    data_batch = np.asarray(data_batch, dtype=np.float64)
    if data_batch.ndim != 2 or data_batch.shape[0] == 0:
        raise ValueError("data_batch must be a nonempty 2-D array")
    if data_batch.shape[1] != params.n_visible:
        raise DimensionError("data dimension does not match model")
    if n_chains is None or n_chains == data_batch.shape[0]:
        v = data_batch.copy()
    else:
        idx = rng.integers(data_batch.shape[0], size=n_chains)
        v = data_batch[idx]
    h = np.zeros((v.shape[0], params.n_hidden))
    return _run_annealed(params, schedule, v, h, rng, None)


def _run_annealed(params, schedule, v, h, rng, callback) -> ChainSet:
    for t, c_t in enumerate(schedule.leakiness_sequence()):
        if callback is not None:
            callback(t, float(c_t), v)
        v, h = gibbs_step(params, v, rng, leakiness=float(c_t))
    return ChainSet(v=v, h=h)
