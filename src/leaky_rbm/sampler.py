"""Gibbs sampling and the leakiness-annealing meta-sampler.

Chains are stored as row-stacked arrays and updated in lock-step, so one
pass over a ChainSet is a couple of matrix products.  All randomness
comes from a caller-supplied numpy Generator (or a seed), which makes
every sampler deterministic given its inputs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .errors import NonPDRegionError
from .model import (HiddenKind, RbmParams, _check_data, _require_kind, _unit_leakiness,
                    branch_slopes, sigmoid)
from .projection import max_singular_value, safety_from_max_singular_value

# Shrink applied to W when its top singular value is within this margin of
# 1, so the c = 1 covariance stays invertible for the exact base draw.
_BASE_SHRINK_MARGIN = 1e-6
LOG_2PI = math.log(2.0 * math.pi)


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
        elif not self.epsilon >= 0:  # negated so that NaN fails it too
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon}")

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


def _gaussian_closed_form(W, a, b) -> tuple[np.ndarray, np.ndarray, float]:
    """The leakiness-1 marginal of (W, a, b) in closed form: (mean, L, log Z).

    The marginal is exp(-v^T Omega v / 2 + r^T v - ||a||^2/2 + ||b||^2/2)
    with Omega = I - W W^T = L L^T and r = a + W b, so it is N(mean,
    Omega^-1) with Omega mean = r, and log Z = I log(2 pi) / 2 - sum_i
    log L_ii + (r^T mean - ||a||^2 + ||b||^2) / 2.  Raises NonPDRegionError
    unless Omega is positive definite.
    """
    omega = np.eye(W.shape[0]) - W @ W.T
    try:
        chol_prec = np.linalg.cholesky(omega)
    except np.linalg.LinAlgError:
        raise NonPDRegionError(float(np.linalg.eigvalsh(omega)[0])) from None
    r = a + W @ b
    mean = np.linalg.solve(omega, r)
    log_z = (
        0.5 * W.shape[0] * LOG_2PI
        - float(np.log(np.diagonal(chol_prec)).sum())
        + 0.5 * (float(r @ mean) - float(a @ a) + float(b @ b))
    )
    return mean, chol_prec, log_z


def _gaussian_base(W, a, b) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """The exact c = 1 base Gaussian of the model (W, a, b): (W', mean, L, log Z).

    From one sigma_max of W: raises NonPDRegionError unless I - W W^T >= 0,
    and W' is W rescaled to sigma_max = 1 - _BASE_SHRINK_MARGIN when it is
    within that margin of 1, else W itself.  The base is the leakiness-1
    marginal of (W', a, b), from ``_gaussian_closed_form``.
    """
    smax = max_singular_value(W)
    safe, min_eig = safety_from_max_singular_value(smax)
    if not safe:
        raise NonPDRegionError(min_eig, "base Gaussian requires I - WW^T >= 0")
    if smax > 1.0 - _BASE_SHRINK_MARGIN:
        W = W * ((1.0 - _BASE_SHRINK_MARGIN) / smax)
    return (W, *_gaussian_closed_form(W, a, b))


def _draw_base(mean, chol_prec, n: int, rng) -> np.ndarray:
    """n draws mean + L^-T z, z standard normal, of shape (n, I)."""
    z = rng.standard_normal((n, mean.size))
    return mean + solve_triangular(chol_prec.T, z.T, lower=False).T


def gaussian_base_moments(params: RbmParams) -> tuple[np.ndarray, np.ndarray]:
    """Mean and precision Cholesky factor of the exact c = 1 Gaussian."""
    return _gaussian_base(params.weights, params.visible_bias, params.hidden_bias)[1:3]


def sample_gaussian_base(params: RbmParams, n: int, rng) -> np.ndarray:
    """i.i.d. draws from the exact leakiness-1 Gaussian, shape (n, I)."""
    return _draw_base(*gaussian_base_moments(params), n, _as_rng(rng))


def gibbs_step(params: RbmParams, v: np.ndarray, rng) -> tuple[np.ndarray, np.ndarray]:
    """One full sweep: sample h | v, then v | h, for a batch of chains.

    v is one row or (n, I) rows, checked like ``train``'s data.  Returns (v', h').
    """
    rng = _as_rng(rng)
    v = _check_data(params, v)
    eta = v @ params.weights + params.hidden_bias
    return _sweep(eta, params.weights, params.visible_bias, _unit_leakiness(params), rng)


def _sweep(eta, W, a, c, rng) -> tuple[np.ndarray, np.ndarray]:
    """The Gibbs sweep on raw arrays, from the responses eta = v W + b.

    Draws h | v for leaky units of leakiness c, or Bernoulli units when c
    is None, then v | h ~ N(a + W h, I).  Returns (v', h).
    """
    if c is None:
        h = (rng.random(eta.shape) < sigmoid(eta)).astype(np.float64)
    else:
        alpha = branch_slopes(eta, c)
        h = alpha * eta + np.sqrt(alpha) * rng.standard_normal(eta.shape)
    v_mean = h @ W.T + a
    return v_mean + rng.standard_normal(v_mean.shape), h


def anneal_leakiness_sample(
    params: RbmParams, schedule: AnnealSchedule, n_chains: int, rng
) -> ChainSet:
    """Sample by annealing leakiness from 1 down to the target.

    Chains start at exact draws from the c = 1 Gaussian; each step lowers
    the leakiness per the schedule and runs one Gibbs sweep.  Raises
    ValueError for Bernoulli hidden units, which have no leakiness.
    """
    _require_kind(params, HiddenKind.LEAKY_RELU, "leakiness annealing")
    rng = _as_rng(rng)
    v = sample_gaussian_base(params, n_chains, rng)
    return _run_annealed(params.weights, params.visible_bias, params.hidden_bias, schedule, v, rng)


def mix_sample(
    params: RbmParams,
    data_batch: np.ndarray,
    schedule: AnnealSchedule,
    rng,
    n_chains: int | None = None,
) -> ChainSet:
    """Annealed sampling with chains initialized at empirical data rows.

    Skips the Gaussian factorization entirely; rows are drawn uniformly
    with replacement when n_chains differs from the batch size; a 1-D
    batch is one row.  Raises ValueError for Bernoulli hidden units, which
    have no leakiness.
    """
    _require_kind(params, HiddenKind.LEAKY_RELU, "leakiness annealing")
    rng = _as_rng(rng)
    data_batch = _check_data(params, data_batch)
    if n_chains is None or n_chains == data_batch.shape[0]:
        v = data_batch.copy()
    else:
        idx = rng.integers(data_batch.shape[0], size=n_chains)
        v = data_batch[idx]
    return _run_annealed(params.weights, params.visible_bias, params.hidden_bias, schedule, v, rng)


def _run_annealed(W, a, b, schedule, v, rng) -> ChainSet:
    """Leaky Gibbs sweeps from v, one per leakiness of the schedule; v is not written."""
    h = np.zeros((v.shape[0], W.shape[1]))
    for c_t in schedule.leakiness_sequence().tolist():
        v, h = _sweep(v @ W + b, W, a, c_t, rng)
    return ChainSet(v=v, h=h)
