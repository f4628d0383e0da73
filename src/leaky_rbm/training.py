"""Contrastive-divergence training with the spectral projection step.

Gradient ascent on the log-likelihood: the positive phase uses the
analytic conditional mean of the hidden units given data (no sampling),
the negative phase approximates the model expectation with one of three
chain initializations (CD from data, leakiness annealing from the exact
Gaussian, or the mix variant annealing from data).  W is projected back
onto the feasible set after every update unless disabled.

``train`` validates its data once and then runs each minibatch on raw
arrays, with one response pass: the batch's responses eta = v W + b feed
both the positive statistics and CD's first Gibbs sweep.  Both dW
products go into preallocated buffers, and the gradient, velocity and
weights are updated in place, in the order of the textbook formulas, so
the result is bit for bit that of the public phases below.  The new
parameters are checked for finiteness once per minibatch, before the
projection.  ``positive_phase`` and ``negative_phase`` run the same
helpers, with every sampler.
"""
from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import astuple, dataclass, field

import numpy as np

from .errors import TrainingDivergedError
from .model import RbmParams, _check_data, _unit_leakiness, branch_slopes, response, sigmoid
from .projection import _clip
from .sampler import (
    AnnealSchedule,
    _as_rng,
    _draw_base,
    _gaussian_base,
    _run_annealed,
    _sweep,
)


class NegSampler(enum.Enum):
    CD = "cd"
    LEAKY_ANNEAL = "leaky-anneal"
    MIX = "mix"


@dataclass(frozen=True)
class TrainConfig:
    cd_steps: int = 1
    learning_rate: float = 1e-2
    momentum: float = 0.0
    batch_size: int = 100
    epochs: int = 10
    neg_sampler: NegSampler = NegSampler.CD
    anneal: AnnealSchedule | None = None
    weight_decay: float = 0.0
    projection_enabled: bool = True
    seed: int = 0
    stop_recon_error: float | None = None

    def __post_init__(self):
        # negated comparisons so that NaN fails them too
        if not 0 < self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.cd_steps < 1:
            raise ValueError("cd_steps must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if not 0 <= self.weight_decay < np.inf:
            raise ValueError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if not self.seed >= 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.stop_recon_error is not None and not self.stop_recon_error > 0:
            raise ValueError(f"stop_recon_error must be > 0, got {self.stop_recon_error}")
        if not isinstance(self.neg_sampler, NegSampler):
            raise ValueError(f"unknown negative sampler {self.neg_sampler!r}")

    def config_hash(self) -> int:
        """Stable 64-bit hash of the configuration, stored in model files."""
        payload = {
            k: (v.value if isinstance(v, enum.Enum) else v)
            for k, v in self.__dict__.items()
            if k != "anneal"
        }
        if self.anneal is not None:
            payload["anneal"] = astuple(self.anneal)
        blob = json.dumps(payload, sort_keys=True).encode()
        return int.from_bytes(hashlib.sha256(blob).digest()[:8], "little")


@dataclass
class GradientEstimate:
    dW: np.ndarray
    da: np.ndarray
    db: np.ndarray


@dataclass
class EpochRecord:
    epoch: int
    recon_error: float
    log_likelihood: float | None = None


@dataclass
class TrainingLog:
    epochs: list[EpochRecord] = field(default_factory=list)


def _hidden_mean(eta: np.ndarray, c: float | None, out=None) -> np.ndarray:
    """E[h | v] from the responses eta = v W + b.

    Leaky units of leakiness c, or Bernoulli units when c is None.  The
    leaky mean is written into ``out`` when given, which may be eta.
    """
    if c is None:
        return sigmoid(eta)
    return np.multiply(branch_slopes(eta, c), eta, out=out)


def expected_hidden(params: RbmParams, v) -> np.ndarray:
    """Conditional mean of the hidden units given v, for either kind."""
    return _hidden_mean(response(params, v), _unit_leakiness(params))


def _statistics(v: np.ndarray, h_mean: np.ndarray, out=None):
    """(v^T h_mean / n, column means of h_mean): a phase's dW and db.

    dW is written into ``out`` when given.
    """
    dW = np.matmul(v.T, h_mean, out=out)
    dW /= v.shape[0]
    return dW, h_mean.mean(axis=0)


def _estimate(v: np.ndarray, h_mean: np.ndarray) -> GradientEstimate:
    dW, db = _statistics(v, h_mean)
    return GradientEstimate(dW=dW, da=v.mean(axis=0), db=db)


def positive_phase(params: RbmParams, batch) -> GradientEstimate:
    """Data-side expectations, Rao-Blackwellized over the hidden units."""
    batch = _check_data(params, batch)
    return _estimate(batch, expected_hidden(params, batch))


def negative_phase(
    params: RbmParams, batch, config: TrainConfig, rng
) -> GradientEstimate:
    """Model-side expectations from the configured chain scheme."""
    rng = _as_rng(rng)
    batch = _check_data(params, batch)
    W, a, b = params.weights, params.visible_bias, params.hidden_bias
    eta = batch @ W + b if config.neg_sampler is NegSampler.CD else None
    v = _chain_ends(W, a, b, _unit_leakiness(params), batch, eta, config, rng)
    return _estimate(v, expected_hidden(params, v))


def _chain_ends(W, a, b, c, batch, eta, config: TrainConfig, rng) -> np.ndarray:
    """Final states of the negative-phase chains for a batch of data.

    c is the leakiness, None for Bernoulli units.  CD starts at the batch
    and its first sweep takes the batch's responses ``eta`` = batch W + b,
    which the annealed schemes do not read.
    """
    if config.neg_sampler is NegSampler.CD:
        v, _h = _sweep(eta, W, a, c, rng)
        for _ in range(config.cd_steps - 1):
            v, _h = _sweep(v @ W + b, W, a, c, rng)
        return v
    if c is None:
        raise ValueError("leakiness annealing requires leaky hidden units")
    schedule = config.anneal
    if schedule is None:
        schedule = AnnealSchedule(c_target=c, total_steps=config.cd_steps)
    v = batch
    if config.neg_sampler is NegSampler.LEAKY_ANNEAL:
        _, mean, chol_prec, _ = _gaussian_base(W, a, b)
        v = _draw_base(mean, chol_prec, len(batch), rng)
    return _run_annealed(W, a, b, schedule, v, rng).v


def reconstruction_error(params: RbmParams, batch) -> float:
    """Mean squared error of the one-step conditional-mean reconstruction.

    Logged for monitoring only; not a likelihood surrogate.  Summed over
    blocks of 1024 rows, so its temporaries stay small on large data, and
    each block reuses its two temporaries.
    """
    batch = _check_data(params, batch)
    W, a, b = params.weights, params.visible_bias, params.hidden_bias
    c = _unit_leakiness(params)
    total = 0.0
    for x in np.split(batch, range(1024, len(batch), 1024)):
        h = x @ W
        h += b
        h = _hidden_mean(h, c, out=h)
        r = h @ W.T  # the reconstruction a + W h, then x minus it, squared
        r += a
        np.subtract(x, r, out=r)
        total += np.sum(np.square(r, out=r))
    return float(total / batch.size)


def train(
    params0: RbmParams,
    data,
    config: TrainConfig,
    loglik_fn=None,
) -> tuple[RbmParams, TrainingLog]:
    """Mini-batch CD training with momentum and optional projection.

    ``loglik_fn(params)``, when given, is evaluated once per epoch and
    stored in the log (only sensible for small models with an exact
    oracle).  Raises DimensionError for data of the wrong width,
    ValueError for data with no rows, and TrainingDivergedError if
    parameters go non-finite, which is the expected failure of
    unprojected training.
    """
    data = _check_data(params0, data)
    rng = _as_rng(config.seed)
    params = params0
    W = np.array(params0.weights)  # the weights, updated in place
    a, b, c = params0.visible_bias, params0.hidden_bias, _unit_leakiness(params0)
    vel_W = np.zeros_like(W)
    vel_b = np.zeros_like(b)
    g_W, neg_dW = np.empty_like(W), np.empty_like(W)
    log = TrainingLog()
    n = data.shape[0]
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        for bi, start in enumerate(range(0, n, config.batch_size)):
            batch = data[order[start : start + config.batch_size]]
            eta = batch @ W
            eta += b
            _, pos_db = _statistics(batch, _hidden_mean(eta, c), out=g_W)
            v = _chain_ends(W, a, b, c, batch, eta, config, rng)
            eta = v @ W
            eta += b
            _, neg_db = _statistics(v, _hidden_mean(eta, c, out=eta), out=neg_dW)
            # in place, in this order: g = pos - neg - wd W; vel = m vel + lr g;
            # W = W + vel
            g_W -= neg_dW
            g_W -= np.multiply(W, config.weight_decay, out=neg_dW)
            vel_W *= config.momentum
            g_W *= config.learning_rate
            vel_W += g_W
            vel_b = config.momentum * vel_b + config.learning_rate * (pos_db - neg_db)
            W += vel_W
            b = b + vel_b
            if not (np.isfinite(W).all() and np.isfinite(b).all()):
                raise TrainingDivergedError(epoch, bi)
            if config.projection_enabled:
                W = _clip(W)[0]
        params = params0.with_(weights=W, hidden_bias=b)
        recon = reconstruction_error(params, data)
        record = EpochRecord(epoch=epoch, recon_error=recon)
        if loglik_fn is not None:
            record.log_likelihood = float(loglik_fn(params))
        log.epochs.append(record)
        if config.stop_recon_error is not None and recon < config.stop_recon_error:
            break
    return params, log
