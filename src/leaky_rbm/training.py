"""Contrastive-divergence training with the spectral projection step.

Gradient ascent on the log-likelihood: the positive phase uses the
analytic conditional mean of the hidden units given data (no sampling),
the negative phase approximates the model expectation with one of three
chain initializations (CD from data, leakiness annealing from the exact
Gaussian, or the mix variant annealing from data).  W is projected back
onto the feasible set after every update unless disabled.
"""
from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import TrainingDivergedError
from .model import (
    HiddenKind,
    RbmParams,
    bernoulli_hidden_conditional,
    hidden_conditional,
    visible_conditional,
)
from .projection import project_spectral
from .sampler import AnnealSchedule, _as_rng, gibbs_step, mix_sample, anneal_leakiness_sample


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
        if not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.cd_steps < 1:
            raise ValueError("cd_steps must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if not self.weight_decay >= 0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")

    def config_hash(self) -> int:
        """Stable 64-bit hash of the configuration, stored in model files."""
        payload = {
            k: (v.value if isinstance(v, enum.Enum) else v)
            for k, v in self.__dict__.items()
            if k != "anneal"
        }
        if self.anneal is not None:
            payload["anneal"] = [
                self.anneal.c_target,
                self.anneal.total_steps,
                self.anneal.c_start,
                self.anneal.epsilon,
            ]
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


def expected_hidden(params: RbmParams, v) -> np.ndarray:
    """Conditional mean of the hidden units given v, for either kind."""
    if params.hidden_kind is HiddenKind.BERNOULLI:
        return bernoulli_hidden_conditional(params, v)
    mean, _var = hidden_conditional(params, v)
    return mean


def _phase_from_states(params: RbmParams, v: np.ndarray) -> GradientEstimate:
    v = np.atleast_2d(np.asarray(v, dtype=np.float64))
    h_mean = expected_hidden(params, v)
    n = v.shape[0]
    return GradientEstimate(
        dW=v.T @ h_mean / n,
        da=v.mean(axis=0),
        db=h_mean.mean(axis=0),
    )


def positive_phase(params: RbmParams, batch) -> GradientEstimate:
    """Data-side expectations, Rao-Blackwellized over the hidden units."""
    batch = np.atleast_2d(np.asarray(batch, dtype=np.float64))
    if batch.shape[0] == 0:
        raise ValueError("batch must be nonempty")
    return _phase_from_states(params, batch)


def negative_phase(
    params: RbmParams, batch, config: TrainConfig, rng
) -> GradientEstimate:
    """Model-side expectations from the configured chain scheme."""
    rng = _as_rng(rng)
    v = np.atleast_2d(np.asarray(batch, dtype=np.float64))
    if config.neg_sampler is NegSampler.CD:
        for _ in range(config.cd_steps):
            v, _h = gibbs_step(params, v, rng)
    elif config.neg_sampler is NegSampler.LEAKY_ANNEAL:
        v = anneal_leakiness_sample(params, _schedule_for(params, config), len(v), rng).v
    elif config.neg_sampler is NegSampler.MIX:
        v = mix_sample(params, v, _schedule_for(params, config), rng).v
    else:
        raise ValueError(f"unknown negative sampler {config.neg_sampler}")
    return _phase_from_states(params, v)


def _schedule_for(params: RbmParams, config: TrainConfig) -> AnnealSchedule:
    if config.anneal is not None:
        return config.anneal
    return AnnealSchedule(c_target=params.leakiness, total_steps=config.cd_steps)


def reconstruction_error(params: RbmParams, batch) -> float:
    """Mean squared error of the one-step conditional-mean reconstruction.

    Logged for monitoring only; not a likelihood surrogate.  Summed over
    blocks of 1024 rows, so its temporaries stay small on large data.
    """
    batch = np.atleast_2d(np.asarray(batch, dtype=np.float64))
    blocks = np.split(batch, range(1024, len(batch), 1024))
    recon = lambda x: visible_conditional(params, expected_hidden(params, x))
    return float(sum(np.sum((x - recon(x)) ** 2) for x in blocks) / batch.size)


def train(
    params0: RbmParams,
    data,
    config: TrainConfig,
    loglik_fn=None,
) -> tuple[RbmParams, TrainingLog]:
    """Mini-batch CD training with momentum and optional projection.

    ``loglik_fn(params)``, when given, is evaluated once per epoch and
    stored in the log (only sensible for small models with an exact
    oracle).  Raises TrainingDivergedError if parameters go non-finite,
    which is the expected failure of unprojected training.
    """
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    rng = _as_rng(config.seed)
    params = params0
    vel_W = np.zeros_like(params.weights)
    vel_b = np.zeros_like(params.hidden_bias)
    log = TrainingLog()
    n = data.shape[0]
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        for bi, start in enumerate(range(0, n, config.batch_size)):
            batch = data[order[start : start + config.batch_size]]
            pos = positive_phase(params, batch)
            neg = negative_phase(params, batch, config, rng)
            g_W = pos.dW - neg.dW - config.weight_decay * params.weights
            g_b = pos.db - neg.db
            vel_W = config.momentum * vel_W + config.learning_rate * g_W
            vel_b = config.momentum * vel_b + config.learning_rate * g_b
            new_W = params.weights + vel_W
            new_b = params.hidden_bias + vel_b
            if not (np.isfinite(new_W).all() and np.isfinite(new_b).all()):
                raise TrainingDivergedError(epoch, bi)
            if config.projection_enabled:
                new_W = project_spectral(new_W)[0]
            params = params.with_(weights=new_W, hidden_bias=new_b)
        recon = reconstruction_error(params, data)
        record = EpochRecord(epoch=epoch, recon_error=recon)
        if loglik_fn is not None:
            record.log_likelihood = float(loglik_fn(params))
        log.epochs.append(record)
        if config.stop_recon_error is not None and recon < config.stop_recon_error:
            break
    return params, log
