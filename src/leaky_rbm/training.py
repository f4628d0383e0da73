"""Contrastive-divergence training with the spectral projection step.

Gradient ascent on the log-likelihood: the positive phase uses the
analytic conditional mean of the hidden units given data (no sampling),
the negative phase approximates the model expectation with one of three
chain initializations (CD from data, leakiness annealing from the exact
Gaussian, or the mix variant annealing from data).  The annealed two run
``sampler._anneal``, the code of ``anneal_leakiness_sample`` and
``mix_sample``, for cd_steps steps, and need leaky units.  Every training
run starts at ``initial_params``.  W is projected back onto the feasible
set after every update unless disabled.

``train`` validates its data once and then runs each minibatch on raw
arrays, with one response pass: the batch's responses eta = v W + b feed
both the positive statistics and CD's first Gibbs sweep.  Both dW
products go into buffers allocated once per epoch, and the gradient,
velocity and weights are updated in place, in the order of the textbook
formulas, so the result is bit for bit that of the public phases below.
W has a velocity buffer only with momentum, and the weight-decay product
is formed only with weight decay.  Parameters are checked for finiteness
once per minibatch, before the projection, and the reconstruction error
once per epoch, so numpy's overflow warnings are silenced until then.  A
step that the projection finds past sigma_max ``projection._FAR`` has
diverged too: the clip would hide it, and it reads that sigma_max anyway.
``positive_phase`` and ``negative_phase`` run the same helpers, with every sampler.

Threads: the main thread runs the minibatch's response pass, its negative
phase, the update and the projection.  One helper thread, the worker of
an executor that ``train`` keeps for the run, may work beside it, and is
joined before ``train`` returns or raises.  It draws the epoch's Gibbs
noise, planned minibatch by minibatch after the epoch's permutation,
ahead of the sweeps (``sampler._Draws``) once it fills more than one
chunk.  When dW has more than ``_CHUNK`` entries, it also computes the
positive statistics batch^T h / n while the main thread runs the
negative phase; the main thread reads them only after the negative
statistics, so the update keeps its order and its bits.  BLAS threading
is left as the environment sets it.
"""
from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import TrainingDivergedError
from .model import (HiddenKind, RbmParams, _check_data, _require_kind, _unit_leakiness,
                    branch_slopes, response, sigmoid)
from .projection import _FAR, _clip
from .sampler import _CHUNK, _Draws, _anneal, _as_rng, _chain_blocks, _helper, _run_chains


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
    weight_decay: float = 0.0
    projection_enabled: bool = True
    seed: int = 0

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
        if not isinstance(self.neg_sampler, NegSampler):
            raise ValueError(f"unknown negative sampler {self.neg_sampler!r}")

    def config_hash(self) -> int:
        """Stable 64-bit hash of the configuration, stored in model files."""
        payload = {k: v.value if isinstance(v, enum.Enum) else v for k, v in self.__dict__.items()}
        payload["stop_recon_error"] = None  # a removed field, kept so stored hashes stay valid
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
    """Model-side expectations from the configured chain scheme.

    Raises ValueError for an annealed scheme on Bernoulli hidden units.
    """
    _check_sampler(params, config)
    rng = _as_rng(rng)
    batch = _check_data(params, batch)
    W, a, b = params.weights, params.visible_bias, params.hidden_bias
    v = _chain_ends(W, a, b, _unit_leakiness(params), batch, None, config, rng)
    return _estimate(v, expected_hidden(params, v))


def _check_sampler(params: RbmParams, config: TrainConfig) -> None:
    """Raise ValueError unless the hidden units suit the negative sampler."""
    if config.neg_sampler is not NegSampler.CD:
        _require_kind(params, HiddenKind.LEAKY_RELU, "leakiness annealing")


def _chain_ends(W, a, b, c, batch, eta, config: TrainConfig, rng) -> np.ndarray:
    """Final states of the negative-phase chains for a batch of data.

    c is the leakiness, None for Bernoulli units (CD only).  CD holds c for
    cd_steps sweeps from the batch, the first from its responses ``eta`` =
    batch W + b; leaky-anneal (from len(batch) c = 1 draws) and mix (from
    the batch) run ``sampler._anneal`` for cd_steps steps.  rng is a
    Generator or an open ``_Draws`` of a ``_chain_plan``.
    """
    if config.neg_sampler is NegSampler.CD:
        return _run_chains(W, a, b, [(c, 1.0)] * config.cd_steps, batch, rng, eta).v
    start = len(batch) if config.neg_sampler is NegSampler.LEAKY_ANNEAL else batch
    return _anneal(W, a, b, c, config.cd_steps, start, rng).v


def _chain_plan(config: TrainConfig, c, sizes, n_visible: int, n_hidden: int) -> list:
    """The ``_Draws`` plan of ``_chain_ends`` on minibatches of these sizes, in turn."""
    levels = [(c, 1.0)] * config.cd_steps  # annealed levels are leaky, and draw as these do
    base = config.neg_sampler is NegSampler.LEAKY_ANNEAL
    return [block for m in sizes for block in _chain_blocks(levels, m, n_visible, n_hidden, base)]


class _Now:
    """fn(*args), run at once, read as a ``concurrent.futures.Future`` is read."""

    def __init__(self, fn, *args):
        self._result = fn(*args)

    def result(self):
        return self._result


def initial_params(n_visible: int, n_hidden: int, rng, leakiness: float = 1.0,
                   hidden_kind: HiddenKind = HiddenKind.LEAKY_RELU) -> RbmParams:
    """A training start: W ~ U(0, 0.01), singular values clipped at 1, and zero biases.

    The clip leaves a feasible draw as it is and gives the annealed samplers'
    base I - W W^T >= 0.  Bernoulli units store leakiness 1, whatever ``leakiness`` says.
    """
    W0 = _clip(_as_rng(rng).uniform(0.0, 0.01, size=(n_visible, n_hidden)))[0]
    c = leakiness if hidden_kind is HiddenKind.LEAKY_RELU else 1.0
    return RbmParams.create(W0, leakiness=c, hidden_kind=hidden_kind)


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

    Runs all ``config.epochs`` epochs and logs each one's reconstruction
    error.  ``loglik_fn(params)``, when given, is evaluated once per epoch
    and stored in the log (only sensible for small models with an exact
    oracle).  Raises DimensionError for data of the wrong width,
    ValueError for data with no rows or an annealed sampler on Bernoulli
    units (before the first epoch), and TrainingDivergedError if
    parameters go non-finite, a step takes sigma_max of W past
    ``projection._FAR`` before the projection, or an epoch's
    reconstruction error overflows.  No thread it starts outlives it.
    """
    data = _check_data(params0, data)
    _check_sampler(params0, config)
    rng = _as_rng(config.seed)
    params = params0
    W = np.array(params0.weights)  # the weights, updated in place
    a, b, c = params0.visible_bias, params0.hidden_bias, _unit_leakiness(params0)
    # at momentum 0 the step is lr g itself, so W keeps no velocity
    vel_W = np.zeros_like(W) if config.momentum > 0 else None
    vel_b = np.zeros_like(b)
    log = TrainingLog()
    n = data.shape[0]
    starts = range(0, n, config.batch_size)
    plan = _chain_plan(config, c, [min(config.batch_size, n - start) for start in starts],
                       *W.shape)
    with _helper() as pool:  # its thread starts at the first submit
        # too little work in dW's product to pay for the handoff
        submit = pool.submit if W.size > _CHUNK else _Now
        for epoch in range(config.epochs):
            # during the epoch W is the only copy of the weights, and the
            # gradient buffers live until the reconstruction error, whose
            # temporaries take their place: both lower the peak memory
            del params
            g_W, neg_dW = np.empty_like(W), np.empty_like(W)
            order = rng.permutation(n)
            draws = _Draws(plan, rng, pool)  # the epoch's chain draws, after its permutation
            with np.errstate(over="ignore", invalid="ignore"):
                try:
                    for bi, start in enumerate(starts):
                        batch = data[order[start : start + config.batch_size]]
                        eta = batch @ W
                        eta += b
                        pos = submit(_statistics, batch, _hidden_mean(eta, c), g_W)
                        v = _chain_ends(W, a, b, c, batch, eta, config, draws)
                        eta = v @ W
                        eta += b
                        neg_db = _statistics(v, _hidden_mean(eta, c, out=eta), out=neg_dW)[1]
                        pos_db = pos.result()[1]
                        # in place, in this order: g = pos - neg - wd W; vel = m vel + lr g;
                        # W = W + vel.  A zero weight decay or momentum skips its
                        # product, which could change only the sign of an exact zero.
                        g_W -= neg_dW
                        if config.weight_decay > 0:
                            g_W -= np.multiply(W, config.weight_decay, out=neg_dW)
                        g_W *= config.learning_rate
                        if vel_W is not None:
                            vel_W *= config.momentum
                            vel_W += g_W
                        vel_b = config.momentum * vel_b + config.learning_rate * (pos_db - neg_db)
                        W += g_W if vel_W is None else vel_W
                        b = b + vel_b
                        if not (np.isfinite(W).all() and np.isfinite(b).all()):
                            raise TrainingDivergedError(epoch, bi)
                        if config.projection_enabled:
                            W, report = _clip(W)
                            # the clip reads sigma_max anyway; this far out the step has
                            # lost its digits, and the clip would hide the blow-up
                            if report.clipped_count and report.max_singular_value_before > _FAR:
                                raise TrainingDivergedError(
                                    epoch, bi, report.max_singular_value_before)
                finally:
                    draws.close()
                del g_W, neg_dW
                params = params0.with_(weights=W, hidden_bias=b)
                # finite weights can still overflow the reconstruction
                recon = reconstruction_error(params, data)
            if not np.isfinite(recon):
                raise TrainingDivergedError(epoch)
            record = EpochRecord(epoch=epoch, recon_error=recon)
            if loglik_fn is not None:
                record.log_likelihood = float(loglik_fn(params))
            log.epochs.append(record)
    return params, log
