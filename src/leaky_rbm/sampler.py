"""Gibbs sampling and the leakiness-annealing meta-sampler.

Chains are stored as row-stacked arrays and updated in lock-step, so one
pass over a ChainSet is a couple of matrix products.  Every Gibbs sweep
runs on ``_run_chains``: ``gibbs_step``'s single one, CD's in ``training``
and AIS's in ``partition`` too.  The annealed chains, those of
``anneal_leakiness_sample``, ``mix_sample`` and training's annealed
negative phases, all run on ``_anneal``, the one place that turns an
``AnnealSchedule`` into levels; callers give only a step count, and every
chain ends at its model's own leakiness.  All randomness comes from a
caller-supplied numpy Generator (or a seed), which makes every sampler
deterministic given its inputs.

A ``_run_chains`` run whose draws fill more than one chunk (``_Draws``)
makes them on the one worker of a ``concurrent.futures`` executor, a few
chunks ahead of the sweeps, while the main thread does the arithmetic and
leaves the generator alone.  The worker makes the generator calls the
sweeps would make, in their order, so every output keeps its bits and the
generator ends in the same state.  Training plans a whole epoch's draws in
one ``_Draws`` on the executor it keeps for the run, and passes it to each
minibatch's chains in place of the generator.  BLAS threading is left as
the environment sets it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonPDRegionError
from .model import (HiddenKind, RbmParams, _check_data, _require_kind, _unit_leakiness,
                    branch_slopes, sigmoid)
from .projection import max_singular_value, safety_from_max_singular_value

# Shrink applied to W when its top singular value is within this margin of
# 1, so the c = 1 covariance stays invertible for the exact base draw.
_BASE_SHRINK_MARGIN = 1e-6
LOG_2PI = math.log(2.0 * math.pi)
# The draws of a long chain run are made ahead of its sweeps into a ring of
# _RING buffers, each of a chunk: whole blocks of draws, at most _CHUNK
# doubles (0.5 MB) or twice the largest block.
_RING = 3
_CHUNK = 1 << 16


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Derive an independent generator from (seed, stream)."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(stream)]))


def _as_rng(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return make_rng(int(rng))


@dataclass(frozen=True)
class AnnealSchedule:
    """Leakiness schedule from c = 1: decrement per step, clamp at the target.

    The decrement, (1 - c_target) / (0.9 total_steps), finishes the anneal
    within the first 90% of steps, leaving the tail at the target leakiness.
    """

    c_target: float
    total_steps: int

    def __post_init__(self):
        if not 0.0 < self.c_target <= 1.0:  # negated so that NaN fails it too
            raise ValueError("need 0 < c_target <= 1")
        if self.total_steps < 0:
            raise ValueError("total_steps must be non-negative")

    def leakiness_sequence(self) -> np.ndarray:
        """The leakiness used at each of the total_steps Gibbs sweeps."""
        out = np.empty(self.total_steps)
        c = 1.0
        for t in range(self.total_steps):
            if c > self.c_target:
                c = max(c - (1.0 - self.c_target) / (0.9 * self.total_steps), self.c_target)
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
    """n draws mean + L^-T z, z standard normal, of shape (n, I).

    L^T is upper triangular, so the LU inside numpy's general solve
    pivots nothing and the solve is a triangular one; it needs no scipy.
    """
    z = rng.standard_normal((n, mean.size))
    return mean + np.linalg.solve(chol_prec.T, z.T).T


def gaussian_base_moments(params: RbmParams) -> tuple[np.ndarray, np.ndarray]:
    """Mean and precision Cholesky factor of the exact c = 1 Gaussian."""
    return _gaussian_base(params.weights, params.visible_bias, params.hidden_bias)[1:3]


def sample_gaussian_base(params: RbmParams, n: int, rng) -> np.ndarray:
    """i.i.d. draws from the exact leakiness-1 Gaussian, shape (n, I)."""
    return _draw_base(*gaussian_base_moments(params), n, _as_rng(rng))


def gibbs_step(params: RbmParams, v: np.ndarray, rng) -> tuple[np.ndarray, np.ndarray]:
    """One full sweep: sample h | v, then v | h, for a batch of chains.

    v is one row or (n, I) rows, checked like ``train``'s data.  Returns (v', h'):
    one level of ``_run_chains``, the model at its own leakiness.
    """
    chains = _run_chains(params.weights, params.visible_bias, params.hidden_bias,
                         [(_unit_leakiness(params), 1.0)], _check_data(params, v), _as_rng(rng))
    return chains.v, chains.h


def _sweep(eta, W_t, a, c, rng) -> tuple[np.ndarray, np.ndarray]:
    """The Gibbs sweep on raw arrays, from the responses eta = v W + b.

    Draws h | v for leaky units of leakiness c, or Bernoulli units when c
    is None, then v | h ~ N(a + W h, I); W_t is W^T, in any layout.  A
    leaky unit on slope alpha (``branch_slopes``) draws alpha eta +
    sqrt(alpha) z.  rng is a Generator or a ``_Draws``.
    Returns (v', h).
    """
    if c is None:
        h = (rng.random(eta.shape) < sigmoid(eta)).astype(np.float64)
    else:
        h = branch_slopes(eta, c)
        h *= eta
        z = rng.standard_normal(eta.shape)
        z *= branch_slopes(eta, math.sqrt(c))  # sqrt(alpha), as sqrt(1) = 1
        h += z
    v = h @ W_t
    if a.any():  # a zero a, as on the span model of ais_estimate, adds nothing
        v += a
    v += rng.standard_normal(v.shape)
    return v, h


def anneal_leakiness_sample(params: RbmParams, n_steps: int, n_chains: int, rng) -> ChainSet:
    """Sample by annealing leakiness from 1 down to the model's own in n_steps sweeps.

    Chains start at exact draws from the c = 1 Gaussian; each step lowers
    the leakiness per the schedule and runs one Gibbs sweep.  Raises
    ValueError for Bernoulli hidden units, which have no leakiness.
    """
    _require_kind(params, HiddenKind.LEAKY_RELU, "leakiness annealing")
    return _anneal(params.weights, params.visible_bias, params.hidden_bias, params.leakiness,
                   n_steps, n_chains, _as_rng(rng))


def mix_sample(params: RbmParams, data_batch: np.ndarray, n_steps: int, rng) -> ChainSet:
    """Annealed sampling with one chain started at each empirical data row.

    Skips the Gaussian factorization entirely; a 1-D batch is one row.
    Raises ValueError for Bernoulli hidden units, which have no leakiness.
    """
    _require_kind(params, HiddenKind.LEAKY_RELU, "leakiness annealing")
    return _anneal(params.weights, params.visible_bias, params.hidden_bias, params.leakiness,
                   n_steps, _check_data(params, data_batch).copy(), _as_rng(rng))


def _anneal(W, a, b, c, n_steps: int, v, rng) -> ChainSet:
    """Chains annealed to c: a ``_run_chains`` level per leakiness of AnnealSchedule(c, n_steps).

    v holds the chains' start rows, or is a scalar n, their number, to start
    them at n exact draws from the c = 1 Gaussian of (W, a, b), as
    ``sample_gaussian_base`` draws them.  rng is a Generator or an open
    ``_Draws`` whose plan holds these draws next (``_chain_blocks``).
    """
    levels = [(c_t, 1.0) for c_t in AnnealSchedule(c, n_steps).leakiness_sequence().tolist()]
    if np.ndim(v) == 0:
        v = _draw_base(*_gaussian_base(W, a, b)[1:3], v, rng)
    return _run_chains(W, a, b, levels, v, rng)


def _run_chains(W, a, b, levels, v, rng, eta=None, W_t=None, score=None) -> ChainSet:
    """Gibbs sweeps from v, one ``_sweep`` per level (c, s): the model (s W, a, s b) at c.

    c None means Bernoulli units.  ``eta``, when given, is the first sweep's v W + b;
    ``W_t`` is W^T in any layout, by default the view W.T; and ``score(v, eta, c, s)``
    runs before each sweep.  v and eta are not written; no levels give h = 0.  Given
    a Generator, the sweeps draw through a ``_Draws`` of their own, which leaves rng
    as drawing from it directly would; its worker, if any, is joined before this
    returns or raises.  Given an open ``_Draws``, they draw from it, and its owner
    closes it.
    """
    W_t = W.T if W_t is None else W_t
    h = None if levels else np.zeros((v.shape[0], W.shape[1]))
    b_rows = None  # b tiled over the chains once: one flat add, not a short loop per chain
    own = not isinstance(rng, _Draws)
    draws = _Draws(_chain_blocks(levels, v.shape[0], *W.shape), rng) if own else rng
    try:
        for c, s in levels:
            if eta is None:
                eta = v @ W if s == 1.0 else v @ (W * s)
                b_rows = np.tile(b, (v.shape[0], 1)) if b_rows is None else b_rows
                eta += b_rows if s == 1.0 else b_rows * s
            if score is not None:
                score(v, eta, c, s)
            v, h = _sweep(eta, W_t if s == 1.0 else W_t * s, a, c, draws)
            eta = None
    finally:
        if own:
            draws.close()
    return ChainSet(v=v, h=h)


def _chain_blocks(levels, n: int, n_visible: int, n_hidden: int, base: bool = False) -> list:
    """The ``_Draws`` plan of n chains' sweeps over levels, after their n c = 1 base draws if base.

    Per level (c, s), its hidden block ((n, J) uniforms for Bernoulli units, c
    None, normals for leaky ones), then its (n, I) visible normals.
    """
    blocks = [("standard_normal", n, n_visible)] if base else []
    for c, _s in levels:
        blocks += [("random" if c is None else "standard_normal", n, n_hidden),
                   ("standard_normal", n, n_visible)]
    return blocks


class _Draws:
    """The draws of a plan of blocks (kind, rows, cols), handed out in its order.

    Stands in for the generator in ``_sweep`` and ``_draw_base``: ``random`` and
    ``standard_normal`` return, in turn, the next block of the plan, whose kind
    is the name of the generator method that draws it ("random" for uniforms,
    "standard_normal" for normals) and whose shape is the one the caller asks
    for (``_chain_blocks`` plans the sweeps' blocks).  The blocks are drawn a
    chunk at a time, by one rng call per run of blocks of one kind: a call of
    size N draws the same bits, and leaves rng in the same state, as calls
    whose sizes sum to N.  A block starts a new chunk when it would take the
    current one past _CHUNK doubles and that one already holds more than the
    block; so a level whose draws exceed _CHUNK stays in one chunk.  A plan
    that fits in one chunk draws it at the first ask and starts no thread.  A
    longer one fills its chunks as futures on ``pool``, a one-worker
    ``ThreadPoolExecutor`` (one of its own when none is given), up to _RING
    chunks ahead of their users; one worker runs them in plan order.  The
    caller leaves rng alone until ``close``.  After an exception, rng may
    have drawn past the block that raised.
    """

    def __init__(self, plan, rng, pool=None):
        # per chunk, its rng calls (kind, start, stop) and its blocks (start, rows, cols)
        self._chunks, calls, blocks, used = [], [], [], 0
        for kind, rows, cols in plan:
            size = rows * cols
            if used + size > _CHUNK and used > size:  # full: the block starts the next chunk
                self._chunks.append((calls, blocks))
                calls, blocks, used = [], [], 0
            if calls and calls[-1][0] == kind:
                calls[-1] = (kind, calls[-1][1], used + size)
            else:
                calls.append((kind, used, used + size))
            blocks.append((used, rows, cols))
            used += size
        if blocks:
            self._chunks.append((calls, blocks))
        largest = max((calls[-1][2] for calls, _blocks in self._chunks), default=0)
        self._bufs = [np.empty(largest) for _ in range(min(len(self._chunks), _RING))]
        self._rng = rng
        self._own = self._fills = None
        if len(self._chunks) > 1:
            if pool is None:
                pool = self._own = _helper()
            self._pool = pool
            self._fills = [pool.submit(self._fill, k) for k in range(len(self._bufs))]
        self._blocks = self._hand_out()

    def _fill(self, k: int) -> None:
        """Draw chunk k into its ring buffer."""
        flat = self._bufs[k % len(self._bufs)]
        for kind, start, stop in self._chunks[k][0]:
            getattr(self._rng, kind)(out=flat[start:stop])

    def _hand_out(self):
        """The blocks, in the order of the plan."""
        ahead = len(self._bufs)
        for k, (_calls, blocks) in enumerate(self._chunks):
            if self._fills is None:
                self._fill(k)
            else:
                self._fills[k].result()  # raises what the fill raised
            flat = self._bufs[k % ahead]
            for start, rows, cols in blocks:
                yield flat[start:start + rows * cols].reshape(rows, cols)
            if self._fills is not None and k + ahead < len(self._chunks):
                # its users are done with this chunk's buffer
                self._fills.append(self._pool.submit(self._fill, k + ahead))

    def standard_normal(self, shape) -> np.ndarray:
        return next(self._blocks)

    random = standard_normal

    def close(self) -> None:
        """Cancel the pending fills, wait for the running one, and let the buffers go.

        A pool of its own is shut down; a given one is left idle.
        """
        self._blocks = None  # the generator refers back to self: a cycle the GC would free late
        for fill in self._fills or ():
            if not fill.cancel():
                fill.exception()  # waits for it to finish
        if self._own is not None:
            self._own.shutdown()
        self._bufs = self._fills = None  # now, though the owner may keep self a while


def _helper():
    """A one-worker ``ThreadPoolExecutor``, whose thread starts at its first submit."""
    from concurrent.futures import ThreadPoolExecutor  # here, as it loads logging

    return ThreadPoolExecutor(max_workers=1)
