"""Partition-function oracles and annealed importance sampling.

Three exact references are available at small scale: the closed form for
orthogonal-column models with zero hidden bias, the leakiness-1 Gaussian
closed form, and for I <= 2 (or J <= 2, on the span of W) the sum of the
marginal's Gaussian integrals over its activation regions.  AIS supports
three interpolation schemes between the tractable base and the target:

* energy path: geometric interpolation of the energy, which scales the
  weights toward zero on the way back to a standard normal (two-sided
  annealing);
* leaky path: anneal the leakiness from 1 down to c, starting from the
  exact leakiness-1 Gaussian (one-sided annealing);
* one-sided path: a leakiness grid too, beta + (1 - beta) c for beta
  running from 1 to 0.  Its intermediate models are the leaky path's,
  spaced evenly in beta; it is kept for the equivalence analysis.

AIS runs levels 1 to L - 1 on ``sampler._run_chains``: a level's sweep and
log-weight increment log f_k(v) - log f_{k-1}(v) share one pass
eta = v W_k + b_k.  With many particles the chain's draws are made ahead
of the sweeps on the one worker of an executor that the run starts and
joins, with the same bits, and BLAS threading is untouched (see
``sampler``).  Level L is scored on the particles that come back and
swept by nothing, as no weight reads its sweep.  After level 1,
the increment is (c_k - c_{k-1}) sum min(eta, 0)^2 / 2 on leakiness paths.
On the energy path level k - 1 sees r eta, r = s_{k-1} / s_k, so leaky units
add (1 - r^2) sum alpha eta^2 / 2, Bernoulli units sum softplus(eta) - softplus(r eta).

With J < I hidden units, AIS anneals the J-visible model on the span of
W (``_span_model``): every log weight reads v only through Q^T (v - a),
for W = Q R.  Its ``log_z_base``, the log partition of the distribution
the particles start from, adds the (I - J) log(2 pi) / 2 of the dropped
dimensions, so ``log_z`` is the full model's.
"""
from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DivergentIntegralError, NonPDRegionError, PrecisionLossError
from .model import (
    HiddenKind,
    RbmParams,
    _log_marginal,
    _require_kind,
    _unit_leakiness,
    branch_slopes,
    log_marginal_from_response,
)
from .projection import is_globally_safe
from .sampler import (LOG_2PI, _as_rng, _draw_base, _gaussian_base, _gaussian_closed_form,
                      _run_chains)


class PathKind(enum.Enum):
    ENERGY = "energy"
    LEAKY = "leaky"
    ONE_SIDED = "one-sided"


@dataclass(frozen=True)
class AnnealingPath:
    """Ordered grid of interpolation levels, base first, target last.

    For the energy and one-sided paths the grid holds beta values running
    from 1 to 0; for the leaky path it holds leakiness values running from
    1 down to the target c.
    """

    kind: PathKind
    grid: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=np.float64)
        if grid.ndim != 1 or grid.size < 2:
            raise ValueError("path grid needs at least base and target levels")
        # before the monotonicity check, so that a NaN level is named as such
        low = grid > 0.0 if self.kind is PathKind.LEAKY else grid >= 0.0
        if not np.all(low & (grid <= 1.0)):
            raise ValueError("path levels must lie in [0, 1], leakiness levels in (0, 1]")
        diffs = np.diff(grid)
        # a constant grid is the degenerate base-equals-target path
        if not (np.all(diffs < 0) or np.all(diffs > 0) or np.all(diffs == 0)):
            raise ValueError("path grid must be strictly monotone")
        grid.setflags(write=False)
        object.__setattr__(self, "grid", grid)

    @classmethod
    def energy(cls, n_levels: int) -> "AnnealingPath":
        return cls(PathKind.ENERGY, np.linspace(1.0, 0.0, n_levels + 1))

    @classmethod
    def leaky(cls, c_target: float, n_levels: int) -> "AnnealingPath":
        return cls(PathKind.LEAKY, np.linspace(1.0, c_target, n_levels + 1))

    @classmethod
    def one_sided(cls, n_levels: int) -> "AnnealingPath":
        return cls(PathKind.ONE_SIDED, np.linspace(1.0, 0.0, n_levels + 1))


@dataclass(frozen=True)
class LogZEstimate:
    """AIS output: estimate plus per-particle diagnostics.

    log_z is log_z_base plus the log of the mean importance weight, where
    log_z_base is the log partition of the distribution the particles
    were drawn from, in the model's own I visible dimensions.
    """

    log_z: float
    log_weights: np.ndarray
    standard_error: float
    effective_sample_size: float
    log_z_base: float
    n_dropped: int = 0


def _levels(params: RbmParams, kind: PathKind, grid) -> list:
    """(c, s) of the intermediate model (s W, a, s b) at each level of ``grid``.

    Energy path: geometric interpolation at the joint level is equivalent
    to scaling W and b by s = sqrt(1 - beta) for leaky units (the response
    enters the integrated-out marginal quadratically) and by s = 1 - beta
    for Bernoulli units (it enters linearly), whose c is None.  The leaky
    path sets c to the level, the one-sided path to beta + (1 - beta) c, at s = 1.
    """
    c = _unit_leakiness(params)
    grid = np.asarray(grid, dtype=np.float64)
    if kind is PathKind.ENERGY:
        scales = 1.0 - grid if c is None else np.sqrt(1.0 - grid)
        return [(c, s) for s in scales.tolist()]
    _require_kind(params, HiddenKind.LEAKY_RELU, "leakiness annealing")
    if kind is PathKind.ONE_SIDED:
        grid = grid + (1.0 - grid) * c
    return [(c_k, 1.0) for c_k in grid.tolist()]


def _log_weight_step(eta, c, c_prev, r):
    """log f_k(v) - log f_{k-1}(v) from eta = v W_k + b_k (module docstring)."""
    if c is None:
        return np.sum(np.logaddexp(0.0, eta) - np.logaddexp(0.0, r * eta), axis=-1)
    if r == 1.0:  # leakiness paths
        neg = np.minimum(eta, 0.0)
        step = np.einsum("ij,ij->i", neg, neg)
        step *= 0.5 * (c - c_prev)
        return step
    alpha_eta = branch_slopes(eta, c)
    alpha_eta *= eta
    step = np.einsum("ij,ij->i", alpha_eta, eta)
    step *= 0.5 * (1.0 - r * r)
    return step


def intermediate_log_density(params: RbmParams, kind: PathKind, level: float, v):
    """Log unnormalized density of the intermediate distribution."""
    ((c, s),) = _levels(params, kind, [level])
    return _log_marginal(params, v, params.weights * s, params.hidden_bias * s, c)


def gaussian_log_z(params: RbmParams) -> float:
    """Closed-form log partition at leakiness 1 (``_gaussian_closed_form``).

    Raises NonPDRegionError unless Omega = I - W W^T is positive definite.
    """
    return _gaussian_closed_form(params.weights, params.visible_bias, params.hidden_bias)[2]


def exact_log_z_orthogonal(params: RbmParams) -> float:
    """Analytic log partition for orthogonal columns and zero biases.

    With pairwise-orthogonal weight columns and b = 0 the visible space
    splits into 2^J equal-probability regions, and

        Z = 2^-J * sum over alpha in {1, c}^J of
            (2pi)^(I/2) * det(I - sum_j alpha_j W_j W_j^T)^(-1/2).

    Orthogonality makes each determinant a product over columns, so the
    2^J-term sum factorizes into J independent two-term sums; the value is
    identical to explicit enumeration but costs O(J).  Note the exponent
    on 2pi is +I/2, the value of the Gaussian integral (validated against
    the quadrature oracle).
    """
    _require_kind(params, HiddenKind.LEAKY_RELU, "exact_log_z_orthogonal")
    if np.any(np.abs(params.hidden_bias) > 0) or np.any(np.abs(params.visible_bias) > 0):
        raise ValueError("the orthogonal closed form requires zero biases")
    W = params.weights
    gram = W.T @ W
    norms_sq = np.diag(gram).copy()
    off = gram - np.diag(norms_sq)
    scale = max(1.0, float(np.sqrt(norms_sq.max(initial=0.0))))
    if np.abs(off).max(initial=0.0) > 1e-8 * scale * scale:
        raise ValueError("weight columns are not pairwise orthogonal")
    c = params.leakiness
    if np.any(norms_sq >= 1.0):
        raise NonPDRegionError(float(1.0 - norms_sq.max()))
    # per-column: log[ (1 - n^2)^(-1/2) + (1 - c n^2)^(-1/2) ] - log 2
    t_full = -0.5 * np.log1p(-norms_sq)
    t_leaky = -0.5 * np.log1p(-c * norms_sq)
    per_col = np.logaddexp(t_full, t_leaky) - math.log(2.0)
    return 0.5 * params.n_visible * LOG_2PI + float(per_col.sum())


def quadrature_log_z(params: RbmParams, tolerance: float = 1e-9) -> float:
    """Exact log partition of a leaky model with I <= 2 or J <= 2, region by region.

    On each activation region the marginal is a Gaussian: for I = 1 log Z
    sums closed-form integrals, for I = 2 so does the inner y-integral at
    each x, and the outer x-integral is one ``quad`` per interval between
    kinks, to relative ``tolerance`` (at least 1e-12).  When I > 2 and
    J <= 2 it integrates the J-visible ``_span_model`` and adds the
    (I - J) log(2 pi) / 2 of the dropped dimensions.  Raises DimensionError
    when both I > 2 and J > 2, and DivergentIntegralError when the marginal
    does not decay along a ray.
    """
    n_dropped_dims = 0
    if params.n_visible > 2:
        if params.n_hidden > 2:
            raise DimensionError("quadrature oracle supports at most 2 visible or 2 hidden units")
        params, n_dropped_dims = _span_model(params)
    _require_kind(params, HiddenKind.LEAKY_RELU, "quadrature_log_z")
    # a module of its own, as only this oracle needs scipy.integrate and .special
    from ._quadrature import _line_log_integral, _plane_log_z

    epsrel = max(tolerance, 1e-12)
    W, c = params.weights, params.leakiness
    b = params.hidden_bias + params.visible_bias @ W  # shift v by a
    if params.n_visible == 2:
        log_z = _plane_log_z(W, b, c, epsrel)
    else:
        log_z = _line_log_integral(W[0].tolist(), b.tolist(), 0.0, c, epsrel)
    return float(log_z) + 0.5 * n_dropped_dims * LOG_2PI


def exact_log_z_bernoulli(params: RbmParams) -> float:
    """Exact log partition for Bernoulli hidden units by enumerating h.

    Z = sum over h in {0,1}^J of (2pi)^(I/2)
        exp(||a + W h||^2/2 - ||a||^2/2 + b^T h); practical for J <= 20.
    """
    _require_kind(params, HiddenKind.BERNOULLI, "exact_log_z_bernoulli")
    n_hid = params.n_hidden
    if n_hid > 20:
        raise ValueError("enumeration oracle limited to 20 hidden units")
    codes = np.arange(2**n_hid)[:, None] >> np.arange(n_hid)[None, :] & 1
    h = codes.astype(np.float64)
    means = h @ params.weights.T + params.visible_bias
    terms = (
        0.5 * np.sum(means**2, axis=1)
        - 0.5 * float(params.visible_bias @ params.visible_bias)
        + h @ params.hidden_bias
    )
    return 0.5 * params.n_visible * LOG_2PI + _logsumexp(terms)


def _span_model(params: RbmParams) -> tuple[RbmParams, int]:
    """The model on the span of W, and the number of visible dimensions dropped.

    With the thin QR factorisation W = Q R (Q of size I x J) and
    u = v - a = Q y + u_perp, every response is eta = y R + b + a W, and
    u_perp is a standard normal independent of y under every marginal and
    Gibbs kernel of the model, the annealed ones included.  So the J-visible
    model (R, 0, b + a W) has log Z smaller by (I - J) log(2 pi) / 2, and
    its AIS chain on y is the projection of the chain on v.  When J >= I
    there is nothing to drop and the model comes back as given.
    """
    n_vis, n_hid = params.weights.shape
    if n_hid >= n_vis:
        return params, 0
    W = params.weights
    span = params.with_(
        weights=np.linalg.qr(W, mode="r"),
        visible_bias=np.zeros(n_hid),
        hidden_bias=params.hidden_bias + params.visible_bias @ W,
    )
    return span, n_vis - n_hid


def _base_sample_and_density(params: RbmParams, kind: PathKind, n: int, rng):
    """Draw n base particles; return (v, their base log densities, base log Z)."""
    W, a, b = params.weights, params.visible_bias, params.hidden_bias
    if kind is PathKind.ENERGY:  # builds no c = 1 base, so checks feasibility here
        safe, min_eig = is_globally_safe(W)
        if not safe:
            raise NonPDRegionError(min_eig, "AIS requires I - WW^T >= 0")
        v = a + rng.standard_normal((n, params.n_visible))
        return v, -0.5 * np.sum((v - a) ** 2, axis=-1), 0.5 * params.n_visible * LOG_2PI
    # leaky / one-sided: the exact c = 1 Gaussian, which checks feasibility;
    # draws, densities and log Z all belong to its (possibly shrunk) model
    W_base, mean, chol_prec, log_z0 = _gaussian_base(W, a, b)
    v = _draw_base(mean, chol_prec, n, rng)
    density = log_marginal_from_response(v @ W_base + b, 0.5 * np.sum((v - a) ** 2, axis=-1), 1.0)
    return v, density, log_z0


def ais_estimate(
    params: RbmParams, path: AnnealingPath, n_particles: int, rng
) -> LogZEstimate:
    """Annealed importance sampling estimate of the log partition.

    Particles start at the path's base distribution.  One ``_run_chains``
    call runs levels 1 to L - 1; its ``score`` adds each level's log-weight
    increment before the sweep, against the base density at level 1 and in
    closed form after it.  Level L, the model itself (s = 1), is scored on
    the particles that call returns: no weight reads a sweep at level L, so
    an L-level estimate makes L - 1 sweeps.  Sums stay in the log domain;
    one particle has standard error inf.  Raises ValueError unless
    n_particles >= 1 and the path ends at ``params`` (its leakiness on the
    leaky path, beta = 0 otherwise), and NonPDRegionError unless
    I - W W^T >= 0 (in the base).

    When J < I the chain runs on the model of ``_span_model`` (see the
    module docstring); R has the singular values of W, so feasibility is
    checked on R.  On a boundary model the c = 1 base's shrink then
    scales R but not b + a W, a base that differs from the full model's
    shrunk one by that margin; both are exact normalised densities, so
    the estimate of Z stays unbiased.
    """
    if n_particles < 1:
        raise ValueError(f"n_particles must be at least 1, got {n_particles}")
    rng = _as_rng(rng)
    kind = path.kind
    target = params.leakiness if kind is PathKind.LEAKY else 0.0
    if path.grid[-1] != target:
        raise ValueError(f"{kind.value} path ends at {path.grid[-1]:g}, not at {target:g}")
    span, n_dropped_dims = _span_model(params)
    v, base_log_density, log_z0 = _base_sample_and_density(span, kind, n_particles, rng)
    log_z0 += 0.5 * n_dropped_dims * LOG_2PI
    W, a = span.weights, span.visible_bias
    log_w = c_prev = s_prev = None

    def score(v, eta, c, s):
        nonlocal log_w, c_prev, s_prev
        if log_w is None:  # level 1 is scored against the base density
            quad = 0.5 * np.sum((v - a) ** 2, axis=-1)
            log_w = log_marginal_from_response(eta, quad, c) - base_log_density
        else:
            log_w += _log_weight_step(eta, c, c_prev, s_prev / s)
        c_prev, s_prev = c, s
    *levels, (c_last, s_last) = _levels(span, kind, path.grid[1:])
    v = _run_chains(W, a, span.hidden_bias, levels, v, rng,
                    W_t=np.ascontiguousarray(W.T), score=score).v  # the fastest W^T at small J
    score(v, v @ W + span.hidden_bias, c_last, s_last)  # s_last = 1: the path ends at the model

    finite = np.isfinite(log_w)
    n_dropped = int(n_particles - finite.sum())
    if n_dropped:
        warnings.warn(f"dropped {n_dropped} non-finite AIS particles")
        log_w = log_w[finite]
    if log_w.size == 0:
        raise DivergentIntegralError("all AIS particles had non-finite weights")
    m = log_w.size
    log_sum_w = _logsumexp(log_w)
    w_tilde = np.exp(log_w - log_w.max())  # normalized weights for diagnostics
    sd_w = w_tilde.std(ddof=1) if m > 1 else math.inf  # one weight shows no spread
    return LogZEstimate(
        log_z=log_z0 + (log_sum_w - math.log(m)),
        log_weights=log_w,
        standard_error=float(sd_w / (w_tilde.mean() * math.sqrt(m))),
        effective_sample_size=float(np.exp(2.0 * log_sum_w - _logsumexp(2.0 * log_w))),
        log_z_base=log_z0,
        n_dropped=n_dropped,
    )


def _logsumexp(x: np.ndarray) -> float:
    """log sum exp(x) of a finite, non-empty 1-D array.

    scipy.special.logsumexp's algorithm (scipy 1.17), bit for bit: with m
    entries equal to the max and s the sum of exp(x - max) over the rest
    (their zeros kept in place, so the sum adds in the same order), the
    result is log1p(s / m) + log m + max.
    """
    top = x.max()
    at_top = x == top
    m = np.float64(np.count_nonzero(at_top))
    s = np.exp(np.where(at_top, -np.inf, x) - top).sum()
    if s != 0.0:
        s = s / m
    return float(np.log1p(s) + np.log(m) + top)


def eval_mean_log_likelihood(params: RbmParams, data, log_z: float) -> float:
    """Mean log-likelihood of data rows given a log partition value.

    Raises DimensionError for rows of the wrong width, ValueError for no
    rows or a non-finite log_z, and PrecisionLossError when the mean log f
    or log_z is so large that the rounding of their difference, 2^-52 of
    the larger, exceeds 1e-3 nats.
    """
    if not math.isfinite(log_z):
        raise ValueError("log_z must be finite")
    lp = _log_marginal(params, data, params.weights, params.hidden_bias, _unit_leakiness(params))
    mean_lp = float(np.mean(lp))
    if not max(abs(mean_lp), abs(log_z)) * 2.0**-52 <= 1e-3:  # negated so that NaN fails it
        raise PrecisionLossError(
            f"mean log-likelihood has lost its digits: mean log f {mean_lp:.3g} "
            f"minus log Z {log_z:.3g} is exact to no better than 1e-3 nats")
    return mean_lp - log_z
