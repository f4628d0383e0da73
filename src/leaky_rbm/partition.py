"""Partition-function oracles and annealed importance sampling.

Three exact references are available at small scale: the closed form for
orthogonal-column models with zero hidden bias, the leakiness-1 Gaussian
closed form, and low-dimensional adaptive quadrature of the unnormalized
marginal.  AIS supports three interpolation schemes between the tractable
base and the target:

* energy path: geometric interpolation of the energy, which scales the
  weights toward zero on the way back to a standard normal (two-sided
  annealing);
* leaky path: anneal the leakiness from 1 down to c, starting from the
  exact leakiness-1 Gaussian (one-sided annealing);
* one-sided path: the energy-style beta grid mapped onto an effective
  leakiness beta + (1 - beta) c; identical target family as the leaky
  path, provided for the equivalence analysis.
"""
from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.special import logsumexp

from .errors import DimensionError, DivergentIntegralError, NonPDRegionError
from .model import (
    HiddenKind,
    RbmParams,
    bernoulli_log_unnorm_marginal,
    log_unnorm_marginal,
)
from .projection import is_globally_safe
from .sampler import _as_rng, gaussian_base_params, gibbs_step, sample_gaussian_base

LOG_2PI = math.log(2.0 * math.pi)


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
        if not (0.0 < c_target <= 1.0):
            raise ValueError("c_target must be in (0, 1]")
        return cls(PathKind.LEAKY, np.linspace(1.0, c_target, n_levels + 1))

    @classmethod
    def one_sided(cls, n_levels: int) -> "AnnealingPath":
        return cls(PathKind.ONE_SIDED, np.linspace(1.0, 0.0, n_levels + 1))


@dataclass(frozen=True)
class LogZEstimate:
    """AIS output: estimate plus per-particle diagnostics."""

    log_z: float
    log_weights: np.ndarray
    standard_error: float
    effective_sample_size: float
    log_z_base: float
    n_dropped: int = 0


def level_params(params: RbmParams, kind: PathKind, level: float) -> RbmParams:
    """Model whose marginal is the intermediate distribution at ``level``.

    Energy path: geometric interpolation at the joint level is equivalent
    to scaling W and b by sqrt(1 - beta) for leaky units (the response
    enters the integrated-out marginal quadratically) and by (1 - beta)
    for Bernoulli units (it enters linearly).  Leaky and one-sided paths
    swap the leakiness only.
    """
    if kind is PathKind.ENERGY:
        s = 1.0 - float(level)
        scale = math.sqrt(s) if params.hidden_kind is HiddenKind.LEAKY_RELU else s
        return params.with_(
            weights=params.weights * scale, hidden_bias=params.hidden_bias * scale
        )
    if params.hidden_kind is not HiddenKind.LEAKY_RELU:
        raise ValueError("leakiness annealing requires leaky hidden units")
    if kind is PathKind.LEAKY:
        return params.with_(leakiness=float(level))
    if kind is PathKind.ONE_SIDED:
        beta = float(level)
        return params.with_(leakiness=beta + (1.0 - beta) * params.leakiness)
    raise ValueError(f"unknown path kind {kind}")


def intermediate_log_density(params: RbmParams, kind: PathKind, level: float, v):
    """Log unnormalized density of the intermediate distribution."""
    lp = level_params(params, kind, level)
    if params.hidden_kind is HiddenKind.BERNOULLI:
        return bernoulli_log_unnorm_marginal(lp, v)
    return log_unnorm_marginal(lp, v)


def gaussian_log_z(params: RbmParams) -> float:
    """Closed-form log partition at leakiness 1.

    The marginal is exp(-v^T Omega v / 2 + r^T v - ||a||^2/2 + ||b||^2/2)
    with Omega = I - W W^T and r = a + W b.
    """
    W = params.weights
    omega = np.eye(params.n_visible) - W @ W.T
    sign, logdet = np.linalg.slogdet(omega)
    if sign <= 0:
        raise NonPDRegionError(float(np.linalg.eigvalsh(omega)[0]))
    r = params.visible_bias + W @ params.hidden_bias
    quad = float(r @ np.linalg.solve(omega, r))
    return (
        0.5 * params.n_visible * LOG_2PI
        - 0.5 * logdet
        + 0.5 * quad
        - 0.5 * float(params.visible_bias @ params.visible_bias)
        + 0.5 * float(params.hidden_bias @ params.hidden_bias)
    )


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
    if params.hidden_kind is not HiddenKind.LEAKY_RELU:
        raise ValueError("the orthogonal closed form applies to leaky models")
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


def _direction_coefficients(params: RbmParams, directions: np.ndarray) -> np.ndarray:
    """Asymptotic quadratic coefficient of -2 log p* along each unit ray."""
    W = params.weights
    proj = directions @ W  # (n, J)
    b = params.hidden_bias
    # at large radius the branch is decided by the projection's sign;
    # exactly-zero projections fall back to the sign of the bias
    positive = np.where(np.abs(proj) > 1e-12, proj > 0, b[None, :] > 0)
    alpha = np.where(positive, 1.0, params.leakiness)
    return 1.0 - np.sum(alpha * proj**2, axis=1)


def _check_integrable(params: RbmParams, n_directions: int = 4096) -> float:
    """Smallest asymptotic precision over a fine fan of rays.

    Raises when any ray has non-positive coefficient, i.e. the density
    grows along an unbounded region and the integral diverges.
    """
    dim = params.n_visible
    if dim == 1:
        dirs = np.array([[1.0], [-1.0]])
    else:
        theta = np.linspace(0.0, 2.0 * np.pi, n_directions, endpoint=False)
        dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    coeff = _direction_coefficients(params, dirs)
    min_coeff = float(coeff.min())
    if min_coeff <= 1e-12:
        raise DivergentIntegralError(
            f"unnormalized marginal diverges along a ray "
            f"(asymptotic precision {min_coeff:.3e})"
        )
    return min_coeff


def _point_log_marginal(params: RbmParams):
    """``log_unnorm_marginal`` of one point given as scalar coordinates.

    The quadrature calls its integrand ~1e5 times per estimate, where the
    array checks and reductions of ``log_unnorm_marginal`` cost four times
    the arithmetic.  Here only the response ``v @ W + b`` stays in numpy;
    the sums run left to right, as numpy's do below 8 terms, so with fewer
    than 8 hidden units the value is the same double.
    """
    weights = params.weights
    hidden_bias = params.hidden_bias
    visible_bias = params.visible_bias.tolist()
    c = float(params.leakiness)

    def logp(*v: float) -> float:
        quad = 0.0
        for x, a in zip(v, visible_bias):
            d = x - a
            quad += d * d
        act = 0.0
        for eta in (np.array(v) @ weights + hidden_bias).tolist():
            act += eta * eta if eta > 0 else c * (eta * eta)
        return -(0.5 * quad) + 0.5 * act

    return logp


def quadrature_log_z(params: RbmParams, tolerance: float = 1e-9) -> float:
    """Brute-force log partition by adaptive quadrature; I <= 2 only.

    Integrates exp(log unnormalized marginal) over a box wide enough that
    the truncated tail is negligible, growing the box until successive
    estimates agree to the requested relative tolerance.
    """
    dim = params.n_visible
    if dim > 2:
        raise DimensionError("quadrature oracle supports at most 2 visible units")
    if params.hidden_kind is not HiddenKind.LEAKY_RELU:
        raise ValueError("quadrature oracle targets the leaky marginal")
    min_coeff = _check_integrable(params)
    max_std = 1.0 / math.sqrt(min_coeff)
    # center near the bulk: mean of the loosest-region Gaussian at c = 1
    try:
        omega = np.eye(dim) - params.weights @ params.weights.T
        center = np.linalg.solve(
            omega, params.visible_bias + params.weights @ params.hidden_bias
        )
    except np.linalg.LinAlgError:
        center = params.visible_bias.copy()
    if not np.isfinite(center).all():
        center = params.visible_bias.copy()

    logp = _point_log_marginal(params)

    shift = _probe_max(params, center, max_std)

    def guarded_exp(log_value: float) -> float:
        arg = log_value - shift
        if arg > 700.0:
            # the probed maximum was off by more than exp(700): the integrand
            # is effectively unbounded over the box and the estimate would be
            # garbage, so refuse instead of overflowing
            raise DivergentIntegralError(
                "integrand exceeds the probed maximum by an overflow margin"
            )
        return math.exp(arg)

    half_width = 10.0 * max_std
    prev = None
    for _ in range(6):
        if dim == 1:
            lo, hi = center[0] - half_width, center[0] + half_width
            val, _err = integrate.quad(
                lambda x: guarded_exp(logp(x)), lo, hi,
                epsabs=0.0, epsrel=max(tolerance, 1e-12), limit=400,
            )
        else:
            val, _err = integrate.dblquad(
                lambda y, x: guarded_exp(logp(x, y)),
                center[0] - half_width, center[0] + half_width,
                center[1] - half_width, center[1] + half_width,
                epsabs=0.0, epsrel=max(tolerance, 1e-10),
            )
        if not val > 0.0:
            # a near-singular I - WW^T spreads the mass so thinly over the
            # grown box that the quadrature finds none
            raise DivergentIntegralError(
                "quadrature found no mass in the integration box "
                "(I - WW^T is near singular)"
            )
        cur = shift + math.log(val)
        if prev is not None and abs(cur - prev) <= tolerance * max(1.0, abs(prev)):
            return cur
        prev = cur
        half_width *= 1.4
    return cur


def _probe_max(params: RbmParams, center: np.ndarray, max_std: float) -> float:
    """Rough maximum of the log marginal, used to shift the exponent."""
    dim = params.n_visible
    grid_1d = np.linspace(-4.0 * max_std, 4.0 * max_std, 33)
    if dim == 1:
        pts = center[0] + grid_1d[:, None]
    else:
        gx, gy = np.meshgrid(grid_1d, grid_1d)
        pts = center[None, :] + np.stack([gx.ravel(), gy.ravel()], axis=1)
    return float(np.max(log_unnorm_marginal(params, pts)))


def exact_log_z_bernoulli(params: RbmParams) -> float:
    """Exact log partition for Bernoulli hidden units by enumerating h.

    Z = sum over h in {0,1}^J of (2pi)^(I/2)
        exp(||a + W h||^2/2 - ||a||^2/2 + b^T h); practical for J <= 20.
    """
    if params.hidden_kind is not HiddenKind.BERNOULLI:
        raise ValueError("enumeration oracle requires Bernoulli hidden units")
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
    return 0.5 * params.n_visible * LOG_2PI + float(logsumexp(terms))


def _base_sample_and_density(params: RbmParams, kind: PathKind, n: int, rng):
    """Draw base particles; return (v, base log density fn, base log Z)."""
    if kind is PathKind.ENERGY:
        a = params.visible_bias
        v = a + rng.standard_normal((n, params.n_visible))
        density = lambda x: -0.5 * np.sum((x - a) ** 2, axis=-1)
        log_z0 = 0.5 * params.n_visible * LOG_2PI
        return v, density, log_z0
    # leaky / one-sided: exact leakiness-1 Gaussian; draws, density and
    # log Z all belong to the sampler's (possibly boundary-shrunk) base model
    base = gaussian_base_params(params)
    v = sample_gaussian_base(params, n, rng)
    density = lambda x: log_unnorm_marginal(base, x, leakiness=1.0)
    return v, density, gaussian_log_z(base)


def ais_estimate(
    params: RbmParams, path: AnnealingPath, n_particles: int, rng
) -> LogZEstimate:
    """Annealed importance sampling estimate of the log partition.

    Particles start at the path's base distribution; at each level the
    log-weight increment is accumulated before running one Gibbs sweep
    targeting that level.  All reductions stay in the log domain.
    """
    rng = _as_rng(rng)
    safe, min_eig = is_globally_safe(params.weights)
    if not safe:
        raise NonPDRegionError(min_eig, "AIS requires I - WW^T >= 0")
    kind = path.kind
    v, base_density, log_z0 = _base_sample_and_density(params, kind, n_particles, rng)
    log_w = np.zeros(n_particles)
    prev_density = base_density(v)
    for level in path.grid[1:]:
        cur = intermediate_log_density(params, kind, float(level), v)
        log_w += cur - prev_density
        v, _h = gibbs_step(level_params(params, kind, float(level)), v, rng)
        prev_density = intermediate_log_density(params, kind, float(level), v)

    finite = np.isfinite(log_w)
    n_dropped = int(n_particles - finite.sum())
    if n_dropped:
        warnings.warn(f"dropped {n_dropped} non-finite AIS particles")
        log_w = log_w[finite]
    if log_w.size == 0:
        raise DivergentIntegralError("all AIS particles had non-finite weights")
    m = log_w.size
    log_mean_w = float(logsumexp(log_w)) - math.log(m)
    log_z = log_z0 + log_mean_w
    # normalized weights for diagnostics
    w_tilde = np.exp(log_w - log_w.max())
    mean_w = w_tilde.mean()
    sd_w = w_tilde.std(ddof=1) if m > 1 else 0.0
    standard_error = float(sd_w / (mean_w * math.sqrt(m)))
    ess = float(np.exp(2.0 * logsumexp(log_w) - logsumexp(2.0 * log_w)))
    return LogZEstimate(
        log_z=log_z,
        log_weights=log_w,
        standard_error=standard_error,
        effective_sample_size=ess,
        log_z_base=log_z0,
        n_dropped=n_dropped,
    )


def eval_mean_log_likelihood(params: RbmParams, data, log_z: float) -> float:
    """Mean log-likelihood of data rows given a log partition value."""
    if not math.isfinite(log_z):
        raise ValueError("log_z must be finite")
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    if params.hidden_kind is HiddenKind.BERNOULLI:
        lp = bernoulli_log_unnorm_marginal(params, data)
    else:
        lp = log_unnorm_marginal(params, data)
    return float(np.mean(lp) - log_z)
