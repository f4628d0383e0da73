"""Model parameterizations and exact density computations.

Two hidden-unit families share one parameter container: leaky rectified
linear hidden units with Gaussian visibles, and the classic
Bernoulli-Gaussian variant.  All functions here are pure and accept one
row of shape (I,) or n >= 1 rows of shape (n, I), and nothing else.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionError, NonPDRegionError
from .projection import SAFE_TOL, is_globally_safe, max_singular_value


class HiddenKind(enum.Enum):
    LEAKY_RELU = "leaky_relu"
    BERNOULLI = "bernoulli"


def _unit_leakiness(params: RbmParams) -> float | None:
    """The model's leakiness c, or None for Bernoulli units."""
    return None if params.hidden_kind is HiddenKind.BERNOULLI else params.leakiness


def _readonly(x, dtype=np.float64) -> np.ndarray:
    arr = np.array(x, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class RbmParams:
    """Full model specification: weights, biases and leakiness.

    weights has shape (I, J); column j is hidden unit j's weight vector.
    visible_bias defaults to zero and is carried for completeness.
    leakiness is the negative-side slope in (0, 1]; Bernoulli hidden
    units ignore it.
    """

    weights: np.ndarray
    visible_bias: np.ndarray
    hidden_bias: np.ndarray
    leakiness: float = 1.0
    hidden_kind: HiddenKind = HiddenKind.LEAKY_RELU

    def __post_init__(self):
        W = _readonly(self.weights)
        if W.ndim != 2:
            raise DimensionError("weights must be a 2-D matrix")
        a = _readonly(self.visible_bias)
        b = _readonly(self.hidden_bias)
        if a.shape != (W.shape[0],):
            raise DimensionError(
                f"visible_bias has shape {a.shape}, expected ({W.shape[0]},)"
            )
        if b.shape != (W.shape[1],):
            raise DimensionError(
                f"hidden_bias has shape {b.shape}, expected ({W.shape[1]},)"
            )
        if not (np.isfinite(W).all() and np.isfinite(a).all() and np.isfinite(b).all()):
            raise ValueError("parameters must be finite")
        c = float(self.leakiness)
        if not 0.0 < c <= 1.0:
            raise ValueError(f"leakiness must be in (0, 1], got {c}")
        object.__setattr__(self, "weights", W)
        object.__setattr__(self, "visible_bias", a)
        object.__setattr__(self, "hidden_bias", b)
        object.__setattr__(self, "leakiness", c)

    @classmethod
    def create(
        cls,
        weights,
        hidden_bias=None,
        visible_bias=None,
        leakiness: float = 1.0,
        hidden_kind: HiddenKind = HiddenKind.LEAKY_RELU,
    ) -> "RbmParams":
        W = np.asarray(weights, dtype=np.float64)
        if W.ndim != 2:
            raise DimensionError("weights must be a 2-D matrix")
        n_vis, n_hid = W.shape
        a = np.zeros(n_vis) if visible_bias is None else visible_bias
        b = np.zeros(n_hid) if hidden_bias is None else hidden_bias
        return cls(W, a, b, leakiness, hidden_kind)

    @property
    def n_visible(self) -> int:
        return self.weights.shape[0]

    @property
    def n_hidden(self) -> int:
        return self.weights.shape[1]

    def with_(self, **changes) -> "RbmParams":
        """Copy with some fields replaced."""
        return replace(self, **changes)

    def max_singular_value(self) -> float:
        return max_singular_value(self.weights)

    def is_safe(self) -> bool:
        """Whether I - W W^T is positive (semi-)definite within SAFE_TOL."""
        return is_globally_safe(self.weights)[0]


@dataclass(frozen=True)
class ActivationPattern:
    """Per-hidden-unit branch coefficients, each entry c or 1."""

    alpha: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "alpha", _readonly(self.alpha))


@dataclass(frozen=True)
class RegionGaussian:
    """Precision/mean of the Gaussian attached to one activation region."""

    precision: np.ndarray
    mean: np.ndarray
    min_eigenvalue: float
    is_pd: bool


def _require_kind(params: RbmParams, kind: HiddenKind, what: str) -> None:
    """Raise ValueError, naming ``what``, unless the hidden units are of ``kind``."""
    if params.hidden_kind is not kind:
        name = "leaky" if kind is HiddenKind.LEAKY_RELU else "Bernoulli"
        raise ValueError(f"{what} requires {name} hidden units")


def _check_rows(x, width: int) -> np.ndarray:
    """``x`` as float64, one row (width,) or n >= 1 rows (n, width)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] != width:
        raise DimensionError(f"data has shape {x.shape}, model expects rows of {width}")
    if x.ndim == 2 and x.shape[0] == 0:
        raise ValueError("data must have at least one row")
    return x


def _check_data(params: RbmParams, data) -> np.ndarray:
    """``data`` as a float64 (n, I) array with n >= 1 rows of the model's width."""
    return np.atleast_2d(_check_rows(data, params.n_visible))


def response(params: RbmParams, v) -> np.ndarray:
    """Hidden-unit responses W^T v + b.

    Accepts shape (I,) or (n, I); returns (J,) or (n, J).
    """
    v = _check_rows(v, params.n_visible)
    return v @ params.weights + params.hidden_bias


def branch_slopes(eta, c) -> np.ndarray:
    """1 where the response eta > 0, else the leakiness c (eta == 0 is leaky)."""
    return np.where(eta > 0, 1.0, c)


def hidden_conditional(params: RbmParams, v):
    """Mean and variance of each leaky hidden unit given v.

    A unit on slope alpha (see ``branch_slopes``) is N(alpha eta, alpha):
    positive responses get N(eta, 1), non-positive ones N(c eta, c).
    """
    _require_kind(params, HiddenKind.LEAKY_RELU, "hidden_conditional")
    eta = response(params, v)
    alpha = branch_slopes(eta, params.leakiness)
    return alpha * eta, alpha


def bernoulli_hidden_conditional(params: RbmParams, v) -> np.ndarray:
    """p(h_j = 1 | v) for Bernoulli hidden units: sigmoid of the response."""
    _require_kind(params, HiddenKind.BERNOULLI, "bernoulli_hidden_conditional")
    return sigmoid(response(params, v))


def sigmoid(eta) -> np.ndarray:
    """Overflow-safe logistic function of an array."""
    out = np.empty_like(eta)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    e = np.exp(eta[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def visible_conditional(params: RbmParams, h) -> np.ndarray:
    """Mean of v given h (unit variance per component): a + W h."""
    h = _check_rows(h, params.n_hidden)
    return h @ params.weights.T + params.visible_bias


def activation_pattern(params: RbmParams, v) -> ActivationPattern:
    """Branch coefficients alpha_j = 1 if eta_j > 0 else c, for a single v."""
    _require_kind(params, HiddenKind.LEAKY_RELU, "activation_pattern")
    if np.ndim(v) != 1:
        raise DimensionError("activation_pattern takes a single visible vector")
    return ActivationPattern(branch_slopes(response(params, v), params.leakiness))


def region_precision(W: np.ndarray, alpha) -> np.ndarray:
    """Omega = I - sum_j alpha_j W_j W_j^T; alpha is one pattern or a stack."""
    return np.eye(W.shape[0]) - (W * np.asarray(alpha)[..., None, :]) @ W.T


def region_precision_mean(params: RbmParams, pattern: ActivationPattern) -> RegionGaussian:
    """Precision matrix and mean of the Gaussian on one region.

    Omega = I - sum_j alpha_j W_j W_j^T; the mean solves
    Omega mu = a + W (alpha * b).  Raises NonPDRegionError when the solve
    fails because Omega is numerically singular.
    """
    alpha = np.asarray(pattern.alpha, dtype=np.float64)
    if alpha.shape != (params.n_hidden,):
        raise DimensionError("activation pattern length does not match model")
    omega = region_precision(params.weights, alpha)
    min_eig = float(np.linalg.eigvalsh(omega)[0])
    is_pd = min_eig > SAFE_TOL
    rhs = params.visible_bias + params.weights @ (alpha * params.hidden_bias)
    try:
        mean = np.linalg.solve(omega, rhs)
    except np.linalg.LinAlgError:
        raise NonPDRegionError(min_eig) from None
    return RegionGaussian(omega, mean, min_eig, is_pd)


def log_unnorm_marginal(params: RbmParams, v, leakiness: float | None = None):
    """Log of the unnormalized marginal density of v for leaky hidden units.

    Equals -||v - a||^2/2 + sum_j f(eta_j) with f(eta) = eta^2/2 on the
    positive branch and c*eta^2/2 otherwise; this is the exact result of
    integrating the hidden units out of the joint.  An explicit
    ``leakiness`` overrides the model's c; ValueError unless it is in (0, 1].
    """
    _require_kind(params, HiddenKind.LEAKY_RELU, "log_unnorm_marginal")
    if leakiness is not None:  # checked as the model's own leakiness is
        params = params.with_(leakiness=leakiness)
    return _log_marginal(params, v, params.weights, params.hidden_bias, params.leakiness)


def bernoulli_log_unnorm_marginal(params: RbmParams, v):
    """Log unnormalized marginal for Bernoulli hidden units.

    Summing the joint over h in {0,1}^J gives
    -||v - a||^2/2 + sum_j softplus(eta_j).
    """
    _require_kind(params, HiddenKind.BERNOULLI, "bernoulli_log_unnorm_marginal")
    return _log_marginal(params, v, params.weights, params.hidden_bias, None)


def _log_marginal(params: RbmParams, v, W, b, c):
    """Log unnormalized marginal of the rows v under (W, b, c) and the visible bias.

    c is the leakiness, or None for Bernoulli units (see ``_unit_leakiness``).
    """
    v = _check_rows(v, params.n_visible)
    quad = 0.5 * np.sum((v - params.visible_bias) ** 2, axis=-1)
    return log_marginal_from_response(v @ W + b, quad, c)


def log_marginal_from_response(eta, quad, c):
    """Log unnormalized marginal from eta = v W + b and quad = ||v - a||^2 / 2.

    Leaky units of leakiness c add sum_j alpha_j eta_j^2 / 2, alpha from
    ``branch_slopes``; Bernoulli units (c None) add sum_j softplus(eta_j).
    """
    if c is None:
        return -quad + np.sum(np.logaddexp(0.0, eta), axis=-1)
    return -quad + 0.5 * np.sum(branch_slopes(eta, c) * eta**2, axis=-1)
