"""Spectral projection enforcing the positive-definiteness constraint.

Training is only stable when I - W W^T stays positive definite; the
Frobenius-nearest feasible matrix is obtained by clipping singular values
of W at 1.  The projection reads them off the smaller Gram matrix of W:
its top eigenvalue certifies most matrices feasible as they are, and only
the eigenpairs above 1 are computed to correct the rest.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg

from .errors import LeakyRbmError

# Smallest eigenvalue of I - W W^T (or of a region precision matrix)
# that still counts as positive (semi-)definite.
SAFE_TOL = 1e-10


@dataclass(frozen=True)
class ProjectionReport:
    clipped_count: int
    max_singular_value_before: float
    max_singular_value_after: float


def project_spectral(W) -> tuple[np.ndarray, ProjectionReport]:
    """Clip singular values of W at 1, keeping singular vectors.

    Returns the projected matrix and a report.  Matrices already inside
    the feasible set come back unchanged (same values, new array).
    """
    W = np.asarray(W, dtype=np.float64)
    if not np.isfinite(W).all():
        raise LeakyRbmError("cannot project a matrix with non-finite entries")
    W_proj, smax, n_clipped = _clip(W)
    return W_proj, ProjectionReport(n_clipped, smax, min(smax, 1.0))


def _scaled_gram(W: np.ndarray) -> tuple[np.ndarray, int, np.ndarray, float]:
    """(T, exp, T^T T, sigma_max of W) for the tall orientation T of W.

    T is W / 2^exp, a power of two near max|W|: exact, and it keeps the
    smaller Gram matrix T^T T, whose eigenpairs are the squared singular
    values and right singular vectors of T, from overflowing or underflowing.
    """
    T = W.T if W.shape[0] < W.shape[1] else W
    exp = int(np.frexp(max(T.max(initial=0.0), -T.min(initial=0.0)))[1])
    T = np.ldexp(T, -exp)  # a new array
    gram = T.T @ T
    n = gram.shape[0]
    if n == 0:
        return T, exp, gram, 0.0
    top = linalg.eigh(gram, subset_by_index=[n - 1, n - 1], eigvals_only=True)[0]
    return T, exp, gram, float(np.ldexp(np.sqrt(max(top, 0.0)), exp))


def max_singular_value(W) -> float:
    """Largest singular value of W, without a full SVD."""
    return _scaled_gram(np.asarray(W, dtype=np.float64))[3]


def _clip(W: np.ndarray) -> tuple[np.ndarray, float, int]:
    """(projected W, sigma_max of W, number of singular values above 1)."""
    T, exp, gram, smax = _scaled_gram(W)  # T is corrected in place below
    if smax <= 1.0:
        return W.copy(), smax, 0
    # sigma > 1 exactly when the eigenvalue of the scaled Gram exceeds 4^-exp
    lam, V = linalg.eigh(gram, subset_by_value=(np.ldexp(1.0, -2 * exp), np.inf))
    shrink = 1.0 - 1.0 / np.ldexp(np.sqrt(lam), exp)
    T -= ((T @ V) * shrink) @ V.T
    np.ldexp(T, exp, out=T)
    W_proj = np.ascontiguousarray(T.T) if W.shape[0] < W.shape[1] else T
    # The rank-k update is accurate to about n * eps * sigma_max, which
    # moves 1 - sigma^2 by twice that.  Far outside the feasible set this
    # alone can break I - W W^T >= 0, so the result is clipped again; each
    # pass shrinks the error by another factor of about n * eps.
    if 2.0 * gram.shape[0] * np.finfo(np.float64).eps * smax > SAFE_TOL:
        W_proj = _clip(W_proj)[0]
    return W_proj, smax, len(lam)


def is_globally_safe(W) -> tuple[bool, float]:
    """Check I - W W^T >= 0; returns (flag, smallest eigenvalue of I - WW^T)."""
    return safety_from_max_singular_value(max_singular_value(W))


def safety_from_max_singular_value(smax: float) -> tuple[bool, float]:
    """``is_globally_safe`` for a matrix whose top singular value is ``smax``."""
    min_eig = 1.0 - smax**2
    return min_eig > -SAFE_TOL, min_eig
