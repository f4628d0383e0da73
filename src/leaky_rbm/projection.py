"""Spectral projection enforcing the positive-definiteness constraint.

Training is only stable when I - W W^T stays positive definite; the
Frobenius-nearest feasible matrix is obtained by clipping singular values
of W at 1.  The projection works on the smaller Gram matrix G of W.  A
Cholesky factorization of a slightly shrunk (1 - delta) I - G certifies
most matrices feasible as they are, with no eigensolve; the rest get one
eigensolve, for only the eigenpairs above 1, which also corrects them.
"""
from __future__ import annotations

import math

import numpy as np
from scipy import linalg

from .errors import DimensionError, LeakyRbmError

# Smallest eigenvalue of I - W W^T (or of a region precision matrix)
# that still counts as positive (semi-)definite.
SAFE_TOL = 1e-10


class ProjectionReport:
    """What ``project_spectral`` did: ``clipped_count`` singular values were
    clipped at 1, and ``max_singular_value_before`` / ``_after`` give
    sigma_max of its input and output.

    A call that clipped nothing ran no eigensolve.  Its report owns the
    scaled Gram matrix of the input, not the input, and takes sigma_max
    from it on first read.
    """

    def __init__(self, clipped_count: int, smax: float | None, gram=None, exp: int = 0):
        self.clipped_count = clipped_count
        self._smax = smax
        self._gram, self._exp = gram, exp

    @property
    def max_singular_value_before(self) -> float:
        if self._smax is None:
            self._smax = _top_singular_value(self._gram, self._exp)
            self._gram = None
        return self._smax

    @property
    def max_singular_value_after(self) -> float:
        return min(self.max_singular_value_before, 1.0)

    def __repr__(self) -> str:
        return (
            f"ProjectionReport(clipped_count={self.clipped_count}, "
            f"max_singular_value_before={self.max_singular_value_before!r}, "
            f"max_singular_value_after={self.max_singular_value_after!r})"
        )


def project_spectral(W) -> tuple[np.ndarray, ProjectionReport]:
    """Clip singular values of W at 1, keeping singular vectors.

    Returns the projected matrix and a report.  Matrices already inside
    the feasible set come back unchanged (same values, new array).
    """
    W = np.asarray(W, dtype=np.float64)
    if not np.isfinite(W).all():
        raise LeakyRbmError("cannot project a matrix with non-finite entries")
    return _clip(W)


def _scaled_gram(W: np.ndarray) -> tuple[np.ndarray, int, np.ndarray]:
    """(T, exp, T^T T) for the tall orientation T of W.

    T is W / 2^exp, a power of two near max|W|: exact, and it keeps the
    smaller Gram matrix T^T T, whose eigenpairs are the squared singular
    values and right singular vectors of T, from overflowing or underflowing.
    """
    if W.ndim != 2:
        raise DimensionError("weights must be a 2-D matrix")
    T = W.T if W.shape[0] < W.shape[1] else W
    exp = int(np.frexp(max(T.max(initial=0.0), -T.min(initial=0.0)))[1])
    T = np.ldexp(T, -exp)  # a new array
    return T, exp, T.T @ T


def _top_singular_value(gram: np.ndarray, exp: int) -> float:
    """sigma_max of W from its scaled Gram matrix, by its top eigenvalue."""
    n = gram.shape[0]
    if n == 0:
        return 0.0
    top = linalg.eigh(gram, subset_by_index=[n - 1, n - 1], eigvals_only=True)[0]
    return float(np.ldexp(np.sqrt(max(top, 0.0)), exp))


def _certifies(gram: np.ndarray, exp: int) -> bool:
    """Whether one Cholesky proves sigma_max of W is at most 1.

    True means the top eigenvalue of ``gram`` is below 4^-exp by more than
    the error of computing it, so ``_top_singular_value`` would also have
    found sigma_max <= 1.  False proves nothing.
    """
    n = gram.shape[0]
    # A Cholesky of A that runs to completion in floating point gives R with
    # R^T R = A + dA, |dA| <= gamma_{n+1} |R^T| |R| (Higham, Accuracy and
    # Stability of Numerical Algorithms, 2nd ed., Thm 10.3), hence
    # ||dA||_2 <= n gamma_{n+1} ||A + dA||_2, about (n + 1)^2 u ||A||_2 with
    # u = eps / 2.  Here A = (1 - delta) s I - G with s = 4^-exp and G >= 0,
    # so ||A||_2 <= s once A + dA > 0, and success proves
    #     lambda_max(G) <= (1 - delta + (n + 1)^2 u) s.
    # delta = (n + 1)^2 eps leaves (n + 1)^2 u s more, which covers the
    # rounding of A's diagonal and the O(n u ||G||_2) error of the top
    # eigenvalue that would otherwise decide.
    delta = (n + 1) ** 2 * np.finfo(np.float64).eps
    try:
        shift = math.ldexp(1.0 - delta, -2 * exp)
    except OverflowError:  # T's entries are below 1, so lambda_max(G) <= m n
        return True
    A = np.negative(gram)
    A.flat[:: n + 1] += shift
    try:
        # A.T is Fortran-ordered, so it is factored in place; its upper
        # triangle is A's lower one, the triangle eigh reads
        linalg.cholesky(A.T, lower=False, overwrite_a=True, check_finite=False)
    except linalg.LinAlgError:
        return False
    return True


def max_singular_value(W) -> float:
    """Largest singular value of W, without a full SVD."""
    _, exp, gram = _scaled_gram(np.asarray(W, dtype=np.float64))
    return _top_singular_value(gram, exp)


def _clip(W: np.ndarray) -> tuple[np.ndarray, ProjectionReport]:
    """``project_spectral`` of a finite float64 W."""
    T, exp, gram = _scaled_gram(W)  # T is corrected in place below
    if _certifies(gram, exp):
        return W.copy(), ProjectionReport(0, None, gram, exp)
    # sigma > 1 exactly when the eigenvalue of the scaled Gram exceeds 4^-exp
    lam, V = linalg.eigh(gram, subset_by_value=(np.ldexp(1.0, -2 * exp), np.inf))
    if len(lam) == 0:  # sigma_max lies in the certificate's margin below 1
        return W.copy(), ProjectionReport(0, None, gram, exp)
    sigma = np.ldexp(np.sqrt(lam), exp)
    smax = float(sigma[-1])
    T -= ((T @ V) * (1.0 - 1.0 / sigma)) @ V.T
    np.ldexp(T, exp, out=T)
    W_proj = np.ascontiguousarray(T.T) if W.shape[0] < W.shape[1] else T
    # The rank-k update is accurate to about n * eps * sigma_max, and the
    # Gram eigenvalues to about n * eps * sigma_max^2, which puts each
    # clipped sigma off by about n * eps * (sigma_max / sigma)^2 relative,
    # the smallest, sigma[0], the most.  1 - sigma^2 moves by up to about
    # twice their sum (1.8 times it on random 6 x 4 inputs); the check
    # doubles that for margin.  Far outside the feasible set this alone
    # can break I - W W^T >= 0, so the result is clipped again; each pass
    # shrinks the error by another factor of about n * eps.
    error = gram.shape[0] * np.finfo(np.float64).eps * (smax + (smax / sigma[0]) ** 2)
    if 4.0 * error > SAFE_TOL:
        W_proj = _clip(W_proj)[0]
    return W_proj, ProjectionReport(len(lam), smax)


def is_globally_safe(W) -> tuple[bool, float]:
    """Check I - W W^T >= 0; returns (flag, smallest eigenvalue of I - WW^T)."""
    return safety_from_max_singular_value(max_singular_value(W))


def safety_from_max_singular_value(smax: float) -> tuple[bool, float]:
    """``is_globally_safe`` for a matrix whose top singular value is ``smax``."""
    min_eig = 1.0 - smax**2
    return min_eig > -SAFE_TOL, min_eig
