"""Spectral projection enforcing the positive-definiteness constraint.

Training is only stable when I - W W^T stays positive definite; the
Frobenius-nearest feasible matrix is obtained by clipping singular values
of W at 1.  The projection works on the smaller Gram matrix G of W.  A
Cholesky factorization of a slightly shrunk (1 - delta) I - G certifies
most matrices feasible as they are, with no eigensolve; the rest get one
eigensolve, for only the eigenpairs above 1, which also corrects them.

Only the certificate and the clip need scipy, and they load its LAPACK
extension alone, not the scipy.linalg package, when they first run:
sigma_max alone comes from numpy, so sampling and AIS load no scipy.  The
one loader, ``_scipy_extension``, also gives the quadrature oracle its
QUADPACK and special-function extensions.
"""
from __future__ import annotations

import functools
import math
import os
import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import module_from_spec

import numpy as np

from .errors import DimensionError, LeakyRbmError

# Smallest eigenvalue of I - W W^T (or of a region precision matrix)
# that still counts as positive (semi-)definite.
SAFE_TOL = 1e-10
# sigma_max above which the clip forms its clipped part apart from the rest
# of W: there the one-step update has lost half its digits.
_FAR = 2.0**26


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


def project_spectral(W) -> tuple[np.ndarray, ProjectionReport]:
    """Clip singular values of W at 1, keeping singular vectors.

    Returns the projected matrix and a report.  Matrices already inside
    the feasible set come back unchanged (same values, new array).
    """
    W = _finite(W)
    W_proj, report = _clip(W)
    return (W_proj.copy() if W_proj is W else W_proj), report


def _finite(W) -> np.ndarray:
    """W as float64, or LeakyRbmError when an entry is NaN or infinite."""
    W = np.asarray(W, dtype=np.float64)
    if not np.isfinite(W).all():
        raise LeakyRbmError("weights have non-finite entries")
    return W


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
    if gram.shape[0] == 0:
        return 0.0
    top = np.linalg.eigvalsh(gram)[-1]
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
    # A.T is Fortran-ordered, so it is factored in place; its upper triangle
    # is A's lower one, the triangle the eigensolve reads
    return _lapack().dpotrf(A.T, lower=0, overwrite_a=1)[1] == 0


@functools.cache
def _lapack():
    """scipy's f2py LAPACK extension, loaded once (``_scipy_extension``)."""
    return _scipy_extension("scipy.linalg._flapack", "LAPACK")


def _scipy_extension(name: str, what: str):
    """The compiled scipy extension module ``name``, loaded without running
    the package that holds it: scipy.linalg, scipy.integrate and
    scipy.special each import hundreds of modules more.

    It is registered under its own name, so a later import of the package
    uses it and loads no second copy; one already loaded is returned as it
    is.  ImportError names the directory searched when the file is missing.
    """
    import scipy

    package, _, leaf = name.rpartition(".")
    where = os.path.join(scipy.__path__[0], *package.split(".")[1:])
    finder = FileFinder(where, (ExtensionFileLoader, EXTENSION_SUFFIXES))
    spec = finder.find_spec(name)
    if spec is None:
        raise ImportError(f"scipy's {what} extension {leaf} is not in {where}")
    if name not in sys.modules:
        module = sys.modules[name] = module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules[name]


def _eigh_above(a: np.ndarray, lo: float) -> tuple[np.ndarray, np.ndarray]:
    """The eigenpairs of symmetric ``a`` with eigenvalue above ``lo``,
    ascending, from LAPACK's dsyevr on the lower triangle of ``a``.

    This is the call ``scipy.linalg.eigh(a, overwrite_a=True,
    subset_by_value=(lo, inf))`` makes, with the same bits: a Fortran-ordered
    ``a`` is overwritten.  A nonzero LAPACK info raises LinAlgError.
    """
    lapack = _lapack()
    lwork, liwork, _ = lapack.dsyevr_lwork(a.shape[0], lower=1)
    w, z, m, _, info = lapack.dsyevr(
        a, compute_v=1, range="V", lower=1, vl=lo, vu=np.inf,
        lwork=int(lwork), liwork=int(liwork), overwrite_a=1,
    )
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK dsyevr failed with info {info}")
    return w[:m], z[:, :m]


def max_singular_value(W) -> float:
    """Largest singular value of W, without a full SVD.

    Raises LeakyRbmError when W has a NaN or infinite entry.
    """
    _, exp, gram = _scaled_gram(_finite(W))
    return _top_singular_value(gram, exp)


def _clip(W: np.ndarray) -> tuple[np.ndarray, ProjectionReport]:
    """``project_spectral`` of a finite float64 W, but W itself when it clips nothing."""
    T, exp, gram = _scaled_gram(W)  # T is corrected in place below
    if _certifies(gram, exp):
        return W, ProjectionReport(0, None, gram, exp)
    n = gram.shape[0]
    # sigma > 1 exactly when the eigenvalue of the scaled Gram exceeds 4^-exp.
    # numpy forms T^T T by syrk, exactly symmetric, so gram.T is the same
    # matrix, in the Fortran order that dsyevr overwrites instead of copying.
    lam, V = _eigh_above(gram.T, np.ldexp(1.0, -2 * exp))
    del gram
    if len(lam) == 0:  # sigma_max lies in the certificate's margin below 1
        return W, ProjectionReport(0, None, T.T @ T, exp)  # the Gram again, same bits
    sigma = np.ldexp(np.sqrt(lam), exp)
    smax = float(sigma[-1])
    TV = T @ V
    if smax <= _FAR:
        T -= (TV * (1.0 - 1.0 / sigma)) @ V.T
        np.ldexp(T, exp, out=T)
    else:
        # T - TV (1 - 1/sigma) V^T subtracts terms of size sigma_max to leave
        # ones of size 1, so it would lose all digits near 1 / eps.  Here the
        # clipped part U_k V_k^T is formed on its own, and the rest of W,
        # T - T V V^T, is added only if some singular value is not clipped.
        rest = np.ldexp(T - TV @ V.T, exp) if len(lam) < n else 0.0
        T = (TV / np.sqrt(lam)) @ V.T + rest
    W_proj = np.ascontiguousarray(T.T) if W.shape[0] < W.shape[1] else T
    # The update is accurate to about n * eps * sigma_max (to about n * eps
    # when every singular value is clipped past _FAR), and the Gram
    # eigenvalues to about n * eps * sigma_max^2, which puts each clipped
    # sigma off by about n * eps * (sigma_max / sigma)^2 relative, the
    # smallest, sigma[0], the most.  1 - sigma^2 moves by up to about
    # twice their sum (1.8 times it on random 6 x 4 inputs); the check
    # doubles that for margin.  Far outside the feasible set this alone
    # can break I - W W^T >= 0, so the result is clipped again; each pass
    # shrinks the error by another factor of about n * eps.
    update = smax if smax <= _FAR or len(lam) < n else 1.0
    error = n * np.finfo(np.float64).eps * (update + (smax / sigma[0]) ** 2)
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
