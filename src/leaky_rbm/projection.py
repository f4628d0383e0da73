"""Spectral projection enforcing the positive-definiteness constraint.

Training is only stable when I - W W^T stays positive definite; the
Frobenius-nearest feasible matrix is obtained by clipping singular values
of W at 1.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    U, s, Vt = np.linalg.svd(W, full_matrices=False)
    clipped = np.minimum(s, 1.0)
    n_clipped = int(np.count_nonzero(s > 1.0))
    if n_clipped == 0:
        W_proj = W.copy()
    else:
        W_proj = (U * clipped) @ Vt
    report = ProjectionReport(
        clipped_count=n_clipped,
        max_singular_value_before=float(s[0]) if s.size else 0.0,
        max_singular_value_after=float(clipped[0]) if s.size else 0.0,
    )
    return W_proj, report


def is_globally_safe(W) -> tuple[bool, float]:
    """Check I - W W^T >= 0; returns (flag, smallest eigenvalue of I - WW^T)."""
    W = np.asarray(W, dtype=np.float64)
    s = np.linalg.svd(W, compute_uv=False)
    min_eig = float(1.0 - s[0] ** 2) if s.size else 1.0
    return min_eig > -SAFE_TOL, min_eig
