"""Package-private helpers: point-shape checks and the two linear solves.

The solves make scipy.linalg's exact LAPACK calls for a lower factor, so they
equal ``solve_triangular`` and ``cho_solve`` bit for bit, without the per-call
validation and batching that dominate the cost of a probe's small systems.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import LinAlgError
from scipy.linalg import get_lapack_funcs

_TRTRS, _POTRS = get_lapack_funcs(("trtrs", "potrs"), dtype=np.float64)


def as_point(x, dim: int, name: str) -> np.ndarray:
    """``x`` as a float vector of length ``dim``."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (dim,):
        raise ValueError(f"{name} has dimension {x.shape}, expected ({dim},)")
    return x


def as_points(X, dim: int, name: str = "X") -> np.ndarray:
    """``X`` as an ``(n, dim)`` float array; a vector is n points in 1-d, else one point."""
    X = np.asarray(X, dtype=float)
    if X.size == 0:
        return X.reshape(0, dim)
    if X.ndim == 1:
        X = X.reshape(-1, 1) if dim == 1 else X.reshape(1, -1)
    if X.ndim != 2 or X.shape[1] != dim:
        raise ValueError(f"{name} has shape {X.shape}, expected (n, {dim})")
    return X


def forward_solve(chol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """chol^-1 rhs for a lower-triangular ``chol``, as solve_triangular(lower=True)."""
    if chol.flags.f_contiguous:
        x, info = _TRTRS(chol, rhs, lower=1)
    else:
        # trtrs expects Fortran order: solve the transposed upper system
        x, info = _TRTRS(chol.T, rhs, lower=0, trans=1)
    if info:
        raise LinAlgError(f"triangular solve failed (LAPACK info {info})")
    return x


def chol_solve(chol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """(chol chol^T)^-1 rhs for a lower Cholesky factor ``chol``, as cho_solve((chol, True))."""
    x, info = _POTRS(chol, rhs, lower=1)
    if info:
        raise LinAlgError(f"Cholesky solve failed (LAPACK info {info})")
    return x
