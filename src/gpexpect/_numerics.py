"""Package-private helpers: point-shape, count and noise checks, row dots and the linear solves.

Two solves make scipy.linalg's exact LAPACK calls for a lower factor, so they
equal ``solve_triangular`` and ``cho_solve`` bit for bit, without the per-call
validation and batching that dominate the cost of a probe's small systems.
:func:`forward_substitute` is the triangular solve whose right-hand sides
do not depend on each other, for results that must not depend on the
batch: it solves a stack of factors against a stack of rows in one pass,
with the rows innermost, so each of its elementwise passes is contiguous.
Where bits must not depend on the batch, a sum is written as explicit
adds in a fixed order, never as an axis reduction: numpy sums a trailing
axis of 8 or more terms pairwise.
"""

from __future__ import annotations

import numbers

import numpy as np
from numpy.linalg import LinAlgError
from scipy.linalg import get_lapack_funcs

_TRTRS, _POTRS = get_lapack_funcs(("trtrs", "potrs"), dtype=np.float64)


def require_count(value, name: str) -> None:
    """Raise ``ValueError`` unless ``value`` is an integer: a ``numbers.Integral``, not a bool."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def require_fixed_noise(value) -> None:
    """Raise ``ValueError`` unless ``value`` is None or a finite noise variance ``>= 0``."""
    if value is not None and not (np.isfinite(value) and value >= 0):
        raise ValueError(f"fixed_noise must be finite and >= 0, got {value}")


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


def row_dots(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """a @ b per last-axis row of A (B: matching rows or one vector), one BLAS dot each.

    On contiguous rows this is the ``dot`` of ``np.dot(a, b)`` and
    ``np.linalg.norm(a) ** 2``, so each row reads the same in any batch.
    """
    return (A[..., None, :] @ B[..., None])[..., 0, 0]


def sum_in_order(terms) -> np.ndarray:
    """``terms[0] + terms[1] + ...`` over the leading axis (or an iterable), added left to right.

    Each entry takes the adds of a loop over its own terms, whatever the
    other entries are; an axis reduction would add 8 or more terms pairwise.
    """
    terms = iter(terms)
    total = next(terms)
    for term in terms:
        total = total + term
    return total


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


def forward_substitute(chols: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """chols[i]^-1 rhs[:, i, j] for lower-triangular factors (k, d, d) and rows (d, k, m).

    The layout is dimension-major with the rows innermost: ``rhs[r]`` is
    coordinate ``r`` of every (factor, row) pair.
    ``u[r] = (rhs[r] - chol[r, 0] u[0] - ... - chol[r, r-1] u[r-1]) / chol[r, r]``,
    subtracting term by term on whole contiguous (k, m) arrays, so each row
    is solved with the same operations whatever the other rows and factors
    are.  A multi-column ``trtrs`` does not promise that.  For a factor of
    size 1 or 2 this equals the single-column :func:`forward_solve` bit for
    bit on OpenBLAS 0.3.31 (x86-64); larger factors may differ in the last bits.
    """
    # entries (r, c) of every factor as (k, 1) columns against the rows
    factor_entries = chols.transpose(1, 2, 0)[..., None]
    u = np.empty_like(rhs)
    for r in range(chols.shape[-1]):
        acc = rhs[r]
        for c in range(r):
            acc = acc - factor_entries[r, c] * u[c]
        u[r] = acc / factor_entries[r, r]
    return u


def chol_solve(chol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """(chol chol^T)^-1 rhs for a lower Cholesky factor ``chol``, as cho_solve((chol, True)).

    A 0x0 factor (no data) gives the empty solution of the empty system.
    """
    if chol.shape[0] == 0:
        return np.zeros(rhs.shape)
    x, info = _POTRS(chol, rhs, lower=1)
    if info:
        raise LinAlgError(f"Cholesky solve failed (LAPACK info {info})")
    return x
