"""Squared-exponential (RBF) kernel.

The kernel is ``k(a, b) = s2 * exp(-0.5 * (a-b)^T S^-1 (a-b))`` where the
scale ``S`` is the diagonal matrix of per-dimension lengthscale
variances.  Lengthscales are stored as variances (squared lengths), so
they enter the quadratic form directly and add to Gaussian covariances
without conversion.

Points are 1-d float arrays of length ``d``; point sets are ``(n, d)``
arrays.  The matrix forms come stacked over T kernels that share their
points, such as hyperparameter samples: :func:`kernel_matrices` (Gram
matrices), :func:`kernel_crosses` (cross matrices) and
:func:`kernel_jacobians`.  Each entry of a stack reads as it does alone,
so the one-kernel forms (:func:`kernel_matrix`, :func:`kernel_cross` and
the point forms built on it) are their T = 1 views.  The Gram and cross
matrices are built one input dimension at a time on whole arrays, with
the rows innermost, and the dimensions are added left to right.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from gpexpect._numerics import as_point, as_points, sum_in_order


@dataclass(frozen=True, eq=False)
class RbfKernel:
    """RBF kernel with amplitude ``s2`` and per-dimension scale variances.

    Parameters
    ----------
    amplitude_sq : float
        Kernel value at zero distance, ``k(x, x)``.  Must be positive.
    lengthscales : ndarray, shape (d,)
        Diagonal of the scale matrix (variances, input units squared).
        All entries must be positive.
    """

    amplitude_sq: float
    lengthscales: np.ndarray = field()

    def __post_init__(self):
        ls = np.atleast_1d(np.asarray(self.lengthscales, dtype=float))
        if ls.ndim != 1 or ls.size < 1:
            raise ValueError("lengthscales must be a 1-d vector with d >= 1")
        if not np.all(np.isfinite(ls)) or np.any(ls <= 0):
            raise ValueError("lengthscales must be finite and positive")
        if not np.isfinite(self.amplitude_sq) or self.amplitude_sq <= 0:
            raise ValueError("amplitude_sq must be finite and positive")
        object.__setattr__(self, "amplitude_sq", float(self.amplitude_sq))
        object.__setattr__(self, "lengthscales", ls)
        self.lengthscales.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.lengthscales.size


def eval_kernel(a, b, ker: RbfKernel) -> float:
    """Kernel value ``s2 * exp(-0.5 * sum_j (a_j - b_j)^2 / L_j)``, as :func:`kernel_cross`."""
    a = as_point(a, ker.dim, "a")
    return float(kernel_cross(a[None, :], as_point(b, ker.dim, "b")[None, :], ker)[0, 0])


def kernel_matrix(X, ker: RbfKernel) -> np.ndarray:
    """Gram matrix with entries ``k(x_i, x_j)`` for rows of ``X``.

    Symmetric with diagonal ``amplitude_sq``; positive semidefinite.  The
    one-kernel case of :func:`kernel_matrices`.
    """
    X = as_points(X, ker.dim)
    return kernel_matrices(X, np.array([ker.amplitude_sq]), ker.lengthscales[None, :])[0]


def kernel_matrices(
    X: np.ndarray, amplitude_sq: np.ndarray, lengthscales: np.ndarray
) -> np.ndarray:
    """Gram matrices of the rows of ``X`` (n, d) under k kernels at once, shape (k, n, n).

    Kernel ``r`` has amplitude ``amplitude_sq[r]`` and scale variances
    ``lengthscales[r]``.  Each matrix is computed elementwise, so it does
    not depend on the other kernels, and is exactly symmetric:
    ``(a - b)^2`` and ``(b - a)^2`` are the same bits.
    """
    scaled = (X / np.sqrt(lengthscales)[:, None, :]).transpose(2, 0, 1)
    terms = ((s[:, :, None] - s[:, None, :]) ** 2 for s in scaled)
    return amplitude_sq[:, None, None] * np.exp(-0.5 * sum_in_order(terms))


def kernel_crosses(
    A: np.ndarray, B: np.ndarray, amplitude_sq: np.ndarray, lengthscales: np.ndarray
) -> np.ndarray:
    """Cross-kernel matrices ``k(a_i, b_j)`` of rows ``A`` (m, d) and ``B`` (n, d) under T kernels.

    Shape (T, m, n); kernel ``t`` has amplitude ``amplitude_sq[t]`` and
    scale variances ``lengthscales[t]``, as in :func:`kernel_matrices`.
    Each input dimension is one contiguous (m, n) pass, ``(b - a)^2 / L_t``
    for all kernels, and the dimensions are added left to right.  Each
    entry is computed elementwise, so it does not depend on the other
    kernels or rows.  The rows are taken as given, unchecked.
    """
    terms = (
        (B[:, j] - A[:, j, None]) ** 2 / lengthscales[:, j, None, None] for j in range(A.shape[1])
    )
    return amplitude_sq[:, None, None] * np.exp(-0.5 * sum_in_order(terms))


def kernel_cross(A, B, ker: RbfKernel) -> np.ndarray:
    """Cross-kernel matrix ``k(a_i, b_j)``, shape (m, n): :func:`kernel_crosses` at T = 1."""
    A = as_points(A, ker.dim, "A")
    B = as_points(B, ker.dim, "B")
    return kernel_crosses(A, B, np.array([ker.amplitude_sq]), ker.lengthscales[None, :])[0]


def kernel_vector(x, X, ker: RbfKernel) -> np.ndarray:
    """Cross-kernel vector with entries ``k(x, x_i)``; empty for n = 0.

    The one-row case of :func:`kernel_cross`, bit for bit.
    """
    return kernel_cross(as_point(x, ker.dim, "x")[None, :], X, ker)[0]


def kernel_jacobians(
    X: np.ndarray, B: np.ndarray, lengthscales: np.ndarray, kv: np.ndarray
) -> np.ndarray:
    """Gradients in ``x`` of ``k(x, b_j)`` at the rows of ``X`` (m, d), T kernels: (T, m, n, d).

    ``lengthscales`` (T, d) are the kernels' scale variances and ``kv``
    their :func:`kernel_crosses` of ``X`` and ``B``.  Entry ``[t, i, j]`` is
    ``-(x_i - b_j) / lengthscales[t] * k_t(x_i, b_j)``.
    """
    return -(X[:, None, :] - B) / lengthscales[:, None, None, :] * kv[..., None]


def kernel_gradient(a, b, ker: RbfKernel) -> np.ndarray:
    """Gradient of ``k(a, b)`` with respect to ``a``: one entry of :func:`kernel_jacobians`.

    Equals ``-(a - b) / lengthscales * k(a, b)``; antisymmetric under
    swapping the arguments and zero at ``a = b``.
    """
    A = as_point(a, ker.dim, "a")[None, :]
    B = as_point(b, ker.dim, "b")[None, :]
    kv = kernel_cross(A, B, ker)[None]
    return kernel_jacobians(A, B, ker.lengthscales[None, :], kv)[0, 0, 0]
