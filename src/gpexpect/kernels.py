"""Squared-exponential (RBF) kernel and the generalized-scale variant.

The kernel is ``k(a, b) = s2 * exp(-0.5 * (a-b)^T S^-1 (a-b))`` where the
scale ``S`` is either the kernel's diagonal matrix of per-dimension
lengthscale variances or, for :func:`eval_kernel_scaled`, an arbitrary
symmetric positive-definite matrix.  Lengthscales are stored as variances
(squared lengths), so they enter the quadratic form directly and add to
Gaussian covariances without conversion.

Points are 1-d float arrays of length ``d``; point sets are ``(n, d)``
arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from gpexpect._numerics import as_point, as_points, forward_solve


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


def eval_kernel_scaled(a, b, amplitude_sq: float, scale) -> float:
    """Kernel value with an arbitrary SPD scale matrix.

    Computes ``amplitude_sq * exp(-0.5 * (a-b)^T scale^-1 (a-b))``.  With
    ``scale = diag(lengthscales)`` this reproduces :func:`eval_kernel`.

    Raises
    ------
    ValueError
        If ``scale`` is not symmetric positive definite (Cholesky failure).
    """
    scale = np.atleast_2d(np.asarray(scale, dtype=float))
    d = scale.shape[0]
    if scale.shape != (d, d):
        raise ValueError(f"scale must be square, got shape {scale.shape}")
    a = as_point(a, d, "a")
    b = as_point(b, d, "b")
    try:
        chol = np.linalg.cholesky(scale)
    except np.linalg.LinAlgError as exc:
        raise ValueError("scale matrix is not symmetric positive definite") from exc
    u = forward_solve(chol, a - b)
    return float(amplitude_sq * np.exp(-0.5 * np.dot(u, u)))


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
    not depend on the other kernels.
    """
    scaled = X / np.sqrt(lengthscales)[:, None, :]
    sq = np.sum((scaled[:, :, None, :] - scaled[:, None, :, :]) ** 2, axis=-1)
    K = amplitude_sq[:, None, None] * np.exp(-0.5 * sq)
    return 0.5 * (K + K.transpose(0, 2, 1))


def kernel_cross(A, B, ker: RbfKernel) -> np.ndarray:
    """Cross-kernel matrix with entries ``k(a_i, b_j)``, shape (m, n)."""
    A = as_points(A, ker.dim, "A")
    B = as_points(B, ker.dim, "B")
    sq = ((B[None, :, :] - A[:, None, :]) ** 2 / ker.lengthscales).sum(axis=-1)
    return ker.amplitude_sq * np.exp(-0.5 * sq)


def kernel_vector(x, X, ker: RbfKernel) -> np.ndarray:
    """Cross-kernel vector with entries ``k(x, x_i)``; empty for n = 0.

    The one-row case of :func:`kernel_cross`, bit for bit.
    """
    return kernel_cross(as_point(x, ker.dim, "x")[None, :], X, ker)[0]


def kernel_gradient(a, b, ker: RbfKernel) -> np.ndarray:
    """Gradient of ``k(a, b)`` with respect to ``a``.

    Equals ``-(a - b) / lengthscales * k(a, b)``; antisymmetric under
    swapping the arguments and zero at ``a = b``.
    """
    a = as_point(a, ker.dim, "a")
    b = as_point(b, ker.dim, "b")
    return -(a - b) / ker.lengthscales * eval_kernel(a, b, ker)
