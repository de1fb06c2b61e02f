"""Squared-exponential (RBF) kernel.

The kernel is ``k(a, b) = s2 * exp(-0.5 * (a-b)^T S^-1 (a-b))`` where the
scale ``S`` is the diagonal matrix of per-dimension lengthscale
variances.  Lengthscales are stored as variances (squared lengths), so
they enter the quadratic form directly and add to Gaussian covariances
without conversion.

Points are 1-d float arrays of length ``d``; point sets are ``(n, d)``
arrays.
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
    return amplitude_sq[:, None, None] * np.exp(
        -0.5 * sum_in_order((scaled[:, :, :, None] - scaled[:, :, None, :]) ** 2)
    )


def kernel_cross(A, B, ker: RbfKernel) -> np.ndarray:
    """Cross-kernel matrix with entries ``k(a_i, b_j)``, shape (m, n)."""
    A = as_points(A, ker.dim, "A")
    B = as_points(B, ker.dim, "B")
    terms = (B.T[:, None, :] - A.T[:, :, None]) ** 2 / ker.lengthscales[:, None, None]
    return ker.amplitude_sq * np.exp(-0.5 * sum_in_order(terms))


def kernel_vector(x, X, ker: RbfKernel) -> np.ndarray:
    """Cross-kernel vector with entries ``k(x, x_i)``; empty for n = 0.

    The one-row case of :func:`kernel_cross`, bit for bit.
    """
    return kernel_cross(as_point(x, ker.dim, "x")[None, :], X, ker)[0]


def kernel_jacobians(
    X: np.ndarray, B: np.ndarray, ker: RbfKernel, kv: np.ndarray
) -> np.ndarray:
    """Gradients of ``k(x, b_j)`` in ``x`` at each row of ``X`` (m, d), shape (m, n, d).

    ``kv`` is ``kernel_cross(X, B, ker)``.  Entry ``[i, j]`` is
    ``-(x_i - b_j) / lengthscales * k(x_i, b_j)``.
    """
    return -(X[:, None, :] - B) / ker.lengthscales * kv[:, :, None]


def kernel_gradient(a, b, ker: RbfKernel) -> np.ndarray:
    """Gradient of ``k(a, b)`` with respect to ``a``: one entry of :func:`kernel_jacobians`.

    Equals ``-(a - b) / lengthscales * k(a, b)``; antisymmetric under
    swapping the arguments and zero at ``a = b``.
    """
    A = as_point(a, ker.dim, "a")[None, :]
    B = as_point(b, ker.dim, "b")[None, :]
    return kernel_jacobians(A, B, ker, kernel_cross(A, B, ker))[0, 0]
