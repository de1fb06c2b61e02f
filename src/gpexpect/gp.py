"""Gaussian-process regression with rank-1 hypothetical updates.

A fitted :class:`GpPosterior` stores the Cholesky factor of the noisy Gram
matrix and the weight vector ``(K + noise * I)^-1 y``.  Posterior queries
are pure functions of that state.  The rank-1 update operations answer
"what would the posterior be after one more observation" without
refactorizing, which is what the acquisition layer needs per candidate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from gpexpect._numerics import as_points, chol_solve, forward_solve
from gpexpect.errors import InsufficientDataError, NumericalConditioningError
from gpexpect.kernels import (
    RbfKernel,
    eval_kernel,
    kernel_cross,
    kernel_matrix,
    kernel_vector,
)

# rank-1 denominators below this fraction of the amplitude are treated as
# zero: the point is already fully determined and carries no information
_DENOM_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)
class Dataset:
    """Observed inputs ``X`` (n, d) and values ``y`` (n,)."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        y = np.atleast_1d(np.asarray(self.y, dtype=float))
        if X.ndim == 1:
            X = X.reshape(-1, 1)
        if X.ndim != 2:
            raise ValueError(f"X must be (n, d), got shape {X.shape}")
        if y.shape != (X.shape[0],):
            raise ValueError(f"y has shape {y.shape}, expected ({X.shape[0]},)")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
            raise ValueError("data must be finite")
        X.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @classmethod
    def empty(cls, dim: int) -> "Dataset":
        return cls(X=np.zeros((0, dim)), y=np.zeros(0))

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]

    def append(self, x, y_value: float) -> "Dataset":
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return Dataset(
            X=np.vstack([self.X, x[None, :]]),
            y=np.concatenate([self.y, [float(y_value)]]),
        )


@dataclass(frozen=True)
class NoiseModel:
    """Observation noise variance, ``y = f(x) + e`` with ``e ~ N(0, variance)``."""

    variance: float

    def __post_init__(self):
        if not np.isfinite(self.variance) or self.variance < 0:
            raise ValueError("noise variance must be finite and nonnegative")
        object.__setattr__(self, "variance", float(self.variance))


@dataclass(frozen=True, eq=False)
class HyperparameterSample:
    """One kernel/noise setting; several of these feed the multi-sample acquisition."""

    kernel: RbfKernel
    noise: NoiseModel


@dataclass(frozen=True, eq=False)
class GpPosterior:
    """Trained surrogate: data plus the factored noisy Gram matrix.

    ``gram_factor`` is the lower Cholesky factor of
    ``K + (noise + jitter) * I`` and ``weights`` solves that system
    against ``y``.  ``jitter`` records any diagonal inflation that was
    needed; it is 0 for well-conditioned fits.
    """

    kernel: RbfKernel
    data: Dataset
    noise: NoiseModel
    gram_factor: np.ndarray
    weights: np.ndarray
    jitter: float = 0.0

    @property
    def n(self) -> int:
        return self.data.n

    @property
    def dim(self) -> int:
        return self.kernel.dim


def fit(data: Dataset, ker: RbfKernel, noise: NoiseModel) -> GpPosterior:
    """Condition the GP on ``data``; n = 0 returns the prior.

    If the noisy Gram matrix is numerically singular (duplicated points
    with zero noise), a diagonal jitter is added, starting at
    ``1e-10 * amplitude_sq`` and escalating tenfold up to
    ``1e-4 * amplitude_sq``.

    Raises
    ------
    NumericalConditioningError
        If factorization still fails at the largest jitter.
    """
    if data.dim != ker.dim:
        raise ValueError(f"data dimension {data.dim} != kernel dimension {ker.dim}")
    n = data.n
    if n == 0:
        return GpPosterior(
            kernel=ker,
            data=data,
            noise=noise,
            gram_factor=np.zeros((0, 0)),
            weights=np.zeros(0),
        )
    A = kernel_matrix(data.X, ker) + noise.variance * np.eye(n)
    jitters = [0.0] + [10.0**e * ker.amplitude_sq for e in range(-10, -3)]
    chol = None
    used = 0.0
    for jit in jitters:
        try:
            chol = np.linalg.cholesky(A + jit * np.eye(n))
            used = jit
            break
        except np.linalg.LinAlgError:
            continue
    if chol is None:
        raise NumericalConditioningError(
            f"Gram matrix not positive definite even with jitter {jitters[-1]:.3e}"
        )
    weights = chol_solve(chol, data.y)
    return GpPosterior(
        kernel=ker, data=data, noise=noise, gram_factor=chol, weights=weights, jitter=used
    )


def posterior_mean(gp: GpPosterior, x) -> float:
    """Posterior mean at one point; 0 for the prior."""
    if gp.n == 0:
        return 0.0
    return float(kernel_vector(x, gp.data.X, gp.kernel) @ gp.weights)


def posterior_mean_many(gp: GpPosterior, X) -> np.ndarray:
    """Posterior mean at each row of ``X``."""
    X = as_points(X, gp.dim)
    if gp.n == 0:
        return np.zeros(X.shape[0])
    return kernel_cross(X, gp.data.X, gp.kernel) @ gp.weights


def posterior_cov(gp: GpPosterior, a, b) -> float:
    """Posterior covariance between two points; prior kernel for n = 0."""
    prior = eval_kernel(a, b, gp.kernel)
    if gp.n == 0:
        return prior
    ka = kernel_vector(a, gp.data.X, gp.kernel)
    kb = kernel_vector(b, gp.data.X, gp.kernel)
    return float(prior - ka @ chol_solve(gp.gram_factor, kb))


def posterior_var_many(gp: GpPosterior, X) -> np.ndarray:
    """Posterior variance at each row of ``X`` (diagonal of the covariance)."""
    X = as_points(X, gp.dim)
    if gp.n == 0:
        return np.full(X.shape[0], gp.kernel.amplitude_sq)
    C = kernel_cross(X, gp.data.X, gp.kernel)
    U = forward_solve(gp.gram_factor, C.T)
    return gp.kernel.amplitude_sq - np.sum(U * U, axis=0)


def _rank1_denominator(gp: GpPosterior, xt) -> float:
    return posterior_cov(gp, xt, xt) + gp.noise.variance


def rank1_update_mean(gp: GpPosterior, xt, yt: float, x) -> float:
    """Posterior mean at ``x`` after hypothetically observing ``(xt, yt)``.

    Matches a full refit on the augmented dataset with the same
    hyperparameters.  A vanishing denominator (duplicated noiseless
    point) makes the update a no-op: the point is already determined.
    """
    denom = _rank1_denominator(gp, xt)
    base = posterior_mean(gp, x)
    if denom < _DENOM_FLOOR * gp.kernel.amplitude_sq:
        return base
    return base + posterior_cov(gp, xt, x) * (yt - posterior_mean(gp, xt)) / denom


def rank1_update_cov(gp: GpPosterior, xt, a, b) -> float:
    """Posterior covariance of ``a, b`` after a hypothetical observation at ``xt``.

    Independent of the observed value; same degenerate-point guard as
    :func:`rank1_update_mean`.
    """
    denom = _rank1_denominator(gp, xt)
    base = posterior_cov(gp, a, b)
    if denom < _DENOM_FLOOR * gp.kernel.amplitude_sq:
        return base
    return base - posterior_cov(gp, xt, a) * posterior_cov(gp, xt, b) / denom


def log_marginal_likelihood(data: Dataset, ker: RbfKernel, noise: NoiseModel) -> float:
    """Log evidence of the data under the GP prior with the given kernel/noise."""
    if data.n < 1:
        raise InsufficientDataError("log marginal likelihood needs at least one point")
    gp = fit(data, ker, noise)
    log_det_half = float(np.sum(np.log(np.diag(gp.gram_factor))))
    return float(
        -0.5 * data.y @ gp.weights - log_det_half - 0.5 * data.n * np.log(2 * np.pi)
    )


@dataclass(frozen=True)
class HyperSearchConfig:
    """Multi-start marginal-likelihood search settings.

    Boxes are relative: lengthscale variances span
    ``lengthscale_box * range(X)^2`` per dimension, amplitude spans
    ``amplitude_box * var(y)``, noise spans ``noise_box * var(y)``.
    ``fixed_noise`` pins the noise variance instead of searching it.
    """

    starts: int = 8
    seed: int = 0
    max_iterations: int = 200
    lengthscale_box: tuple = (1e-2, 1e2)
    amplitude_box: tuple = (1e-3, 1e3)
    noise_box: tuple = (1e-8, 1.0)
    fixed_noise: float | None = None


def _unpack_theta(z: np.ndarray, d: int, cfg: HyperSearchConfig) -> HyperparameterSample:
    ls = np.exp(z[:d])
    s2 = float(np.exp(z[d]))
    if cfg.fixed_noise is not None:
        nv = cfg.fixed_noise
    else:
        nv = float(np.exp(z[d + 1]))
    return HyperparameterSample(
        kernel=RbfKernel(amplitude_sq=s2, lengthscales=ls), noise=NoiseModel(variance=nv)
    )


def select_hyperparameters(
    data: Dataset, search: HyperSearchConfig = HyperSearchConfig()
) -> HyperparameterSample:
    """Maximize the log marginal likelihood over log-parameterized boxes.

    Runs ``search.starts`` L-BFGS-B ascents from the box center plus
    log-uniform random starts, and returns the best candidate seen at any
    evaluation.  Deterministic given ``search.seed``.

    Raises
    ------
    InsufficientDataError
        If fewer than two data points are available.
    """
    if data.n < 2:
        raise InsufficientDataError("hyperparameter selection needs at least 2 points")
    d = data.dim

    span = np.ptp(data.X, axis=0)
    span = np.where(span > 0, span, 1.0)
    var_y = float(np.var(data.y))
    scale_y = var_y if var_y > 0 else 1.0

    lo = np.concatenate(
        [
            np.log(search.lengthscale_box[0] * span**2),
            [np.log(search.amplitude_box[0] * scale_y)],
            [] if search.fixed_noise is not None else [np.log(search.noise_box[0] * scale_y)],
        ]
    )
    hi = np.concatenate(
        [
            np.log(search.lengthscale_box[1] * span**2),
            [np.log(search.amplitude_box[1] * scale_y)],
            [] if search.fixed_noise is not None else [np.log(search.noise_box[1] * scale_y)],
        ]
    )

    best = {"value": np.inf, "z": None}

    def objective(z):
        try:
            theta = _unpack_theta(z, d, search)
            val = -log_marginal_likelihood(data, theta.kernel, theta.noise)
        except (NumericalConditioningError, FloatingPointError, ValueError):
            return 1e12
        if not np.isfinite(val):
            return 1e12
        if val < best["value"]:
            best["value"] = val
            best["z"] = z.copy()
        return val

    rng = np.random.default_rng(search.seed)
    starts = [0.5 * (lo + hi)]
    for _ in range(search.starts - 1):
        starts.append(rng.uniform(lo, hi))

    for z0 in starts:
        minimize(
            objective,
            z0,
            method="L-BFGS-B",
            bounds=list(zip(lo, hi)),
            options={"maxiter": search.max_iterations},
        )

    if best["z"] is None:
        raise NumericalConditioningError("no hyperparameter candidate was evaluable")
    return _unpack_theta(best["z"], d, search)
