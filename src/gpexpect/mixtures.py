"""Gaussian-mixture input models: density, sampling, EM fitting.

The input distribution p(x) is represented as a weighted sum of Gaussian
components.  This is the one distribution family for which the kernel
integrals in :mod:`gpexpect.acquisition` have closed forms, so arbitrary
input models are first approximated by a mixture (via :func:`fit_em` on
empirical samples, or :func:`gmm_from_box` for a uniform box).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import logsumexp

from gpexpect._numerics import as_point, as_points, forward_solve
from gpexpect.errors import InsufficientDataError

_WEIGHT_TOL = 1e-12

# EM stops after this many iterations, or once the log-likelihood gains
# less than this fraction of its magnitude (at least 1) in one iteration
_EM_MAX_ITERATIONS = 200
_EM_REL_TOLERANCE = 1e-8
# covariance eigenvalue floor, as a fraction of the mean per-dimension
# sample variance
_EM_VARIANCE_FLOOR_SCALE = 1e-6


@dataclass(frozen=True, eq=False)
class GaussianMixture:
    """Weighted Gaussian components defining the input density p(x).

    Parameters
    ----------
    weights : ndarray, shape (k,)
        Component weights, all positive, summing to 1 within 1e-12.
    means : ndarray, shape (k, d)
        Component means.
    covs : ndarray, shape (k, d, d)
        Component covariances, each symmetric positive definite.
    """

    weights: np.ndarray
    means: np.ndarray
    covs: np.ndarray
    _chols: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        m = np.asarray(self.means, dtype=float)
        if m.ndim == 1:
            m = m.reshape(w.size, -1)
        c = np.asarray(self.covs, dtype=float)
        if c.ndim == 2:
            c = c.reshape(w.size, m.shape[1], m.shape[1])
        k, d = m.shape
        if w.shape != (k,) or c.shape != (k, d, d):
            raise ValueError(
                f"inconsistent shapes: weights {w.shape}, means {m.shape}, covs {c.shape}"
            )
        if not (np.all(w > 0) and abs(w.sum() - 1.0) <= _WEIGHT_TOL):
            raise ValueError("weights must be positive and sum to 1 within 1e-12")
        if not (np.all(np.isfinite(m)) and np.all(np.isfinite(c))):
            raise ValueError("means and covariances must be finite")
        try:
            chols = np.linalg.cholesky(0.5 * (c + np.swapaxes(c, 1, 2)))
        except np.linalg.LinAlgError as exc:
            raise ValueError("every component covariance must be SPD") from exc
        for name, arr in (("weights", w), ("means", m), ("covs", c), ("_chols", chols)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_components(self) -> int:
        return self.weights.size

    @property
    def dim(self) -> int:
        return self.means.shape[1]


def _component_log_pdfs(mix: GaussianMixture, X: np.ndarray) -> np.ndarray:
    """Per-component Gaussian log densities, shape (n, k)."""
    n = X.shape[0]
    k, d = mix.means.shape
    out = np.empty((n, k))
    for i in range(k):
        L = mix._chols[i]
        u = forward_solve(L, (X - mix.means[i]).T)
        log_det = np.sum(np.log(np.diag(L)))
        out[:, i] = -0.5 * np.sum(u * u, axis=0) - log_det - 0.5 * d * np.log(2 * np.pi)
    return out


def same_mixture(a: GaussianMixture, b: GaussianMixture) -> bool:
    """Whether two mixtures hold equal weights, means and covariances."""
    pairs = ((a.weights, b.weights), (a.means, b.means), (a.covs, b.covs))
    return all(x is y or np.array_equal(x, y) for x, y in pairs)


def log_pdf(mix: GaussianMixture, x) -> float:
    x = as_point(x, mix.dim, "x")
    lp = _component_log_pdfs(mix, x[None, :])[0]
    return float(logsumexp(lp, b=mix.weights))


def pdf(mix: GaussianMixture, x) -> float:
    """Mixture density at ``x``: sum of weighted Gaussian densities."""
    return float(np.exp(log_pdf(mix, x)))


def pdf_many(mix: GaussianMixture, X) -> np.ndarray:
    """Mixture density at each row of the ``(n, d)`` array ``X``."""
    lp = _component_log_pdfs(mix, as_points(X, mix.dim))
    return np.exp(logsumexp(lp, axis=1, b=mix.weights[None, :]))


def sample(mix: GaussianMixture, count: int, seed: int) -> np.ndarray:
    """Draw ``count`` points from the mixture; deterministic given ``seed``.

    Each draw picks a component by weight and then adds a correlated
    Gaussian perturbation to its mean.  Returns an ``(count, d)`` array.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    rng = np.random.default_rng(seed)
    comp = rng.choice(mix.n_components, size=count, p=mix.weights)
    z = rng.standard_normal((count, mix.dim))
    return mix.means[comp] + np.einsum("nij,nj->ni", mix._chols[comp], z)


def mixture_mean(mix: GaussianMixture) -> np.ndarray:
    """Overall mean of the mixture, sum of weighted component means."""
    return mix.weights @ mix.means


def mixture_marginal_std(mix: GaussianMixture) -> np.ndarray:
    """Per-dimension standard deviation of the mixture (length d)."""
    mu = mixture_mean(mix)
    second = mix.weights @ (np.diagonal(mix.covs, axis1=1, axis2=2) + mix.means**2)
    return np.sqrt(np.maximum(second - mu**2, 0.0))


def component_box(mix: GaussianMixture, width: float):
    """Smallest box containing every component mean +- width component stds.

    Returns ``(lower, upper)`` d-vectors.
    """
    stds = np.sqrt(np.diagonal(mix.covs, axis1=1, axis2=2))
    lower = np.min(mix.means - width * stds, axis=0)
    upper = np.max(mix.means + width * stds, axis=0)
    return lower, upper


def _floor_covariance(cov: np.ndarray, floor: float) -> np.ndarray:
    """Clamp eigenvalues from below so the covariance stays SPD."""
    vals, vecs = np.linalg.eigh(0.5 * (cov + cov.T))
    vals = np.maximum(vals, floor)
    return (vecs * vals) @ vecs.T


def _kmeans_init(X: np.ndarray, k: int, rng) -> np.ndarray:
    """Greedy farthest-point seeding followed by Lloyd iterations."""
    n = X.shape[0]
    centers = [X[rng.integers(n)]]
    for _ in range(k - 1):
        d2 = np.min(
            [np.sum((X - c) ** 2, axis=1) for c in centers], axis=0
        )
        total = d2.sum()
        if total <= 0:
            centers.append(X[rng.integers(n)])
            continue
        centers.append(X[rng.choice(n, p=d2 / total)])
    centers = np.array(centers)
    for _ in range(50):
        assign = np.argmin(
            np.sum((X[:, None, :] - centers[None, :, :]) ** 2, axis=2), axis=1
        )
        new_centers = centers.copy()
        for j in range(k):
            members = X[assign == j]
            if members.shape[0] > 0:
                new_centers[j] = members.mean(axis=0)
        if np.allclose(new_centers, centers):
            break
        centers = new_centers
    return centers


def fit_em_trace(samples, k: int, seed: int = 0):
    """EM fit returning the mixture and the per-iteration log-likelihood.

    The trace is the total data log-likelihood after each EM iteration;
    it is non-decreasing up to arithmetic noise.  Deterministic given
    ``seed``, which seeds the k-means initialization.

    Raises
    ------
    ValueError
        If a sample is not finite; the message names its row.
    InsufficientDataError
        If fewer than ``10 * k`` samples are supplied.
    """
    X = np.asarray(samples, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    n, d = X.shape
    bad = np.flatnonzero(~np.all(np.isfinite(X), axis=1))
    if bad.size:
        raise ValueError(f"sample row {bad[0]} (from 0) is not finite: {X[bad[0]].tolist()}")
    if k < 1:
        raise ValueError("k must be at least 1")
    if n < 10 * k:
        raise InsufficientDataError(f"EM with k={k} needs at least {10 * k} samples, got {n}")

    rng = np.random.default_rng(seed)
    # variance floor is relative to the overall data spread
    data_var = float(np.mean(np.var(X, axis=0)))
    floor = _EM_VARIANCE_FLOOR_SCALE * max(data_var, 1e-30)

    centers = _kmeans_init(X, k, rng)
    assign = np.argmin(np.sum((X[:, None, :] - centers[None, :, :]) ** 2, axis=2), axis=1)
    weights = np.zeros(k)
    means = centers.copy()
    covs = np.empty((k, d, d))
    for j in range(k):
        members = X[assign == j]
        weights[j] = max(members.shape[0], 1) / n
        if members.shape[0] > 0:
            means[j] = members.mean(axis=0)
            diff = members - means[j]
            covs[j] = diff.T @ diff / members.shape[0]
        else:
            covs[j] = np.eye(d) * max(data_var, floor)
        covs[j] = _floor_covariance(covs[j], floor)
    weights = weights / weights.sum()

    trace = []
    mix = GaussianMixture(weights=weights, means=means, covs=covs)
    for _ in range(_EM_MAX_ITERATIONS):
        # E step: responsibilities in log space
        lp = _component_log_pdfs(mix, X) + np.log(mix.weights)[None, :]
        norm = logsumexp(lp, axis=1)
        trace.append(float(norm.sum()))
        resp = np.exp(lp - norm[:, None])

        # M step
        nk = resp.sum(axis=0)
        nk = np.maximum(nk, 1e-300)
        weights = nk / n
        means = (resp.T @ X) / nk[:, None]
        covs = np.empty((k, d, d))
        for j in range(k):
            diff = X - means[j]
            covs[j] = _floor_covariance((resp[:, j] * diff.T) @ diff / nk[j], floor)
        weights = weights / weights.sum()
        mix = GaussianMixture(weights=weights, means=means, covs=covs)

        if len(trace) >= 2:
            prev, cur = trace[-2], trace[-1]
            if cur - prev <= _EM_REL_TOLERANCE * max(1.0, abs(prev)):
                break
    lp = _component_log_pdfs(mix, X) + np.log(mix.weights)[None, :]
    trace.append(float(logsumexp(lp, axis=1).sum()))
    return mix, np.array(trace)


def fit_em(samples, k: int, seed: int = 0) -> GaussianMixture:
    """Fit a k-component mixture to empirical samples by EM."""
    mix, _ = fit_em_trace(samples, k, seed)
    return mix


def gmm_from_box(lower, upper, per_dim: int) -> GaussianMixture:
    """Moment-spread approximation of a uniform box density.

    Places an equal-weight Gaussian at the center of each cell of a
    ``per_dim``-per-axis grid, with per-dimension standard deviation
    ``(upper - lower) / (2 * per_dim)``.  The mixture mean is the box
    center regardless of ``per_dim``.

    Raises
    ------
    ValueError
        If ``per_dim ** d`` exceeds 1e5 components, or the box is empty.
    """
    lower = np.atleast_1d(np.asarray(lower, dtype=float))
    upper = np.atleast_1d(np.asarray(upper, dtype=float))
    if lower.shape != upper.shape or lower.ndim != 1:
        raise ValueError("lower and upper must be vectors of equal length")
    if not np.all(lower < upper):
        raise ValueError("lower must be elementwise below upper")
    if per_dim < 1:
        raise ValueError("per_dim must be at least 1")
    d = lower.size
    n_comp = per_dim**d
    if n_comp > 1e5:
        raise ValueError(f"per_dim**d = {n_comp} components exceeds the 1e5 limit")

    width = upper - lower
    centers_1d = [
        lower[j] + width[j] * (np.arange(per_dim) + 0.5) / per_dim for j in range(d)
    ]
    grids = np.meshgrid(*centers_1d, indexing="ij")
    means = np.stack([g.ravel() for g in grids], axis=1)
    std = width / (2 * per_dim)
    cov = np.diag(std**2)
    return GaussianMixture(
        weights=np.full(n_comp, 1.0 / n_comp),
        means=means,
        covs=np.broadcast_to(cov, (n_comp, d, d)).copy(),
    )


def mixture_to_dict(mix: GaussianMixture) -> dict:
    """JSON-ready representation: {"components": [{weight, mean, cov}, ...]}."""
    return {
        "components": [
            {
                "weight": float(mix.weights[i]),
                "mean": mix.means[i].tolist(),
                "cov": mix.covs[i].tolist(),
            }
            for i in range(mix.n_components)
        ]
    }


def _has_bool_or_text(value) -> bool:
    """Whether a leaf of ``value`` (nested lists, tuples or arrays) is a bool or a string."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return any(_has_bool_or_text(v) for v in value)
    return isinstance(value, (bool, np.bool_, str))


def mixture_from_dict(doc: dict) -> GaussianMixture:
    """Inverse of :func:`mixture_to_dict`; validates the schema shape.

    A boolean or a string where a number belongs is a ``ValueError`` naming
    the component and the field, not a number.
    """
    if not isinstance(doc, dict) or "components" not in doc:
        raise ValueError('mixture document must be {"components": [...]}')
    comps = doc["components"]
    if not isinstance(comps, list) or len(comps) == 0:
        raise ValueError("mixture needs at least one component")
    weights, means, covs = [], [], []
    for i, comp in enumerate(comps):
        try:
            extra = set(comp) - {"weight", "mean", "cov"}
            if extra:
                raise ValueError(f"component {i}: unknown keys {sorted(extra)}")
            for name in ("weight", "mean", "cov"):
                if _has_bool_or_text(comp[name]):
                    raise ValueError(f"component {i}: {name} holds a boolean or a string")
            weights.append(float(comp["weight"]))
            means.append(np.asarray(comp["mean"], dtype=float))
            covs.append(np.asarray(comp["cov"], dtype=float))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"component {i}: needs weight, mean, cov") from exc
    return GaussianMixture(
        weights=np.array(weights), means=np.array(means), covs=np.array(covs)
    )
