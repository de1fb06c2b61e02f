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
    # the weights' cumulative sums over their total, which a draw's uniform searches
    _cdf: np.ndarray = field(init=False, repr=False, compare=False)

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
        cdf = w.cumsum()
        cdf /= cdf[-1]
        for name, arr in (
            ("weights", w), ("means", m), ("covs", c), ("_chols", chols), ("_cdf", cdf)
        ):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_components(self) -> int:
        return self.weights.size

    @property
    def dim(self) -> int:
        return self.means.shape[1]


def component_quads(chols: np.ndarray, means: np.ndarray, X: np.ndarray) -> np.ndarray:
    """(x - m_i)^T (L_i L_i^T)^-1 (x - m_i) per factor L_i of ``chols``, mean m_i and row x of ``X``.

    One multi-column :func:`forward_solve` per component takes all n rows;
    summing each (d, n) block alone gives the bits of a sum over their stack.
    """
    solves = (forward_solve(chol, (X - mean).T) for chol, mean in zip(chols, means))
    return np.array([np.sum(u * u, axis=0) for u in solves])  # (k, n)


def _component_log_pdfs(mix: GaussianMixture, X: np.ndarray) -> np.ndarray:
    """Per-component Gaussian log densities, shape (n, k)."""
    log_dets = np.sum(np.log(np.diagonal(mix._chols, axis1=1, axis2=2)), axis=1)
    quads = component_quads(mix._chols, mix.means, X).T
    return -0.5 * quads - log_dets - 0.5 * mix.dim * np.log(2 * np.pi)


def _log_sum_exp(a: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """log(sum_j weights_j exp(a[..., j])), shifted by each row's max; all ``-inf`` gives ``-inf``."""
    top = np.max(a, axis=-1, keepdims=True)
    top[~np.isfinite(top)] = 0.0
    with np.errstate(divide="ignore"):
        return np.log(np.exp(a - top) @ weights) + top[..., 0]


def same_mixture(a: GaussianMixture, b: GaussianMixture) -> bool:
    """Whether two mixtures hold equal weights, means and covariances."""
    pairs = ((a.weights, b.weights), (a.means, b.means), (a.covs, b.covs))
    return all(x is y or np.array_equal(x, y) for x, y in pairs)


def log_pdf(mix: GaussianMixture, x) -> float:
    """Log of the mixture density at ``x``."""
    x = as_point(x, mix.dim, "x")
    return float(_log_sum_exp(_component_log_pdfs(mix, x[None, :]), mix.weights)[0])


def pdf(mix: GaussianMixture, x) -> float:
    """Mixture density at ``x``: sum of weighted Gaussian densities."""
    return float(np.exp(log_pdf(mix, x)))


def pdf_many(mix: GaussianMixture, X) -> np.ndarray:
    """Mixture density at each row of the ``(n, d)`` array ``X``."""
    lp = _component_log_pdfs(mix, as_points(X, mix.dim))
    return np.exp(_log_sum_exp(lp, mix.weights))


def _components(mix: GaussianMixture, u: np.ndarray) -> np.ndarray:
    """The component each uniform draw in ``u`` picks, by a search of the weights' cdf.

    This is ``Generator.choice``'s rule for weighted draws with replacement.
    """
    return mix._cdf.searchsorted(u, side="right")


def sample(mix: GaussianMixture, count: int, seed: int) -> np.ndarray:
    """Draw ``count`` points from the mixture; deterministic given ``seed``.

    One ``random(count)`` call picks every draw's component by weight
    (:func:`_components`), then one ``standard_normal((count, d))`` call
    gives each draw a row, which its component's Cholesky factor
    transforms and its mean shifts.  :func:`first_sample_inside` reads the
    same stream one row at a time.  Returns an ``(count, d)`` array.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    rng = np.random.default_rng(seed)
    comp = _components(mix, rng.random(count))
    z = rng.standard_normal((count, mix.dim))
    return mix.means[comp] + np.einsum("nij,nj->ni", mix._chols[comp], z)


def first_sample_inside(mix: GaussianMixture, lower, upper, count: int, seed: int):
    """The first of ``sample(mix, count, seed)`` inside the box ``[lower, upper]``, or None.

    The draws are made one row at a time from the same stream, so the rows
    after the first one inside the box are never drawn.
    """
    rng = np.random.default_rng(seed)
    for c in _components(mix, rng.random(count)):
        z = rng.standard_normal(mix.dim)
        # sample's transform on a batch of one row, which gives the row its bits
        x = mix.means[c] + np.einsum("nij,nj->ni", mix._chols[c, None], z[None])[0]
        if np.all((x >= lower) & (x <= upper)):
            return x
    return None


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


def _nearest(X: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Index of the nearest of ``centers`` to each row of ``X``; ties go to the first."""
    return np.argmin(np.sum((X[:, None, :] - centers[None, :, :]) ** 2, axis=2), axis=1)


def _kmeans_init(X: np.ndarray, k: int, rng) -> np.ndarray:
    """k-means++ seeding followed by Lloyd iterations."""
    n = X.shape[0]
    centers = [X[rng.integers(n)]]
    # squared distance of each row to its nearest center so far
    d2 = np.sum((X - centers[0]) ** 2, axis=1)
    for _ in range(k - 1):
        total = d2.sum()
        pick = rng.integers(n) if total <= 0 else rng.choice(n, p=d2 / total)
        centers.append(X[pick])
        d2 = np.minimum(d2, np.sum((X - X[pick]) ** 2, axis=1))
    centers = np.array(centers)
    for _ in range(50):
        assign = _nearest(X, centers)
        new_centers = centers.copy()
        for j in range(k):
            members = X[assign == j]
            if members.shape[0] > 0:
                new_centers[j] = members.mean(axis=0)
        if np.allclose(new_centers, centers):
            break
        centers = new_centers
    return centers


def _m_step(X: np.ndarray, resp: np.ndarray, floor: float, fallback) -> GaussianMixture:
    """The mixture that maximizes the expected log-likelihood under ``resp`` (n, k).

    A component whose responsibilities sum below 1e-300 (none, for an
    empty k-means cluster) takes the weight of one row and the mean and
    covariance of ``fallback``, a ``(means, cov)`` pair.  Every covariance
    has its eigenvalues clamped to ``floor`` from below, so it stays SPD.
    """
    d = X.shape[1]
    nk = resp.sum(axis=0)
    empty = nk < 1e-300
    nk[empty] = 1.0
    means = (resp.T @ X) / nk[:, None]
    covs = np.empty((nk.size, d, d))
    for j in range(nk.size):
        diff = X - means[j]
        covs[j] = (resp[:, j] * diff.T) @ diff / nk[j]
    means[empty] = fallback[0][empty]
    covs[empty] = fallback[1]
    vals, vecs = np.linalg.eigh(0.5 * (covs + covs.transpose(0, 2, 1)))
    covs = (vecs * np.maximum(vals, floor)[:, None, :]) @ vecs.transpose(0, 2, 1)
    return GaussianMixture(weights=nk / nk.sum(), means=means, covs=covs)


def fit_em_trace(samples, k: int, seed: int = 0):
    """EM fit returning the mixture and the per-iteration log-likelihood.

    The trace is the total data log-likelihood after each EM iteration.
    Deterministic given ``seed``, which seeds the k-means initialization.
    The first mixture is the M step of the k-means assignment.  A
    component that holds no row (responsibilities summing below 1e-300)
    restarts at its k-means center with the data's spread; otherwise the
    trace is non-decreasing up to arithmetic noise.

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

    # variance floor is relative to the overall data spread
    data_var = float(np.mean(np.var(X, axis=0)))
    floor = _EM_VARIANCE_FLOOR_SCALE * max(data_var, 1e-30)
    centers = _kmeans_init(X, k, np.random.default_rng(seed))
    fallback = (centers, np.eye(d) * max(data_var, floor))
    mix = _m_step(X, np.eye(k)[_nearest(X, centers)], floor, fallback)

    trace = []
    for _ in range(_EM_MAX_ITERATIONS):
        # E step: responsibilities in log space
        lp = _component_log_pdfs(mix, X)
        norm = _log_sum_exp(lp, mix.weights)
        trace.append(float(norm.sum()))
        mix = _m_step(X, mix.weights * np.exp(lp - norm[:, None]), floor, fallback)
        if len(trace) >= 2:
            prev, cur = trace[-2], trace[-1]
            if cur - prev <= _EM_REL_TOLERANCE * max(1.0, abs(prev)):
                break
    trace.append(float(_log_sum_exp(_component_log_pdfs(mix, X), mix.weights).sum()))
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

    A component that is not an object, or a boolean or a string where a
    number belongs, is a ``ValueError`` naming the component (and the
    field), not a number.
    """
    if not isinstance(doc, dict) or "components" not in doc:
        raise ValueError('mixture document must be {"components": [...]}')
    comps = doc["components"]
    if not isinstance(comps, list) or len(comps) == 0:
        raise ValueError("mixture needs at least one component")
    weights, means, covs = [], [], []
    for i, comp in enumerate(comps):
        if not isinstance(comp, dict):
            raise ValueError(f"component {i}: must be an object with weight, mean, cov")
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
