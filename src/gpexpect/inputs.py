"""Building a Gaussian-mixture input model: densities, EM fitting, box grids, dicts.

The CLI turns a user's input model into a :class:`GaussianMixture` here:
:func:`fit_em` fits one to empirical samples, :func:`gmm_from_box`
approximates a uniform box, and :func:`mixture_from_dict` reads one from
JSON.  The densities check the kernel integrals and the fits.  A run of
the design loop only reads the mixture it is handed, so no run imports
this module, and none of its code is compiled at a run's start-up.
"""

from __future__ import annotations

import numpy as np

from gpexpect._numerics import as_point, as_points, require_count
from gpexpect.errors import InsufficientDataError
from gpexpect.mixtures import GaussianMixture, component_quads

# EM stops after this many iterations, or once the log-likelihood gains
# less than this fraction of its magnitude (at least 1) in one iteration
_EM_MAX_ITERATIONS = 200
_EM_REL_TOLERANCE = 1e-8
# covariance eigenvalue floor, as a fraction of the mean per-dimension
# sample variance
_EM_VARIANCE_FLOOR_SCALE = 1e-6
# seed of the k-means initialization, so a fit depends on the samples alone
_EM_SEED = 0


def _component_log_pdfs(mix: GaussianMixture, X: np.ndarray) -> np.ndarray:
    """Per-component Gaussian log densities, shape (n, k)."""
    log_dets = np.sum(np.log(np.diagonal(mix.chols, axis1=1, axis2=2)), axis=1)
    quads = component_quads(mix.chols, mix.means, X).T
    return -0.5 * quads - log_dets - 0.5 * mix.dim * np.log(2 * np.pi)


def _log_sum_exp(a: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """log(sum_j weights_j exp(a[..., j])), shifted by each row's max; all ``-inf`` gives ``-inf``."""
    top = np.max(a, axis=-1, keepdims=True)
    top[~np.isfinite(top)] = 0.0
    with np.errstate(divide="ignore"):
        return np.log(np.exp(a - top) @ weights) + top[..., 0]


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


def fit_em_trace(samples, k: int):
    """EM fit returning the mixture and the per-iteration log-likelihood.

    The trace is the total data log-likelihood after each EM iteration.
    Deterministic given the samples: the k-means initialization draws
    from the fixed seed ``_EM_SEED`` (0).
    The first mixture is the M step of the k-means assignment.  A
    component that holds no row (responsibilities summing below 1e-300)
    restarts at its k-means center with the data's spread; otherwise the
    trace is non-decreasing up to arithmetic noise.

    Raises
    ------
    ValueError
        If a sample is not finite, the message naming its row; or if ``k``
        is not an integer of at least 1 (a bool is not).
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
    require_count(k, "k", minimum=1)
    if n < 10 * k:
        raise InsufficientDataError(f"EM with k={k} needs at least {10 * k} samples, got {n}")

    # variance floor is relative to the overall data spread
    data_var = float(np.mean(np.var(X, axis=0)))
    floor = _EM_VARIANCE_FLOOR_SCALE * max(data_var, 1e-30)
    centers = _kmeans_init(X, k, np.random.default_rng(_EM_SEED))
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


def fit_em(samples, k: int) -> GaussianMixture:
    """Fit a k-component mixture to empirical samples by EM, k-means started at ``_EM_SEED``."""
    mix, _ = fit_em_trace(samples, k)
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
        If ``per_dim`` is not an integer of at least 1 (a bool is not), if
        ``per_dim ** d`` exceeds 1e5 components, or if the box is empty.
    """
    lower = np.atleast_1d(np.asarray(lower, dtype=float))
    upper = np.atleast_1d(np.asarray(upper, dtype=float))
    if lower.shape != upper.shape or lower.ndim != 1:
        raise ValueError("lower and upper must be vectors of equal length")
    if not np.all(lower < upper):
        raise ValueError("lower must be elementwise below upper")
    require_count(per_dim, "per_dim", minimum=1)
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
