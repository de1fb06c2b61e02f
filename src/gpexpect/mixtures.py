"""Gaussian-mixture input models: the mixture, sampling, moments and boxes.

The input distribution p(x) is represented as a weighted sum of Gaussian
components.  This is the one distribution family for which the kernel
integrals in :mod:`gpexpect.acquisition` have closed forms, so arbitrary
input models are first approximated by a mixture (via
:func:`gpexpect.inputs.fit_em` on empirical samples, or
:func:`gpexpect.inputs.gmm_from_box` for a uniform box).  This module holds
what a run reads of its mixture; building one, and its densities, live in
:mod:`gpexpect.inputs`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from gpexpect._numerics import forward_solve

_WEIGHT_TOL = 1e-12


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

    Attributes
    ----------
    chols : ndarray, shape (k, d, d)
        Lower Cholesky factor of each covariance, computed once at
        construction; sampling and the densities read it.
    """

    weights: np.ndarray
    means: np.ndarray
    covs: np.ndarray
    chols: np.ndarray = field(init=False, repr=False, compare=False)
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
            ("weights", w), ("means", m), ("covs", c), ("chols", chols), ("_cdf", cdf)
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


def same_mixture(a: GaussianMixture, b: GaussianMixture) -> bool:
    """Whether two mixtures hold equal weights, means and covariances."""
    pairs = ((a.weights, b.weights), (a.means, b.means), (a.covs, b.covs))
    return all(x is y or np.array_equal(x, y) for x, y in pairs)


def _components(mix: GaussianMixture, u: np.ndarray) -> np.ndarray:
    """The component each uniform draw in ``u`` picks, by a search of the weights' cdf.

    This is ``Generator.choice``'s rule for weighted draws with replacement.
    """
    return mix._cdf.searchsorted(u, side="right")


def _draws(mix: GaussianMixture, comp: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The draws of components ``comp`` (n,) from standard-normal rows ``z`` (n, d).

    Each row is transformed by its component's Cholesky factor and shifted
    by its mean, in one einsum that gives a row the same bits in a batch of
    any size.  Every draw of this module is made here.
    """
    return mix.means[comp] + np.einsum("nij,nj->ni", mix.chols[comp], z)


def sample(mix: GaussianMixture, count: int, seed: int) -> np.ndarray:
    """Draw ``count`` points from the mixture; deterministic given ``seed``.

    One ``random(count)`` call picks every draw's component by weight
    (:func:`_components`), then one ``standard_normal((count, d))`` call
    gives each draw a row, which :func:`_draws` transforms.
    :func:`first_samples_inside` reads the same stream one row at a time.
    Returns an ``(count, d)`` array.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    rng = np.random.default_rng(seed)
    comp = _components(mix, rng.random(count))
    return _draws(mix, comp, rng.standard_normal((count, mix.dim)))


def first_samples_inside(mix: GaussianMixture, lower, upper, count: int, seeds) -> np.ndarray:
    """Per seed, the first of ``sample(mix, count, seed)`` inside the box ``[lower, upper]``.

    Returns an ``(len(seeds), d)`` array whose row is NaN where none of a
    seed's draws is inside.  Each seed's stream gives its ``count``
    uniforms, which pick the draws' components, then one normal row per
    draw, as in :func:`sample`, and the rows after the first one inside
    are never drawn.  The streams go in lockstep: each round draws the
    next row of every stream still missing, and transforms and box-checks
    them together.
    """
    rngs = [np.random.default_rng(seed) for seed in seeds]
    u = np.array([rng.random(count) for rng in rngs])
    points = np.full((len(rngs), mix.dim), np.nan)
    missing = np.arange(len(rngs))
    for r in range(count):
        if not missing.size:
            break
        z = np.array([rngs[s].standard_normal(mix.dim) for s in missing])
        x = _draws(mix, _components(mix, u[missing, r]), z)
        inside = ((x >= lower) & (x <= upper)).all(axis=1)
        points[missing[inside]] = x[inside]
        missing = missing[~inside]
    return points


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
