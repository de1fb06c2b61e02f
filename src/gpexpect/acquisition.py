"""Estimate of q = E[f] and the variance-reduction acquisition.

Everything here rests on two closed-form integrals of the RBF kernel
against a Gaussian mixture: the kernel mean K(x) = int k(x, x') p(x') dx'
and the double integral of k against p twice.  From those, the posterior
of q is Gaussian with

    mu1    = K(X_n)^T (K + noise I)^-1 y
    sigma1^2 = double integral - K(X_n)^T (K + noise I)^-1 K(X_n)

and a hypothetical extra observation at xt shrinks the variance by
S(xt)^2, where S = int k_n(xt, x) p(x) dx / sqrt(k_n(xt, xt) + noise).
The expected KL information gain of that observation reduces exactly to
log(sigma1 / sigma2); the four-term form is kept alongside the reduced
one so the cancellation is checkable rather than assumed.

One probe of candidate rows gives k(x, X_n) and one Gram solve of it,
hence v(x) and the predictive variance (Rasmussen & Williams, GPML,
Alg. 2.1); S, sigma2^2 and the gain terms are each derived once, on
arrays.  :func:`acquisition_profile` returns them for a grid, and every
scalar form is row 0 of a one-row probe, so a one-row profile equals the
scalar forms bit for bit (larger ones to rounding).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from gpexpect._numerics import as_point, as_points, chol_solve, forward_solve
from gpexpect.errors import DegenerateEstimateError
from gpexpect.gp import GpPosterior
from gpexpect.kernels import RbfKernel, eval_kernel_scaled, kernel_cross
from gpexpect.mixtures import GaussianMixture, same_mixture

# log-gain sentinel standing in for +inf when sigma2^2 underflows to 0;
# comfortably above any finite log-variance ratio that matters while
# staying exp-able in double precision
GAIN_SENTINEL = 700.0

# predictive variances below this fraction of the amplitude mean the
# candidate is already fully observed (duplicated noiseless point)
_PRED_VAR_FLOOR = 1e-14


@dataclass(frozen=True)
class QEstimate:
    """Gaussian posterior of the integral: mean mu1 and variance sigma1^2."""

    mean: float
    variance: float

    def __post_init__(self):
        v = float(self.variance)
        if v < 0.0:
            if v < -1e-12:
                raise ValueError(f"estimate variance {v} is negative beyond tolerance")
            v = 0.0
        object.__setattr__(self, "mean", float(self.mean))
        object.__setattr__(self, "variance", v)


def _component_factors(ker: RbfKernel, covs, det_power: float = -0.5):
    """Cholesky of cov_i + Lambda and |I + inv(Lambda) cov_i|^det_power per component.

    The log-determinant is log|Lambda + C| - log|Lambda| through the
    Cholesky factor, which stays finite and accurate for strongly
    anisotropic scales.
    """
    chols = np.empty((len(covs), ker.dim, ker.dim))
    factors = np.empty(len(covs))
    for i, cov in enumerate(covs):
        total = cov + np.diag(ker.lengthscales)
        try:
            chols[i] = np.linalg.cholesky(0.5 * (total + total.T))
        except np.linalg.LinAlgError as exc:
            raise ValueError("component covariance must be SPD") from exc
        log_det = 2.0 * np.sum(np.log(np.diag(chols[i]))) - np.sum(np.log(ker.lengthscales))
        factors[i] = np.exp(det_power * float(log_det))
    return chols, factors


def _component_means(x, amplitude_sq: float, means, chols, factors) -> np.ndarray:
    """K_i(x) = factor_i * k(x, mean_i; cov_i + Lambda) for each component."""
    x = as_point(x, means.shape[1], "x")
    out = np.empty(len(means))
    for i, (mean, chol, factor) in enumerate(zip(means, chols, factors)):
        u = forward_solve(chol, x - mean)
        out[i] = factor * (amplitude_sq * np.exp(-0.5 * np.dot(u, u)))
    return out


def _kernel_mean_gradient(x, amplitude_sq: float, mix: GaussianMixture, chols, factors):
    """Sum over components of -w_i K_i(x) (cov_i + Lambda)^-1 (x - mean_i)."""
    k_i = _component_means(x, amplitude_sq, mix.means, chols, factors)
    grad = np.zeros(x.size)
    for w, mean, chol, k in zip(mix.weights, mix.means, chols, k_i):
        grad -= w * k * chol_solve(chol, x - mean)
    return grad


def kernel_mean_component(x, ker: RbfKernel, mean, cov, det_power: float = -0.5) -> float:
    """Integral of k(x, .) against one Gaussian component N(mean, cov).

    Closed form: |I + inv(Lambda) cov|^(-1/2) * k(x, mean; cov + Lambda).
    ``det_power`` exists as a validation hook (the determinant exponent is
    exactly the part a typo would get wrong); leave it at the default.
    """
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    chols, factors = _component_factors(ker, cov[None], det_power)
    return float(_component_means(x, ker.amplitude_sq, mean[None], chols, factors)[0])


def kernel_mean(x, ker: RbfKernel, mix: GaussianMixture, det_power: float = -0.5) -> float:
    """Kernel mean K(x) = int k(x, x') p(x') dx' under the mixture."""
    chols, factors = _component_factors(ker, mix.covs, det_power)
    k_i = _component_means(x, ker.amplitude_sq, mix.means, chols, factors)
    return float(sum(w * k for w, k in zip(mix.weights, k_i)))


def kernel_mean_gradient(x, ker: RbfKernel, mix: GaussianMixture) -> np.ndarray:
    """Gradient of the kernel mean in x.

    Per component: -(cov + Lambda)^-1 (x - mean) * K_i(x).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    chols, factors = _component_factors(ker, mix.covs)
    return _kernel_mean_gradient(x, ker.amplitude_sq, mix, chols, factors)


def double_kernel_mean(ker: RbfKernel, mix: GaussianMixture) -> float:
    """Double integral of the kernel against the mixture in both slots.

    Sum over component pairs of
    |Lambda|^(1/2) |Lambda + C_i + C_j|^(-1/2) k(m_i, m_j; Lambda + C_i + C_j),
    the prior variance of the integral estimate.
    """
    lam = np.diag(ker.lengthscales)
    log_lam = np.sum(np.log(ker.lengthscales))
    total = 0.0
    k = mix.n_components
    for i in range(k):
        for j in range(i, k):
            scale = lam + mix.covs[i] + mix.covs[j]
            chol = np.linalg.cholesky(0.5 * (scale + scale.T))
            log_factor = 0.5 * log_lam - np.sum(np.log(np.diag(chol)))
            term = (
                mix.weights[i]
                * mix.weights[j]
                * np.exp(log_factor)
                * eval_kernel_scaled(mix.means[i], mix.means[j], ker.amplitude_sq, scale)
            )
            total += term if i == j else 2.0 * term
    return float(total)


@dataclass(frozen=True, eq=False)
class AcquisitionContext:
    """Precomputed state making each acquisition probe O(n).

    ``kmean_train`` holds K(x_i) at the training inputs, ``solved_kmean``
    the Gram-system solve of that vector.  The private component caches
    (Cholesky of cov_i + Lambda, determinant prefactors) let kernel-mean
    evaluations at probes skip refactorizations.
    """

    gp: GpPosterior
    mix: GaussianMixture
    kmean_train: np.ndarray
    solved_kmean: np.ndarray
    mu1: float
    sigma1_sq: float
    _comp_chols: np.ndarray = field(repr=False)
    _comp_factors: np.ndarray = field(repr=False)

    @property
    def estimate(self) -> QEstimate:
        return QEstimate(mean=self.mu1, variance=self.sigma1_sq)


def _kernel_mean_many(ctx: AcquisitionContext, X: np.ndarray) -> np.ndarray:
    """K(x) for each row of X, using the context's component caches."""
    ker = ctx.gp.kernel
    out = np.zeros(X.shape[0])
    for i in range(ctx.mix.n_components):
        u = forward_solve(ctx._comp_chols[i], (X - ctx.mix.means[i]).T)
        quad = (u * u).sum(axis=0)
        out += ctx.mix.weights[i] * ctx._comp_factors[i] * ker.amplitude_sq * np.exp(-0.5 * quad)
    return out


def build_context(gp: GpPosterior, mix: GaussianMixture) -> AcquisitionContext:
    """Assemble the estimate (mu1, sigma1^2) and the probe caches."""
    if gp.dim != mix.dim:
        raise ValueError(f"gp dimension {gp.dim} != mixture dimension {mix.dim}")
    ker = gp.kernel
    comp_chols, comp_factors = _component_factors(ker, mix.covs)

    if gp.n == 0:
        kmean_train = np.zeros(0)
        solved = np.zeros(0)
        mu1 = 0.0
        sigma1_sq = double_kernel_mean(ker, mix)
    else:
        u = np.stack(
            [
                forward_solve(comp_chols[i], (gp.data.X - mix.means[i]).T)
                for i in range(mix.n_components)
            ]
        )
        quad = np.sum(u * u, axis=1)
        kmean_train = (
            (mix.weights * comp_factors) @ (ker.amplitude_sq * np.exp(-0.5 * quad))
        )
        solved = chol_solve(gp.gram_factor, kmean_train)
        mu1 = float(kmean_train @ gp.weights)
        sigma1_sq = float(double_kernel_mean(ker, mix) - kmean_train @ solved)
    sigma1_sq = max(sigma1_sq, 0.0)
    return AcquisitionContext(
        gp=gp,
        mix=mix,
        kmean_train=kmean_train,
        solved_kmean=solved,
        mu1=mu1,
        sigma1_sq=sigma1_sq,
        _comp_chols=comp_chols,
        _comp_factors=comp_factors,
    )


class _Probe(NamedTuple):
    """Everything the acquisition forms need at each of m candidate rows."""

    kv: np.ndarray  # (m, n) kernel rows k(x, X_n)
    solved_kv: np.ndarray  # (m, n) rows of (K + noise I)^-1 k(x, X_n)
    v: np.ndarray  # (m,) int k_n(x, x') p(x') dx', the posterior-covariance kernel mean
    pred_var: np.ndarray  # (m,) k_n(x, x) + noise
    live: np.ndarray  # (m,) False where pred_var is below the floor: nothing left to learn


def _row_dots(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """a_i @ b_i per row of A (B: matching rows or one vector), one BLAS dot each as ``a @ b``."""
    return (A[:, None, :] @ B[..., None])[:, 0, 0]


def _probe(ctx: AcquisitionContext, X: np.ndarray) -> _Probe:
    """Probe the (m, d) candidate rows of ``X`` with one Gram solve."""
    gp = ctx.gp
    kv = kernel_cross(X, gp.data.X, gp.kernel)
    v = _kernel_mean_many(ctx, X)
    if gp.n:
        solved_kv = chol_solve(gp.gram_factor, kv.T).T
        pred_var = gp.kernel.amplitude_sq - _row_dots(kv, solved_kv) + gp.noise.variance
        v = v - _row_dots(kv, ctx.solved_kmean)
    else:
        solved_kv = kv
        pred_var = np.full(len(v), gp.kernel.amplitude_sq + gp.noise.variance)
    live = pred_var >= _PRED_VAR_FLOOR * gp.kernel.amplitude_sq
    return _Probe(kv, solved_kv, v, pred_var, live)


def _one_row(xt) -> np.ndarray:
    return np.atleast_1d(np.asarray(xt, dtype=float))[None, :]


def _informative_var(p: _Probe) -> np.ndarray:
    """The predictive variance where live, else +inf: S, v^2 / D and v / D read zero there."""
    return np.where(p.live, p.pred_var, np.inf)


def _s(p: _Probe) -> np.ndarray:
    """S = v / sqrt(D), zero where not live."""
    return p.v / np.sqrt(_informative_var(p))


def _s_sq(p: _Probe) -> np.ndarray:
    """The acquisition S^2, the drop in estimate variance."""
    s = _s(p)
    return s * s


def _sigma2_sq(ctx: AcquisitionContext, p: _Probe) -> np.ndarray:
    """sigma2^2 = max(sigma1^2 - v^2 / D, 0), or sigma1^2 where not live."""
    return np.maximum(ctx.sigma1_sq - p.v * p.v / _informative_var(p), 0.0)


def _gain(ctx: AcquisitionContext, sigma2_sq: np.ndarray) -> np.ndarray:
    """log(sigma1 / sigma2), or the sentinel where sigma2^2 is zero."""
    if ctx.sigma1_sq <= 0.0:
        raise DegenerateEstimateError("estimate variance is zero; nothing to gain")
    gain = np.full(sigma2_sq.shape, GAIN_SENTINEL)
    nonzero = sigma2_sq != 0.0  # a NaN stays NaN, so maximize drops its start
    gain[nonzero] = 0.5 * np.log(ctx.sigma1_sq / sigma2_sq[nonzero])
    return gain


def _four_term(ctx: AcquisitionContext, p: _Probe, sigma2_sq: np.ndarray):
    """The four-term gain and its terms; t1 first, so a zero sigma1^2 raises before a division."""
    t1 = _gain(ctx, sigma2_sq)
    t2 = sigma2_sq / (2.0 * ctx.sigma1_sq)
    t3 = np.full(t2.shape, -0.5)
    t4 = p.v * p.v / (2.0 * ctx.sigma1_sq * _informative_var(p))
    return t1 + t2 + t3 + t4, (t1, t2, t3, t4)


def _s_sq_gradient(ctx: AcquisitionContext, xt: np.ndarray, p: _Probe) -> np.ndarray:
    """Gradient of S^2 = v^2 / D at ``xt``, the probe's only row, by the quotient rule.

    grad v is the kernel-mean gradient minus the Jacobian J of k(xt, X_n)
    against the solved kernel-mean system; grad D = -2 J^T (Gram^-1 k(xt, X_n)).
    """
    gp = ctx.gp
    if not p.live[0]:
        return np.zeros(gp.dim)
    grad_v = _kernel_mean_gradient(
        xt, gp.kernel.amplitude_sq, ctx.mix, ctx._comp_chols, ctx._comp_factors
    )
    J = -(xt - gp.data.X) / gp.kernel.lengthscales * p.kv[0][:, None]
    grad_v = grad_v - J.T @ ctx.solved_kmean
    grad_D = -2.0 * (J.T @ p.solved_kv[0])
    v, D = float(p.v[0]), float(p.pred_var[0])
    return (2.0 * v / D) * grad_v - (v * v / D**2) * grad_D


def variance_reduction_s(ctx: AcquisitionContext, xt) -> float:
    """S(xt) = v(xt) / sqrt(k_n(xt, xt) + noise); S^2 is the variance drop.

    Returns 0 when the predictive variance vanishes (noiseless duplicate):
    the observation would carry no new information.
    """
    return float(_s(_probe(ctx, _one_row(xt)))[0])


def acquisition_value(ctx: AcquisitionContext, xt) -> float:
    """The acquisition S(xt)^2, the reduction in estimate variance."""
    return float(_s_sq(_probe(ctx, _one_row(xt)))[0])


def acquisition_gradient(ctx: AcquisitionContext, xt) -> np.ndarray:
    """Gradient of the acquisition S(xt)^2 in xt."""
    X = _one_row(xt)
    return _s_sq_gradient(ctx, X[0], _probe(ctx, X))


@dataclass(frozen=True)
class HypotheticalUpdate:
    """Effect of one hypothetical observation on the integral estimate.

    The updated mean is affine in the observed value,
    mu2(y) = mu1 + innovation_coeff * (y - pred_mean), while the updated
    variance sigma2_sq does not depend on it at all.
    """

    innovation_coeff: float
    pred_mean: float
    sigma2_sq: float


def hypothetical_update(ctx: AcquisitionContext, xt) -> HypotheticalUpdate:
    """Innovation coefficient, predicted value, and sigma2^2 at ``xt``."""
    p = _probe(ctx, _one_row(xt))
    return HypotheticalUpdate(
        innovation_coeff=float((p.v / _informative_var(p))[0]),
        pred_mean=float(_row_dots(p.kv, ctx.gp.weights)[0]),
        sigma2_sq=float(_sigma2_sq(ctx, p)[0]),
    )


def kl_gaussian(mu_a: float, var_a: float, mu_b: float, var_b: float) -> float:
    """KL divergence between two univariate Gaussians, N_a against N_b."""
    if var_a <= 0 or var_b <= 0:
        raise ValueError("variances must be positive")
    val = (
        0.5 * np.log(var_b / var_a)
        + (var_a + (mu_a - mu_b) ** 2) / (2.0 * var_b)
        - 0.5
    )
    return max(float(val), 0.0)


def info_gain_four_term(ctx: AcquisitionContext, xt):
    """Expected KL information gain in its un-simplified four-term form.

    Returns ``(g, (t1, t2, t3, t4))`` with
    t1 = log(sigma1/sigma2), t2 = sigma2^2 / (2 sigma1^2), t3 = -1/2,
    t4 = v^2 / (2 sigma1^2 (k_n(xt, xt) + noise)).
    The last three terms cancel exactly in theory; they are returned so
    the cancellation is observable.

    Raises
    ------
    DegenerateEstimateError
        If sigma1^2 is zero: the integral is already known exactly.
    """
    p = _probe(ctx, _one_row(xt))
    g, terms = _four_term(ctx, p, _sigma2_sq(ctx, p))
    return float(g[0]), tuple(float(t[0]) for t in terms)


def info_gain_simplified(ctx: AcquisitionContext, xt) -> float:
    """The reduced information gain log(sigma1 / sigma2(xt)).

    Equal to the four-term form; a zero sigma2^2 (complete variance
    collapse) maps to the finite sentinel so argmax semantics survive.
    """
    p = _probe(ctx, _one_row(xt))
    return float(_gain(ctx, _sigma2_sq(ctx, p))[0])


def _shared_contexts(contexts) -> list:
    """The contexts as a non-empty list, checked to share their data and mixture."""
    contexts = list(contexts)
    if not contexts:
        raise ValueError("need at least one acquisition context")
    first = contexts[0].gp.data
    for ctx in contexts[1:]:
        data = ctx.gp.data
        if not (
            (data.X is first.X or np.array_equal(data.X, first.X))
            and (data.y is first.y or np.array_equal(data.y, first.y))
            and same_mixture(ctx.mix, contexts[0].mix)
        ):
            raise ValueError("contexts must share the same data and mixture")
    return contexts


def multi_theta_acquisition(contexts, xt) -> float:
    """Mean simplified gain across hyperparameter samples.

    With one context this is exactly :func:`info_gain_simplified`; its
    argmax over candidates equals the argmin of the product of the
    per-sample sigma2^2 values.
    """
    contexts = _shared_contexts(contexts)
    return float(np.mean([info_gain_simplified(ctx, xt) for ctx in contexts]))


def multi_theta_gradient(contexts, xt) -> np.ndarray:
    """Gradient of the mean simplified gain.

    Per sample, d/dx log(sigma1/sigma2) = (d/dx S^2) / (2 sigma2^2);
    samples sitting at the variance-collapse sentinel contribute zero
    (the sentinel is a plateau).
    """
    contexts = _shared_contexts(contexts)
    X = _one_row(xt)
    grad = np.zeros(contexts[0].gp.dim)
    for ctx in contexts:
        p = _probe(ctx, X)
        sigma2_sq = float(_sigma2_sq(ctx, p)[0])
        if sigma2_sq > 0.0:
            grad += _s_sq_gradient(ctx, X[0], p) / (2.0 * sigma2_sq)
    return grad / len(contexts)


def acquisition_profile(ctx: AcquisitionContext, X):
    """Acquisition quantities at every candidate row of ``X``.

    Returns a dict of arrays: ``s_sq`` (the acquisition), ``sigma2_sq``,
    ``gain_simplified`` and ``gain_four_term``, from one probe of all
    rows.  Row i equals the scalar forms at ``X[i]`` to rounding, and
    exactly for a one-row ``X``.

    Raises
    ------
    DegenerateEstimateError
        If sigma1^2 is zero: the integral is already known exactly.
    """
    p = _probe(ctx, as_points(X, ctx.gp.dim))
    sigma2_sq = _sigma2_sq(ctx, p)
    four, (gain, _, _, _) = _four_term(ctx, p, sigma2_sq)
    return {
        "s_sq": _s_sq(p),
        "sigma2_sq": sigma2_sq,
        "gain_simplified": gain,
        "gain_four_term": four,
    }
