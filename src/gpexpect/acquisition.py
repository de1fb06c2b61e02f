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

One probe of candidate rows builds on :func:`gpexpect.gp.posterior_rows`,
the GP posterior there: k(x, X_n), its Gram solve and the posterior
variance (Rasmussen & Williams, GPML, Alg. 2.1), hence v(x) and the
predictive variance; S, sigma2^2 and the gain terms are each derived
once, on arrays.  Each row of a probe is computed with the same operations
whatever the other rows are, so :func:`acquisition_profile` on a grid
and the one-point forms (S, the hypothetical update and both gains,
row 0 of a one-row probe) agree bit for bit.  The kernel means at the
rows are whole-array passes: one stacked forward substitution solves
every row against every component's factor, then squares are added over
dimensions and components into the sum one at a time.  Where bits must
not depend on the batch, a sum is explicit adds, never an axis reduction
(numpy sums 8 or more terms pairwise).

The optimizer sees an objective: :func:`acquisition_objective` (S^2) or
:func:`multi_theta_objective` (the gain averaged over hyperparameter
samples) maps rows ``X`` to ``(values, gradients_at)``, where
``gradients_at(idx)`` differentiates rows ``X[idx]`` from the same probe
that scored them, so an accepted trial step is never probed again.
:func:`acquisition_values`, :func:`acquisition_gradients`,
:func:`multi_theta_values` and :func:`multi_theta_gradients` are views
of those objectives on all rows.  A single point is row 0 of a one-row
call, ``acquisition_values(ctx, x[None])[0]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from gpexpect._numerics import (
    as_point,
    as_points,
    chol_solve,
    forward_solve,
    forward_substitute,
    row_dots,
    sum_in_order,
)
from gpexpect.errors import DegenerateEstimateError
from gpexpect.gp import GpPosterior, posterior_rows
from gpexpect.kernels import RbfKernel
from gpexpect.mixtures import GaussianMixture, same_mixture

# log-gain sentinel standing in for +inf when sigma2^2 underflows to 0;
# comfortably above any finite log-variance ratio that matters while
# staying exp-able in double precision
GAIN_SENTINEL = 700.0

# predictive variances below this fraction of the amplitude mean the
# candidate is already fully observed (duplicated noiseless point)
_PRED_VAR_FLOOR = 1e-14


def _component_factors(ker: RbfKernel, covs):
    """Cholesky of cov_i + Lambda and |I + inv(Lambda) cov_i|^(-1/2) per component.

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
        factors[i] = np.exp(-0.5 * float(log_det))
    return chols, factors


def _substitutions(X, means, chols) -> np.ndarray:
    """(m, k, d): chol_i^-1 (x - mean_i) per row x of X and component i, by forward substitution.

    Each row is solved with the same operations whatever the other rows
    are, so a row of the result reads the same in any batch.
    """
    return forward_substitute(chols, X[:, None, :] - means)


def _component_means(u, amplitude_sq: float, factors) -> np.ndarray:
    """K_i(x) = factor_i * k(x, mean_i; cov_i + Lambda): one column per component, one row per x.

    ``u`` holds the rows' :func:`_substitutions`.  Each (row, component)
    square is summed with one ``dot`` of a contiguous ``d``-vector, so it
    reads the same in any batch.
    """
    return factors * (amplitude_sq * np.exp(-0.5 * row_dots(u, u)))


def _kernel_mean_gradients(X, u, amplitude_sq: float, mix: GaussianMixture, chols, factors):
    """Sum over components of -w_i K_i(x) (cov_i + Lambda)^-1 (x - mean_i), per row of X.

    ``u`` holds the :func:`_substitutions` of the rows of ``X``.
    """
    k_i = _component_means(u, amplitude_sq, factors)
    grad = np.zeros(X.shape)
    for i, (w, mean, chol) in enumerate(zip(mix.weights, mix.means, chols)):
        grad -= (w * k_i[:, i])[:, None] * chol_solve(chol, (X - mean).T).T
    return grad


def kernel_mean_component(x, ker: RbfKernel, mean, cov) -> float:
    """Integral of k(x, .) against one Gaussian component N(mean, cov).

    Closed form: |I + inv(Lambda) cov|^(-1/2) * k(x, mean; cov + Lambda).
    """
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    chols, factors = _component_factors(ker, cov[None])
    u = _substitutions(as_point(x, mean.size, "x")[None, :], mean[None], chols)
    return float(_component_means(u, ker.amplitude_sq, factors)[0, 0])


def kernel_mean(x, ker: RbfKernel, mix: GaussianMixture) -> float:
    """Kernel mean K(x) = int k(x, x') p(x') dx' under the mixture."""
    chols, factors = _component_factors(ker, mix.covs)
    u = _substitutions(as_point(x, mix.dim, "x")[None, :], mix.means, chols)
    k_i = _component_means(u, ker.amplitude_sq, factors)[0]
    return float(sum(w * k for w, k in zip(mix.weights, k_i)))


def kernel_mean_gradient(x, ker: RbfKernel, mix: GaussianMixture) -> np.ndarray:
    """Gradient of the kernel mean in x.

    Per component: -(cov + Lambda)^-1 (x - mean) * K_i(x).
    """
    chols, factors = _component_factors(ker, mix.covs)
    X = as_point(x, mix.dim, "x")[None, :]
    u = _substitutions(X, mix.means, chols)
    return _kernel_mean_gradients(X, u, ker.amplitude_sq, mix, chols, factors)[0]


def double_kernel_mean(ker: RbfKernel, mix: GaussianMixture) -> float:
    """Double integral of the kernel against the mixture in both slots.

    Sum over component pairs of
    |Lambda|^(1/2) |Lambda + C_i + C_j|^(-1/2) k(m_i, m_j; Lambda + C_i + C_j),
    the prior variance of the integral estimate.  One Cholesky factor of
    each pair's scale gives both the determinant and the kernel.
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
            u = forward_solve(chol, mix.means[i] - mix.means[j])
            pair_kernel = float(ker.amplitude_sq * np.exp(-0.5 * np.dot(u, u)))
            term = mix.weights[i] * mix.weights[j] * np.exp(log_factor) * pair_kernel
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


def _kernel_mean_many(ctx: AcquisitionContext, X: np.ndarray):
    """K(x) for each row of X, and the rows' :func:`_substitutions`, from the component caches.

    Each row's arithmetic is independent of the others (substitution
    over rows, then squares and components added one at a time on whole
    arrays), so a row reads the same in any batch.
    """
    u = _substitutions(X, ctx.mix.means, ctx._comp_chols)
    quad = sum_in_order(np.moveaxis(u * u, -1, 0))
    coefs = ctx.mix.weights * ctx._comp_factors * ctx.gp.kernel.amplitude_sq
    return sum_in_order((coefs * np.exp(-0.5 * quad)).T), u


def build_context(gp: GpPosterior, mix: GaussianMixture) -> AcquisitionContext:
    """Assemble the estimate (mu1, sigma1^2) and the probe caches."""
    if gp.dim != mix.dim:
        raise ValueError(f"gp dimension {gp.dim} != mixture dimension {mix.dim}")
    ker = gp.kernel
    comp_chols, comp_factors = _component_factors(ker, mix.covs)

    # the multi-column solve stays: mu1 and sigma1 depend on its bits
    u = np.stack(
        [
            forward_solve(comp_chols[i], (gp.data.X - mix.means[i]).T)
            for i in range(mix.n_components)
        ]
    )
    quad = np.sum(u * u, axis=1)
    kmean_train = (mix.weights * comp_factors) @ (ker.amplitude_sq * np.exp(-0.5 * quad))
    solved = chol_solve(gp.gram_factor, kmean_train)
    mu1 = float(kmean_train @ gp.weights)
    sigma1_sq = max(float(double_kernel_mean(ker, mix) - kmean_train @ solved), 0.0)
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
    u: np.ndarray  # (m, k, d) the rows' substitutions against each mixture component

    def rows(self, idx) -> _Probe:
        """The probe of rows ``idx`` alone."""
        return _Probe(*(field[idx] for field in self))


def _probe(ctx: AcquisitionContext, X: np.ndarray) -> _Probe:
    """Probe the (m, d) candidate rows of ``X``: the GP posterior there, and v."""
    gp = ctx.gp
    kv, solved_kv, var = posterior_rows(gp, X)
    kmean, u = _kernel_mean_many(ctx, X)
    v = kmean - row_dots(kv, ctx.solved_kmean)
    pred_var = var + gp.noise.variance
    live = pred_var >= _PRED_VAR_FLOOR * gp.kernel.amplitude_sq
    return _Probe(kv, solved_kv, v, pred_var, live, u)


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


def _s_sq_gradients(ctx: AcquisitionContext, X: np.ndarray, p: _Probe) -> np.ndarray:
    """Gradient of S^2 = v^2 / D at each row of ``X``, the probe's rows, by the quotient rule.

    grad v is the kernel-mean gradient minus the Jacobian J of k(x, X_n)
    against the solved kernel-mean system; grad D = -2 J^T (Gram^-1 k(x, X_n)).
    Rows that are not live read zero.  Each row takes the operations of
    a one-row call, D^2 included: it is squared as a Python float, whose
    rounding (libm ``pow``) can differ from numpy's ``square``.
    """
    gp = ctx.gp
    grad_v = _kernel_mean_gradients(
        X, p.u, gp.kernel.amplitude_sq, ctx.mix, ctx._comp_chols, ctx._comp_factors
    )
    # J[j] is the (n, d) Jacobian at row j; J[j].T is its transposed view
    J = -(X[:, None, :] - gp.data.X) / gp.kernel.lengthscales * p.kv[:, :, None]
    JT = np.swapaxes(J, 1, 2)
    grad_v = grad_v - JT @ ctx.solved_kmean
    grad_D = -2.0 * (JT @ p.solved_kv[:, :, None])[:, :, 0]
    D = np.where(p.live, p.pred_var, 1.0)
    D_sq = np.array([d**2 for d in D.tolist()])
    grad = (2.0 * p.v / D)[:, None] * grad_v - (p.v * p.v / D_sq)[:, None] * grad_D
    grad[~p.live] = 0.0
    return grad


def variance_reduction_s(ctx: AcquisitionContext, xt) -> float:
    """S(xt) = v(xt) / sqrt(k_n(xt, xt) + noise); S^2 is the variance drop.

    Returns 0 when the predictive variance vanishes (noiseless duplicate):
    the observation would carry no new information.
    """
    return float(_s(_probe(ctx, _one_row(xt)))[0])


def acquisition_objective(ctx: AcquisitionContext):
    """The acquisition S^2 as an objective for :func:`gpexpect.optimize.maximize`.

    ``objective(X)`` probes the (m, d) rows of ``X`` once and returns
    their ``m`` values with ``gradients_at``; ``gradients_at(idx)`` gives
    the ``(len(idx), d)`` gradients of rows ``X[idx]`` from that probe,
    bit for bit what a fresh probe of those rows would give.
    """

    def objective(X):
        X = as_points(X, ctx.gp.dim)
        p = _probe(ctx, X)

        def gradients_at(idx) -> np.ndarray:
            return _s_sq_gradients(ctx, X[idx], p.rows(idx))

        return _s_sq(p), gradients_at

    return objective


def _all_rows(objective, X):
    """``objective``'s values and gradients at every row of ``X``."""
    values, gradients_at = objective(X)
    return values, gradients_at(np.arange(len(values)))


def acquisition_values(ctx: AcquisitionContext, X) -> np.ndarray:
    """The acquisition S^2 at each (m, d) row of ``X``, from one probe."""
    return acquisition_objective(ctx)(X)[0]


def acquisition_gradients(ctx: AcquisitionContext, X) -> np.ndarray:
    """Gradient of the acquisition S^2 at each (m, d) row of ``X``, from one probe."""
    return _all_rows(acquisition_objective(ctx), X)[1]


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
        pred_mean=float(row_dots(p.kv, ctx.gp.weights)[0]),
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


def multi_theta_objective(contexts):
    """The mean simplified gain across hyperparameter samples, as an objective.

    The contexts are checked once, here, to share their data and
    mixture.  ``objective(X)`` probes the (m, d) rows of ``X`` once per
    context and returns the mean gain of each row with ``gradients_at``,
    as :func:`acquisition_objective` does.  With one context a value is
    exactly :func:`info_gain_simplified`; the argmax over rows equals the
    argmin of the product of the per-sample sigma2^2 values.

    Per sample, d/dx log(sigma1/sigma2) = (d/dx S^2) / (2 sigma2^2);
    samples sitting at the variance-collapse sentinel contribute zero
    (the sentinel is a plateau).

    Raises
    ------
    DegenerateEstimateError
        From ``objective`` if a context's sigma1^2 is zero.
    """
    contexts = _shared_contexts(contexts)
    dim = contexts[0].gp.dim

    def objective(X):
        X = as_points(X, dim)
        probes, sigma2_sqs, gains = [], [], []
        for ctx in contexts:
            probes.append(_probe(ctx, X))
            sigma2_sqs.append(_sigma2_sq(ctx, probes[-1]))
            gains.append(_gain(ctx, sigma2_sqs[-1]))

        def gradients_at(idx) -> np.ndarray:
            X_idx = X[idx]
            grad = np.zeros(X_idx.shape)
            for ctx, p, sigma2_sq in zip(contexts, probes, sigma2_sqs):
                sigma2_sq = sigma2_sq[idx]
                rows = sigma2_sq > 0.0
                grad[rows] += (
                    _s_sq_gradients(ctx, X_idx, p.rows(idx))[rows] / (2.0 * sigma2_sq[rows, None])
                )
            return grad / len(contexts)

        # a mean along the contiguous axis sums each row as np.mean sums one vector
        return np.mean(np.stack(gains, axis=1), axis=1), gradients_at

    return objective


def multi_theta_values(contexts, X) -> np.ndarray:
    """Mean simplified gain across hyperparameter samples at each (m, d) row of ``X``."""
    return multi_theta_objective(contexts)(X)[0]


def multi_theta_gradients(contexts, X) -> np.ndarray:
    """Gradient of the mean simplified gain at each (m, d) row of ``X``."""
    return _all_rows(multi_theta_objective(contexts), X)[1]


def acquisition_profile(ctx: AcquisitionContext, X):
    """Acquisition quantities at every candidate row of ``X``.

    Returns a dict of arrays: ``s_sq`` (the acquisition), ``sigma2_sq``,
    ``gain_simplified`` and ``gain_four_term``, from one probe of all
    rows.  Row i equals the one-point forms at ``X[i]`` bit for bit.

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
