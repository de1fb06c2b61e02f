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

There is one probe, and it works on a stack of T contexts that share
their data and mixture, such as T hyperparameter samples; one context
is the T = 1 case.  The stack is built once per objective: the contexts'
amplitudes, lengthscales, noises, Gram factors and kernel-mean solves,
and the (T k) component factors with their coefficients w_i factor_i s^2.
A probe of m candidate rows builds on :func:`gpexpect.gp.posterior_rows`,
the GP posteriors there: k(x, X_n), its Gram solve and the posterior
variance (Rasmussen & Williams, GPML, Alg. 2.1), one kernel pass for all
contexts and one Gram solve per context; hence v(x) and the predictive
variance per context and row.  The kernel means at the rows are
whole-array passes: one stacked forward substitution solves every row
against every (context, component) factor, then squares are added over
dimensions and components into the sum one at a time.  These elementwise
passes run in a dimension-major layout with the candidate rows, the long
axis, innermost; elementwise arithmetic gives the same bits in any
layout.  Only the operands of BLAS dots keep their row-major layout: the
gradients copy the substitutions they dot into contiguous rows.  S,
sigma2^2 and the gain terms are each derived once, on (T, m) arrays, and the gradients
at chosen rows in one pass over (T, rows, ...), one ``potrs`` per
(context, component).  Each (context, row) entry is computed with the
same operations whatever the other rows and contexts are, so it reads
the same in any batch and any stack, a one-row, one-context probe
included.  Where bits must not depend on the batch, a sum is explicit
adds, never an axis reduction (numpy sums 8 or more terms pairwise).

There are three read-outs of a probe.  :func:`acquisition_profile` gives
every quantity at every row of one context: S, S^2, sigma2^2, the
hypothetical update and both gains with their terms; a single point is
row 0 of a one-row call, ``acquisition_profile(ctx, x[None])["s"][0]``.
The optimizer sees an objective: :func:`acquisition_objective` (S^2) or
:func:`multi_theta_objective` (the gain averaged over hyperparameter
samples, from one probe of their stack) maps rows ``X`` to
``(values, gradients_at)``, where ``gradients_at(idx)`` differentiates
rows ``X[idx]`` from the same probe that scored them, so an accepted
trial step is never probed again.
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
from gpexpect.gp import GpPosterior, PosteriorStack, posterior_rows, stack_posteriors
from gpexpect.kernels import RbfKernel, kernel_jacobians
from gpexpect.mixtures import GaussianMixture, component_quads, same_mixture

# log-gain sentinel standing in for +inf when sigma2^2 underflows to 0;
# comfortably above any finite log-variance ratio that matters while
# staying exp-able in double precision
GAIN_SENTINEL = 700.0

# predictive variances below this fraction of the amplitude mean the
# candidate is already fully observed (duplicated noiseless point)
_PRED_VAR_FLOOR = 1e-14


def _component_factors(ker: RbfKernel, covs):
    """Cholesky of cov_i + Lambda and |I + inv(Lambda) cov_i|^(-1/2) per component.

    One stacked Cholesky call factors every component; it factors each
    matrix as a call on that matrix alone would.  The log-determinant is
    log|Lambda + C| - log|Lambda| through the Cholesky factor, which stays
    finite and accurate for strongly anisotropic scales.
    """
    total = covs + np.diag(ker.lengthscales)
    try:
        chols = np.linalg.cholesky(0.5 * (total + total.transpose(0, 2, 1)))
    except np.linalg.LinAlgError as exc:
        raise ValueError("component covariance must be SPD") from exc
    log_dets = 2.0 * np.sum(np.log(np.diagonal(chols, axis1=1, axis2=2)), axis=1) - np.sum(
        np.log(ker.lengthscales)
    )
    return chols, np.exp(-0.5 * log_dets)


class _KernelMeans(NamedTuple):
    """The kernel means of T kernels against one k-component mixture, as arrays.

    Kernel ``t`` and component ``i`` are entry ``t * k + i`` of ``means``
    and ``chols``, and entry ``[t, i]`` of ``factors`` and ``coefs``.
    """

    weights: np.ndarray  # (k,) the mixture weights w_i
    means: np.ndarray  # (T k, d) the component means, repeated per kernel
    chols: np.ndarray  # (T k, d, d) Cholesky factors of cov_i + Lambda_t
    factors: np.ndarray  # (T, k) |I + inv(Lambda_t) cov_i|^(-1/2)
    amplitude_sq: np.ndarray  # (T,) the kernel amplitudes s_t^2
    coefs: np.ndarray  # (T, k) w_i factor_ti s_t^2


def _kernel_means_of(mix: GaussianMixture, amplitude_sq, chols, factors) -> _KernelMeans:
    """The :class:`_KernelMeans` of T kernels from their :func:`_component_factors`.

    ``chols`` and ``factors`` hold one (k, d, d) and one (k,) array per kernel.
    """
    factors = np.array(factors)
    return _KernelMeans(
        weights=mix.weights,
        means=np.tile(mix.means, (len(amplitude_sq), 1)),
        chols=np.concatenate(chols),
        factors=factors,
        amplitude_sq=amplitude_sq,
        coefs=mix.weights * factors * amplitude_sq[:, None],
    )


def _one_kernel_means(ker: RbfKernel, mix: GaussianMixture) -> _KernelMeans:
    """The :class:`_KernelMeans` of ``ker`` alone, T = 1."""
    chols, factors = _component_factors(ker, mix.covs)
    return _kernel_means_of(mix, np.array([ker.amplitude_sq]), [chols], [factors])


def _kernel_means(km: _KernelMeans, X):
    """K_t(x) (T, m) for each kernel and row of X, and the rows' substitutions u (d, T k, m).

    ``u[:, t * k + i, j]`` is chol_ti^-1 (x_j - mean_i), from one stacked
    forward substitution in the dimension-major layout, rows innermost.
    Squares are added over dimensions, then terms over components, one at
    a time on whole arrays, so an entry reads the same in any batch and
    beside any other kernels.
    """
    u = forward_substitute(km.chols, X.T[:, None, :] - km.means.T[:, :, None])
    quad = sum_in_order(u * u).reshape(*km.coefs.shape, len(X))
    terms = km.coefs[..., None] * np.exp(-0.5 * quad)
    return sum_in_order(terms.transpose(1, 0, 2)), u


def _component_means(km: _KernelMeans, u) -> np.ndarray:
    """K_ti(x) = factor_ti * k_t(x, mean_i; cov_i + Lambda_t), shape (m, T, k).

    ``u`` holds the rows' substitutions from :func:`_kernel_means`, copied
    to contiguous (m, T k, d) rows: each square is summed with one ``dot``
    of a contiguous ``d``-vector, so it reads the same in any batch.
    """
    rows = np.ascontiguousarray(u.transpose(2, 1, 0))
    e = np.exp(-0.5 * row_dots(rows, rows)).reshape(len(rows), *km.factors.shape)
    return km.factors * (km.amplitude_sq[:, None] * e)


def _kernel_mean_gradients(km: _KernelMeans, X, u) -> np.ndarray:
    """Sum over components of -w_i K_ti(x) (cov_i + Lambda_t)^-1 (x - mean_i), shape (T, m, d).

    ``u`` holds the substitutions of the rows of ``X``.  One ``potrs``
    solves all rows per (kernel, component); each kernel subtracts its
    components one at a time.
    """
    n_kernels, k = km.factors.shape
    w_k = km.weights * _component_means(km, u)
    grad = np.zeros((n_kernels,) + X.shape)
    for i, mean in enumerate(km.means[:k]):
        rhs = (X - mean).T
        for t in range(n_kernels):
            grad[t] -= w_k[:, t, i, None] * chol_solve(km.chols[t * k + i], rhs).T
    return grad


def kernel_mean(x, ker: RbfKernel, mix: GaussianMixture) -> float:
    """Kernel mean K(x) = int k(x, x') p(x') dx' under the mixture.

    Per component N(mean, cov), the closed form is
    |I + inv(Lambda) cov|^(-1/2) * k(x, mean; cov + Lambda); the probe's
    own sum over components, at one kernel and one row.
    """
    X = as_point(x, mix.dim, "x")[None, :]
    return float(_kernel_means(_one_kernel_means(ker, mix), X)[0][0, 0])


def kernel_mean_gradient(x, ker: RbfKernel, mix: GaussianMixture) -> np.ndarray:
    """Gradient of the kernel mean in x.

    Per component: -(cov + Lambda)^-1 (x - mean) * K_i(x).
    """
    km = _one_kernel_means(ker, mix)
    X = as_point(x, mix.dim, "x")[None, :]
    return _kernel_mean_gradients(km, X, _kernel_means(km, X)[1])[0, 0]


def double_kernel_mean(ker: RbfKernel, mix: GaussianMixture) -> float:
    """Double integral of the kernel against the mixture in both slots.

    Sum over component pairs of
    |Lambda|^(1/2) |Lambda + C_i + C_j|^(-1/2) k(m_i, m_j; Lambda + C_i + C_j),
    the prior variance of the integral estimate.  One Cholesky factor of
    each pair's scale gives both the determinant and the kernel.  One
    stacked Cholesky call factors every pair's scale as a call on that
    matrix alone would; each pair's solve and term then follow in order.
    """
    lam = np.diag(ker.lengthscales)
    log_lam = np.sum(np.log(ker.lengthscales))
    k = mix.n_components
    pairs = [(i, j) for i in range(k) for j in range(i, k)]
    first, second = np.array(pairs).T
    scales = lam + mix.covs[first] + mix.covs[second]
    chols = np.linalg.cholesky(0.5 * (scales + scales.transpose(0, 2, 1)))
    log_factors = 0.5 * log_lam - np.sum(np.log(np.diagonal(chols, axis1=1, axis2=2)), axis=1)
    total = 0.0
    for (i, j), chol, log_factor in zip(pairs, chols, log_factors):
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
    evaluations at probes skip refactorizations.  They and the double
    integral depend on the kernel and the mixture alone, so a later
    context on the same two objects can take them over.
    """

    gp: GpPosterior
    mix: GaussianMixture
    kmean_train: np.ndarray
    solved_kmean: np.ndarray
    mu1: float
    sigma1_sq: float
    _comp_chols: np.ndarray = field(repr=False)
    _comp_factors: np.ndarray = field(repr=False)
    _double_mean: float = field(repr=False)


def build_context(
    gp: GpPosterior, mix: GaussianMixture, previous: AcquisitionContext | None = None
) -> AcquisitionContext:
    """Assemble the estimate (mu1, sigma1^2) and the probe caches.

    The component factors and the double integral depend only on the
    kernel and the mixture.  When ``previous`` holds the same kernel
    object and the same mixture object, they are taken from it, which
    gives the bits a fresh build gives; otherwise they are computed.
    """
    if gp.dim != mix.dim:
        raise ValueError(f"gp dimension {gp.dim} != mixture dimension {mix.dim}")
    ker = gp.kernel
    if previous is not None and previous.gp.kernel is ker and previous.mix is mix:
        comp_chols, comp_factors = previous._comp_chols, previous._comp_factors
        double_mean = previous._double_mean
    else:
        comp_chols, comp_factors = _component_factors(ker, mix.covs)
        double_mean = double_kernel_mean(ker, mix)

    # the multi-column solve stays: mu1 and sigma1 depend on its bits
    quad = component_quads(comp_chols, mix.means, gp.data.X)
    kmean_train = (mix.weights * comp_factors) @ (ker.amplitude_sq * np.exp(-0.5 * quad))
    solved = chol_solve(gp.gram_factor, kmean_train)
    mu1 = float(kmean_train @ gp.weights)
    sigma1_sq = max(float(double_mean - kmean_train @ solved), 0.0)
    return AcquisitionContext(
        gp=gp,
        mix=mix,
        kmean_train=kmean_train,
        solved_kmean=solved,
        mu1=mu1,
        sigma1_sq=sigma1_sq,
        _comp_chols=comp_chols,
        _comp_factors=comp_factors,
        _double_mean=double_mean,
    )


class _Stack(NamedTuple):
    """T acquisition contexts that share data and mixture, as the arrays one probe reads."""

    posteriors: PosteriorStack
    kernel_means: _KernelMeans
    noise: np.ndarray  # (T,) noise variances
    floor: np.ndarray  # (T,) predictive variances below this have nothing left to learn
    solved_kmean: np.ndarray  # (T, n)
    sigma1_sq: np.ndarray  # (T,)


def _stack(contexts) -> _Stack:
    """The :class:`_Stack` of ``contexts``, checked to be non-empty and share data and mixture."""
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
    posteriors = stack_posteriors([ctx.gp for ctx in contexts])
    return _Stack(
        posteriors=posteriors,
        kernel_means=_kernel_means_of(
            contexts[0].mix,
            posteriors.amplitude_sq,
            [ctx._comp_chols for ctx in contexts],
            [ctx._comp_factors for ctx in contexts],
        ),
        noise=np.array([ctx.gp.noise.variance for ctx in contexts]),
        floor=_PRED_VAR_FLOOR * posteriors.amplitude_sq,
        solved_kmean=np.array([ctx.solved_kmean for ctx in contexts]),
        sigma1_sq=np.array([ctx.sigma1_sq for ctx in contexts]),
    )


class _Probe(NamedTuple):
    """Everything the acquisition forms need at each of m candidate rows, per context."""

    kv: np.ndarray  # (T, m, n) kernel rows k(x, X_n)
    solved_kv: np.ndarray  # (T, m, n) rows of (K + noise I)^-1 k(x, X_n)
    v: np.ndarray  # (T, m) int k_n(x, x') p(x') dx', the posterior-covariance kernel mean
    pred_var: np.ndarray  # (T, m) k_n(x, x) + noise
    live: np.ndarray  # (T, m) False where pred_var is below the floor: nothing left to learn
    u: np.ndarray  # (d, T k, m) the rows' substitutions against each component, per context

    def rows(self, idx) -> _Probe:
        """The probe of the rows at integer indices ``idx`` alone."""
        return _Probe(*(field.take(idx, axis=1) for field in self[:5]), self.u.take(idx, axis=2))


def _probe(stack: _Stack, X: np.ndarray) -> _Probe:
    """Probe the (m, d) candidate rows of ``X`` in every context: the GP posterior there, and v."""
    kv, solved_kv, var = posterior_rows(stack.posteriors, X)
    kmean, u = _kernel_means(stack.kernel_means, X)
    v = kmean - row_dots(kv, stack.solved_kmean[:, None, :])
    pred_var = var + stack.noise[:, None]
    return _Probe(kv, solved_kv, v, pred_var, pred_var >= stack.floor[:, None], u)


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


def _sigma2_sq(stack: _Stack, p: _Probe) -> np.ndarray:
    """sigma2^2 = max(sigma1^2 - v^2 / D, 0), or sigma1^2 where not live."""
    return np.maximum(stack.sigma1_sq[:, None] - p.v * p.v / _informative_var(p), 0.0)


def _gain(stack: _Stack, sigma2_sq: np.ndarray) -> np.ndarray:
    """log(sigma1 / sigma2) per context and row, or the sentinel where sigma2^2 is zero."""
    if np.any(stack.sigma1_sq <= 0.0):
        raise DegenerateEstimateError("estimate variance is zero; nothing to gain")
    gain = np.full(sigma2_sq.shape, GAIN_SENTINEL)
    nonzero = sigma2_sq != 0.0  # a NaN stays NaN, so maximize drops its start
    sigma1_sq = np.broadcast_to(stack.sigma1_sq[:, None], sigma2_sq.shape)
    gain[nonzero] = 0.5 * np.log(sigma1_sq[nonzero] / sigma2_sq[nonzero])
    return gain


def _s_sq_gradients(stack: _Stack, X: np.ndarray, p: _Probe) -> np.ndarray:
    """Gradient of S^2 = v^2 / D per context at each row of ``X``, the probe's rows, (T, m, d).

    By the quotient rule: grad v is the kernel-mean gradient minus the
    Jacobian J of k(x, X_n) against the solved kernel-mean system;
    grad D = -2 J^T (Gram^-1 k(x, X_n)).  Rows that are not live read
    zero.  Each (context, row) takes the operations of a one-context,
    one-row call, D^2 included: it is squared as a Python float, whose
    rounding (libm ``pow``) can differ from numpy's ``square``.
    """
    post = stack.posteriors
    grad_v = _kernel_mean_gradients(stack.kernel_means, X, p.u)
    # J[t, j] is the (n, d) Jacobian at row j; its transposed view keeps
    # the column-major (d, n) layout, and so the BLAS kernel, of one row
    JT = kernel_jacobians(X, post.X, post.lengthscales, p.kv).transpose(0, 1, 3, 2)
    grad_v = grad_v - (JT @ stack.solved_kmean[:, None, :, None])[..., 0]
    grad_D = -2.0 * (JT @ p.solved_kv[..., None])[..., 0]
    D = np.where(p.live, p.pred_var, 1.0)
    D_sq = np.array([d**2 for d in D.ravel().tolist()]).reshape(D.shape)
    grad = (2.0 * p.v / D)[..., None] * grad_v - (p.v * p.v / D_sq)[..., None] * grad_D
    grad[~p.live] = 0.0
    return grad


def acquisition_objective(ctx: AcquisitionContext):
    """The acquisition S^2 as an objective for :func:`gpexpect.optimize.maximize`.

    ``objective(X)`` probes the (m, d) rows of ``X`` once and returns
    their ``m`` values with ``gradients_at``; ``gradients_at(idx)`` gives
    the ``(len(idx), d)`` gradients of rows ``X[idx]`` from that probe,
    bit for bit what a fresh probe of those rows would give.
    """
    stack = _stack([ctx])

    def objective(X):
        X = as_points(X, ctx.gp.dim)
        p = _probe(stack, X)

        def gradients_at(idx) -> np.ndarray:
            return _s_sq_gradients(stack, X[idx], p.rows(idx))[0]

        return _s_sq(p)[0], gradients_at

    return objective


def multi_theta_objective(contexts):
    """The mean simplified gain across hyperparameter samples, as an objective.

    The contexts are checked once, here, to share their data and
    mixture, and stacked.  ``objective(X)`` probes the (m, d) rows of
    ``X`` in all contexts at once and returns the mean gain of each row
    with ``gradients_at``, as :func:`acquisition_objective` does.  With
    one context a value is exactly the ``gain_simplified`` column of
    :func:`acquisition_profile`; the argmax over rows equals the argmin of
    the product of the per-sample sigma2^2 values.

    Per sample, d/dx log(sigma1/sigma2) = (d/dx S^2) / (2 sigma2^2);
    samples sitting at the variance-collapse sentinel contribute zero
    (the sentinel is a plateau).

    Raises
    ------
    DegenerateEstimateError
        From ``objective`` if a context's sigma1^2 is zero.
    """
    stack = _stack(contexts)
    dim = stack.posteriors.X.shape[1]

    def objective(X):
        X = as_points(X, dim)
        p = _probe(stack, X)
        sigma2_sq = _sigma2_sq(stack, p)
        gains = _gain(stack, sigma2_sq)

        def gradients_at(idx) -> np.ndarray:
            sigma2_sq_idx = sigma2_sq[:, idx]
            rows = sigma2_sq_idx > 0.0
            terms = _s_sq_gradients(stack, X[idx], p.rows(idx))
            terms /= 2.0 * np.where(rows, sigma2_sq_idx, 1.0)[..., None]
            terms[~rows] = 0.0
            # added context by context onto zeros, as a loop over contexts adds them
            grad = np.zeros(terms.shape[1:])
            for term in terms:
                grad += term
            return grad / len(terms)

        # a mean along the contiguous axis sums each row as np.mean sums one vector
        return np.mean(np.ascontiguousarray(gains.T), axis=1), gradients_at

    return objective


def acquisition_profile(ctx: AcquisitionContext, X):
    """Every acquisition quantity at every candidate row of ``X``, from one probe of all rows.

    Returns a dict of arrays, one entry per row:

    - ``s``: S = v / sqrt(k_n(x, x) + noise), and ``s_sq``, the acquisition
      S^2, the drop in estimate variance; both are zero where the
      predictive variance vanishes (a noiseless duplicate has nothing
      left to learn);
    - ``sigma2_sq``: the estimate variance after one more observation at
      the row, sigma1^2 - S^2;
    - ``innovation_coeff`` and ``pred_mean``: the updated estimate mean is
      affine in the observed value y, mu2(y) = mu1 + innovation_coeff *
      (y - pred_mean), while sigma2^2 does not depend on y at all;
    - ``gain_simplified``: the expected KL information gain in its
      reduced form log(sigma1 / sigma2), the finite ``GAIN_SENTINEL``
      where sigma2^2 is zero, so argmax semantics survive;
    - ``gain_four_term`` and ``gain_terms`` (m, 4): the same gain in its
      un-simplified form t1 + t2 + t3 + t4 with t1 = log(sigma1/sigma2),
      t2 = sigma2^2 / (2 sigma1^2), t3 = -1/2 and
      t4 = v^2 / (2 sigma1^2 (k_n(x, x) + noise)).  The last three cancel
      exactly in theory; they are returned so the cancellation is
      observable.

    Each row reads the same in any batch, so a single point is row 0 of a
    one-row call.

    Raises
    ------
    DegenerateEstimateError
        If sigma1^2 is zero: the integral is already known exactly.
        Every column raises, S and the update included (S is 0 there).
    """
    stack = _stack([ctx])
    p = _probe(stack, as_points(X, ctx.gp.dim))
    sigma2_sq = _sigma2_sq(stack, p)
    # t1 first, so a zero sigma1^2 raises before a division
    t1 = _gain(stack, sigma2_sq)
    t2 = sigma2_sq / (2.0 * ctx.sigma1_sq)
    t3 = np.full(t2.shape, -0.5)
    t4 = p.v * p.v / (2.0 * ctx.sigma1_sq * _informative_var(p))
    s = _s(p)
    columns = {
        "s": s,
        "s_sq": s * s,
        "sigma2_sq": sigma2_sq,
        "innovation_coeff": p.v / _informative_var(p),
        "pred_mean": row_dots(p.kv, ctx.gp.weights),
        "gain_simplified": t1,
        "gain_four_term": t1 + t2 + t3 + t4,
        "gain_terms": np.stack([t1, t2, t3, t4], axis=2),
    }
    return {key: column[0] for key, column in columns.items()}
