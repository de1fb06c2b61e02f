"""Estimate moments, kernel integrals, variance reduction, and information gain."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.linalg import cho_solve

from gpexpect._numerics import chol_solve, forward_substitute, row_dots
from gpexpect.acquisition import (
    GAIN_SENTINEL,
    _component_factors,
    _component_means,
    _gain,
    _kernel_means,
    _probe,
    _s_sq,
    _sigma2_sq,
    _stack,
    acquisition_objective,
    acquisition_profile,
    build_context,
    double_kernel_mean,
    kernel_mean,
    kernel_mean_gradient,
    multi_theta_objective,
)
from gpexpect.benchmarks import branin
from gpexpect.errors import DegenerateEstimateError
from gpexpect.gp import (
    Dataset,
    NoiseModel,
    fit,
    posterior_cov,
    posterior_mean,
    posterior_mean_many,
    posterior_var_many,
)
from gpexpect.kernels import (
    RbfKernel,
    eval_kernel,
    kernel_cross,
    kernel_crosses,
    kernel_matrix,
    kernel_vector,
)
from gpexpect.mixtures import GaussianMixture, pdf, pdf_many, sample
from gpexpect.oracles import quad_integral_1d, quad_integral_2d
from gpexpect.validation import perturbed_contexts, random_instance

UNIT_KERNEL = RbfKernel(amplitude_sq=1.0, lengthscales=np.array([1.0]))


def single_comp(w=0.0, var=1.0, d=1):
    w = np.full(d, float(w))
    return GaussianMixture(
        weights=np.array([1.0]), means=w[None, :], covs=(var * np.eye(d))[None, :, :]
    )


def two_comp_1d():
    return GaussianMixture(
        weights=np.array([0.4, 0.6]),
        means=np.array([[-1.0], [1.5]]),
        covs=np.array([[[0.5]], [[1.2]]]),
    )


def branin_mixture():
    # the three-component input density of the Branin benchmark
    return GaussianMixture(
        weights=np.array([0.5, 0.3, 0.2]),
        means=np.array([[-np.pi, 12.275], [np.pi, 2.275], [9.42478, 2.475]]),
        covs=np.array([np.eye(2)] * 3),
    )


def point_mass_1d(w=0.0):
    # covariance below half an ulp of the unit lengthscale: Lambda + Sigma
    # rounds to Lambda exactly, so the mixture behaves as a point mass
    return single_comp(w, var=5e-17)


def component(mean, cov):
    """The one-component mixture N(mean, cov)."""
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    return GaussianMixture(weights=np.array([1.0]), means=mean[None, :],
                           covs=np.atleast_2d(np.asarray(cov, dtype=float))[None])


def at_point(ctx, x) -> dict:
    """Every acquisition quantity at the single point ``x``: row 0 of a one-row profile."""
    prof = acquisition_profile(ctx, np.atleast_1d(np.asarray(x, dtype=float))[None, :])
    return {key: column[0] for key, column in prof.items()}


def probe(ctx, X):
    """The probe of rows ``X`` in ``ctx`` alone, its context axis dropped (``u`` keeps its own)."""
    p = _probe(_stack([ctx]), X)
    return p._replace(kv=p.kv[0], solved_kv=p.solved_kv[0], v=p.v[0], pred_var=p.pred_var[0],
                      live=p.live[0])


def gradients(objective, X) -> np.ndarray:
    """``objective``'s gradients at every row of ``X``, from one call."""
    values, gradients_at = objective(X)
    return gradients_at(np.arange(len(values)))


def fitted_gp(rng, d=1, n=4, noise=0.05):
    ker = RbfKernel(amplitude_sq=1.0, lengthscales=np.full(d, 0.8))
    X = rng.normal(size=(n, d))
    y = rng.normal(size=n)
    return fit(Dataset(X=X, y=y), ker, NoiseModel(variance=noise))


class TestKernelMeanComponent:
    def test_delta_limit_recovers_kernel(self):
        rng = np.random.default_rng(0)
        ker = RbfKernel(amplitude_sq=1.3, lengthscales=np.array([0.7, 1.1]))
        for _ in range(5):
            x, w = rng.normal(size=(2, 2))
            val = kernel_mean(x, ker, component(w, 1e-12 * np.eye(2)))
            assert_allclose(val, eval_kernel(x, w, ker), rtol=1e-6)

    def test_unit_case_at_center(self):
        val = kernel_mean(np.array([0.0]), UNIT_KERNEL, component([0.0], [[1.0]]))
        assert_allclose(val, 1.0 / np.sqrt(2.0), atol=1e-6)
        assert_allclose(val, 0.707107, atol=1e-6)

    def test_unit_case_offset_one_with_quadrature(self):
        x = np.array([1.0])
        val = kernel_mean(x, UNIT_KERNEL, component([0.0], [[1.0]]))
        assert_allclose(val, np.exp(-0.25) / np.sqrt(2.0), rtol=1e-12)
        assert_allclose(val, 0.550690, atol=1e-5)

        def integrand(t):
            point = np.array([t])
            return eval_kernel(x, point, UNIT_KERNEL) * np.exp(-0.5 * t * t) / np.sqrt(
                2 * np.pi
            )

        quad, _ = quad_integral_1d(integrand, -12.0, 12.0, tol=1e-12)
        assert_allclose(val, quad, atol=1e-8)

    def test_positive_and_bounded_by_amplitude(self):
        # smoothing can only lower the peak: the convolved kernel stays
        # below s^2 everywhere (it overtakes k(x,w) itself in the far tail)
        rng = np.random.default_rng(1)
        ker = RbfKernel(amplitude_sq=2.0, lengthscales=np.array([0.9]))
        for _ in range(20):
            x, w = rng.normal(size=(2, 1))
            var = float(rng.uniform(0.1, 3.0))
            val = kernel_mean(x, ker, component(w, [[var]]))
            assert 0.0 < val < ker.amplitude_sq
        at_center = kernel_mean(w, ker, component(w, [[1.0]]))
        assert at_center < eval_kernel(w, w, ker)

    def test_rejects_non_spd_cov(self):
        with pytest.raises(ValueError, match="component covariance must be SPD"):
            kernel_mean(np.array([0.0]), UNIT_KERNEL, component([0.0], [[-1.0]]))


def looped_component_factors(ker, covs):
    """The component factors one component at a time, as computed before the stacked call."""
    chols = np.empty((len(covs), ker.dim, ker.dim))
    factors = np.empty(len(covs))
    for i, cov in enumerate(covs):
        total = cov + np.diag(ker.lengthscales)
        chols[i] = np.linalg.cholesky(0.5 * (total + total.T))
        log_det = 2.0 * np.sum(np.log(np.diag(chols[i]))) - np.sum(np.log(ker.lengthscales))
        factors[i] = np.exp(-0.5 * float(log_det))
    return chols, factors


class TestComponentFactors:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 5), k=st.integers(1, 5))
    def test_stacked_call_is_the_per_component_loop(self, seed, d, k):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(k, d, d)) * np.exp(rng.uniform(-4, 4, size=(k, 1, 1)))
        covs = A @ A.transpose(0, 2, 1) + 1e-3 * np.eye(d)
        ker = RbfKernel(amplitude_sq=1.0, lengthscales=np.exp(rng.uniform(-5, 5, size=d)))
        chols, factors = _component_factors(ker, covs)
        want_chols, want_factors = looped_component_factors(ker, covs)
        assert chols.tobytes() == want_chols.tobytes()
        assert factors.tobytes() == want_factors.tobytes()
        # forward_solve takes the branch it took on the loop's rows
        assert chols.flags.c_contiguous


class TestKernelMean:
    def test_single_component_reduction(self):
        # |I + cov / Lambda|^(-1/2) k(x, mean; cov + Lambda) with Lambda = 1, cov = 0.8
        x = np.array([0.3])
        mix = single_comp(0.5, 0.8)
        assert_allclose(
            kernel_mean(x, UNIT_KERNEL, mix),
            np.exp(-0.5 * 0.2**2 / 1.8) / np.sqrt(1.8),
            rtol=1e-14,
        )

    def test_two_component_quadrature(self):
        mix = two_comp_1d()
        for xv in (-0.5, 0.2, 1.0):
            x = np.array([xv])
            val = kernel_mean(x, UNIT_KERNEL, mix)

            def integrand(t):
                point = np.array([t])
                return eval_kernel(x, point, UNIT_KERNEL) * pdf(mix, point)

            quad, _ = quad_integral_1d(integrand, -14.0, 14.0, tol=1e-12)
            assert_allclose(val, quad, atol=1e-8)

    def test_monte_carlo_2d(self):
        rng = np.random.default_rng(2)
        W = rng.normal(size=(2, 2))
        mix = GaussianMixture(
            weights=np.array([0.5, 0.5]),
            means=rng.normal(size=(2, 2)),
            covs=np.stack([W @ W.T + 0.5 * np.eye(2), np.eye(2)]),
        )
        ker = RbfKernel(amplitude_sq=1.0, lengthscales=np.array([0.8, 1.2]))
        x = np.array([0.2, -0.4])
        draws = sample(mix, 1_000_000, seed=3)
        vals = np.exp(
            -0.5 * np.sum((draws - x) ** 2 / ker.lengthscales, axis=1)
        )
        mc, se = vals.mean(), vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(kernel_mean(x, ker, mix) - mc) < 4 * se


def reference_component_terms(ctx, X):
    """Per row and component: the substitution, K_i by ``np.dot`` and w_i K_i by adds.

    One row, one component and one dimension at a time: the substitution
    one term at a time, the square of the substitution added one
    dimension at a time.
    """
    mix, s2 = ctx.mix, ctx.gp.kernel.amplitude_sq
    m, k, d = X.shape[0], mix.n_components, mix.dim
    u, k_dot, w_k = np.empty((m, k, d)), np.empty((m, k)), np.empty((m, k))
    for j in range(m):
        for i in range(k):
            chol = ctx._comp_chols[i]
            for r in range(d):
                acc = X[j, r] - mix.means[i, r]
                for c in range(r):
                    acc = acc - chol[r, c] * u[j, i, c]
                u[j, i, r] = acc / chol[r, r]
            quad = u[j, i, 0] * u[j, i, 0]
            for r in range(1, d):
                quad = quad + u[j, i, r] * u[j, i, r]
            factor = ctx._comp_factors[i]
            k_dot[j, i] = factor * (s2 * np.exp(-0.5 * np.dot(u[j, i], u[j, i])))
            w_k[j, i] = mix.weights[i] * factor * s2 * np.exp(-0.5 * quad)
    return u, k_dot, w_k


class TestWholeArrayKernelMeans:
    """The whole-array kernel means are the one-component, one-dimension loops bit for bit."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 6),
        k=st.integers(1, 10),
        d=st.integers(1, 5),
    )
    def test_kernel_means_match_the_reference_loop(self, seed, m, k, d):
        rng = np.random.default_rng(seed)
        gp, mix = random_instance(rng, d=d, n=int(rng.integers(0, 5)), n_gmm=k)
        ctx = build_context(gp, mix)
        X = rng.uniform(-3.0, 3.0, size=(m, d))
        u_ref, k_dot, w_k = reference_component_terms(ctx, X)
        km = _stack([ctx]).kernel_means
        kmean, u = _kernel_means(km, X)
        # u is dimension-major, (d, k, m) against the reference's (m, k, d)
        assert u.shape == u_ref.shape[::-1] and u.transpose(2, 1, 0).tobytes() == u_ref.tobytes()
        total = np.zeros(m)
        for i in range(k):
            total = total + w_k[:, i]
        assert kmean.shape == (1, m) and kmean.tobytes() == total.tobytes()
        got = _component_means(km, u)
        assert got.shape == (m, 1, k) and got.tobytes() == k_dot.tobytes()


class TestRowsInnermostLayout:
    """The probe's rows-innermost passes read, entry by entry, as one-pair and reference loops."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 5), T=st.integers(1, 4),
           k=st.integers(1, 3), m=st.integers(0, 6), n=st.integers(0, 8))
    @example(seed=0, d=3, T=2, k=2, m=0, n=0)
    @example(seed=1, d=1, T=1, k=1, m=3, n=0)
    @example(seed=2, d=5, T=4, k=3, m=0, n=8)
    def test_entries_match_one_pair_calls_and_the_reference_loop(self, seed, d, T, k, m, n):
        rng = np.random.default_rng(seed)
        gp, mix = random_instance(rng, d=d, n=n, n_gmm=k)
        contexts = perturbed_contexts(rng, gp, mix, T)
        stack = _stack(contexts)
        post, km = stack.posteriors, stack.kernel_means
        X = rng.uniform(-3.0, 3.0, size=(m, d))

        kv = kernel_crosses(X, post.X, post.amplitude_sq, post.lengthscales)
        assert kv.shape == (T, m, n)
        for t in range(T):
            for i in range(m):
                for j in range(n):
                    one = kernel_crosses(X[i:i + 1], post.X[j:j + 1], post.amplitude_sq[t:t + 1],
                                         post.lengthscales[t:t + 1])
                    assert kv[t, i, j].tobytes() == one.tobytes()

        refs = [reference_component_terms(ctx, X) for ctx in contexts]
        kmean, u = _kernel_means(km, X)
        u_ref = np.concatenate([ref[0] for ref in refs], axis=1)
        assert u_ref.shape == (m, T * k, d) and u.shape == (d, T * k, m)
        assert u.transpose(2, 1, 0).tobytes() == u_ref.tobytes()
        kmean_ref = np.zeros((T, m))
        for t, (_, _, w_k) in enumerate(refs):
            for i in range(k):
                kmean_ref[t] = kmean_ref[t] + w_k[:, i]
        assert kmean.shape == (T, m) and kmean.tobytes() == kmean_ref.tobytes()
        dotted = []

        def logged_row_dots(A, B):
            dotted.append(A)
            return row_dots(A, B)

        with mock.patch("gpexpect.acquisition.row_dots", logged_row_dots):
            got = _component_means(km, u)
        # the BLAS dots run on contiguous (m, T k, d) rows
        assert len(dotted) == 1 and dotted[0].shape == (m, T * k, d)
        assert dotted[0].flags.c_contiguous
        k_dot = np.stack([ref[1] for ref in refs], axis=1)
        assert got.shape == (m, T, k) and got.tobytes() == k_dot.tobytes()


class TestKernelMeanGradient:
    def test_zero_at_component_center(self):
        grad = kernel_mean_gradient(np.array([0.5]), UNIT_KERNEL, single_comp(0.5))
        assert_allclose(grad, [0.0], atol=1e-14)

    def test_unit_case_offset_one(self):
        grad = kernel_mean_gradient(np.array([1.0]), UNIT_KERNEL, single_comp(0.0))
        assert_allclose(grad, [-0.5 * np.exp(-0.25) / np.sqrt(2.0)], rtol=1e-12)
        assert_allclose(grad, [-0.275345], atol=1e-5)

    def test_finite_differences_random_mixtures(self):
        rng = np.random.default_rng(4)
        h = 1e-6
        for _ in range(25):
            gp, mix = random_instance(rng)
            d = mix.means.shape[1]
            x = rng.normal(size=d)
            grad = kernel_mean_gradient(x, gp.kernel, mix)
            fd = np.empty(d)
            for j in range(d):
                e = np.zeros(d)
                e[j] = h
                fd[j] = (
                    kernel_mean(x + e, gp.kernel, mix)
                    - kernel_mean(x - e, gp.kernel, mix)
                ) / (2 * h)
            assert np.linalg.norm(grad - fd) <= 1e-6 * max(np.linalg.norm(fd), 1e-12)


class TestDoubleKernelMean:
    def test_delta_limit_is_amplitude(self):
        ker = RbfKernel(amplitude_sq=1.7, lengthscales=np.array([0.9]))
        val = double_kernel_mean(ker, single_comp(0.3, var=1e-13))
        assert_allclose(val, 1.7, rtol=1e-6)

    def test_unit_single_component(self):
        val = double_kernel_mean(UNIT_KERNEL, single_comp(0.0, 1.0))
        assert_allclose(val, 1.0 / np.sqrt(3.0), rtol=1e-12)
        assert_allclose(val, 0.577350, atol=1e-6)

    def test_two_component_tensor_quadrature(self):
        mix = two_comp_1d()
        val = double_kernel_mean(UNIT_KERNEL, mix)

        def integrand(P):
            k = np.exp(-0.5 * (P[:, 0] - P[:, 1]) ** 2)
            return k * pdf_many(mix, P[:, 0:1]) * pdf_many(mix, P[:, 1:2])

        quad = quad_integral_2d(integrand, np.full(2, -12.0), np.full(2, 12.0),
                                per_axis=300)
        assert_allclose(val, quad, atol=1e-7)

    def test_bounded_by_amplitude(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            gp, mix = random_instance(rng)
            val = double_kernel_mean(gp.kernel, mix)
            assert 0.0 < val <= gp.kernel.amplitude_sq + 1e-12


def dense_context_oracle(gp, mix):
    """mu1 and sigma1_sq from scratch with plain dense solves."""
    n = gp.n
    km = np.array([kernel_mean(gp.data.X[i], gp.kernel, mix) for i in range(n)])
    A = kernel_matrix(gp.data.X, gp.kernel) + (gp.noise.variance + gp.jitter) * np.eye(n)
    solved = np.linalg.solve(A, km)
    mu1 = float(km @ np.linalg.solve(A, gp.data.y))
    sigma1_sq = double_kernel_mean(gp.kernel, mix) - float(km @ solved)
    return mu1, sigma1_sq


class TestBuildContext:
    def test_prior_case(self):
        gp = fit(Dataset.empty(1), UNIT_KERNEL, NoiseModel(variance=0.0))
        ctx = build_context(gp, single_comp())
        assert ctx.mu1 == 0.0
        assert_allclose(ctx.sigma1_sq, double_kernel_mean(UNIT_KERNEL, single_comp()),
                        rtol=1e-14)

    def test_context_invariants(self):
        rng = np.random.default_rng(6)
        gp = fitted_gp(rng, n=5)
        ctx = build_context(gp, two_comp_1d())
        A = kernel_matrix(gp.data.X, gp.kernel) + gp.noise.variance * np.eye(gp.n)
        resid = A @ ctx.solved_kmean - ctx.kmean_train
        assert np.linalg.norm(resid) < 1e-8 * np.linalg.norm(ctx.kmean_train)
        assert_allclose(ctx.mu1, ctx.kmean_train @ gp.weights, rtol=1e-12)

    def test_mu1_against_monte_carlo(self):
        rng = np.random.default_rng(7)
        gp = fitted_gp(rng, n=3)
        mix = two_comp_1d()
        ctx = build_context(gp, mix)
        draws = sample(mix, 1_000_000, seed=8)
        kv = kernel_cross(draws, gp.data.X, gp.kernel)
        vals = kv @ gp.weights
        mc, se = vals.mean(), vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(ctx.mu1 - mc) < 4 * se

    def test_sigma1_against_quadrature(self):
        rng = np.random.default_rng(9)
        gp = fitted_gp(rng, n=3)
        mix = two_comp_1d()
        ctx = build_context(gp, mix)

        def integrand(P):
            a, b = P[:, 0:1], P[:, 1:2]
            prior = np.exp(-0.5 * (P[:, 0] - P[:, 1]) ** 2 / 0.8)
            ka = kernel_cross(a, gp.data.X, gp.kernel)
            kb = kernel_cross(b, gp.data.X, gp.kernel)
            kn = prior - np.einsum(
                "ij,ij->i", ka, cho_solve((gp.gram_factor, True), kb.T).T
            )
            return kn * pdf_many(mix, a) * pdf_many(mix, b)

        quad = quad_integral_2d(integrand, np.full(2, -12.0), np.full(2, 12.0),
                                per_axis=300)
        assert_allclose(ctx.sigma1_sq, quad, atol=1e-6)

    def test_duplicated_data_matches_dense_oracle(self):
        # an exact duplicate makes K singular; sigma^2 > 0 must keep the
        # incremental quantities in agreement with a from-scratch solve
        rng = np.random.default_rng(10)
        X = rng.normal(size=(4, 1))
        X[3] = X[0]
        y = rng.normal(size=4)
        y[3] = y[0]
        gp = fit(Dataset(X=X, y=y), UNIT_KERNEL, NoiseModel(variance=0.05))
        ctx = build_context(gp, two_comp_1d())
        mu1, sigma1_sq = dense_context_oracle(gp, two_comp_1d())
        assert_allclose(ctx.mu1, mu1, rtol=1e-8, atol=1e-10)
        assert_allclose(ctx.sigma1_sq, sigma1_sq, rtol=1e-8, atol=1e-10)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(11)
        gp = fitted_gp(rng, d=2)
        with pytest.raises(ValueError):
            build_context(gp, single_comp(d=1))

    def test_golden_branin_estimate(self):
        # a fixed design, kernel and mixture: mu1 and sigma1^2 keep their bits
        # through any change that is meant to leave the estimate alone
        X = np.array([[-3.0, 12.0], [-2.0, 11.5], [3.0, 2.0], [4.0, 3.0], [9.0, 2.5],
                      [0.5, 6.0]])
        ker = RbfKernel(amplitude_sq=2500.0, lengthscales=np.array([4.0, 4.0]))
        gp = fit(Dataset(X=X, y=branin(X)), ker, NoiseModel(variance=1e-4))
        ctx = build_context(gp, branin_mixture())
        assert ctx.mu1.hex() == "0x1.d5806347ba7acp-1"
        assert ctx.sigma1_sq.hex() == "0x1.02ed5064ab980p+5"

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_component_order_does_not_move_the_estimate(self, seed, data):
        rng = np.random.default_rng(seed)
        gp, mix = random_instance(rng, n=int(rng.integers(0, 9)), n_gmm=int(rng.integers(2, 5)))
        order = data.draw(st.permutations(range(mix.n_components)))
        permuted = GaussianMixture(
            weights=mix.weights[order], means=mix.means[order], covs=mix.covs[order]
        )
        ctx = build_context(gp, mix)
        moved = build_context(gp, permuted)
        sigma1 = np.sqrt(ctx.sigma1_sq)
        assert abs(moved.mu1 - ctx.mu1) <= 1e-10 * (abs(ctx.mu1) + sigma1)
        assert abs(moved.sigma1_sq - ctx.sigma1_sq) <= 1e-10 * double_kernel_mean(gp.kernel, mix)


    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_reused_theta_terms_give_a_fresh_build(self, seed):
        # the next step's context: the previous one's kernel and mixture, one more point
        rng = np.random.default_rng(seed)
        gp, mix = random_instance(rng, n=int(rng.integers(0, 9)), n_gmm=int(rng.integers(1, 5)))
        previous = build_context(gp, mix)
        x = sample(mix, 1, seed=seed)[0]
        grown = fit(gp.data.append(x, float(rng.normal())), gp.kernel, gp.noise)
        reused, fresh = build_context(grown, mix, previous), build_context(grown, mix)
        for name in ("kmean_train", "solved_kmean", "mu1", "sigma1_sq",
                     "_comp_chols", "_comp_factors", "_double_mean"):
            assert _hex(getattr(reused, name)) == _hex(getattr(fresh, name)), name

    def test_other_kernel_or_mixture_recomputes_theta_terms(self, monkeypatch):
        import gpexpect.acquisition

        calls = []

        def counting(ker, mix):
            calls.append(ker)
            return double_kernel_mean(ker, mix)

        monkeypatch.setattr(gpexpect.acquisition, "double_kernel_mean", counting)
        gp, mix = fitted_gp(np.random.default_rng(12)), two_comp_1d()
        ctx = build_context(gp, mix)
        assert build_context(gp, mix, ctx)._comp_chols is ctx._comp_chols
        assert len(calls) == 1
        # an equal kernel or an equal mixture that is another object builds its own terms
        twin = RbfKernel(amplitude_sq=gp.kernel.amplitude_sq, lengthscales=gp.kernel.lengthscales)
        build_context(fit(gp.data, twin, gp.noise), mix, ctx)
        build_context(gp, two_comp_1d(), ctx)
        assert len(calls) == 3


class TestVarianceReductionS:
    def test_prior_point_mass_case(self):
        gp = fit(Dataset.empty(1), UNIT_KERNEL, NoiseModel(variance=0.0))
        ctx = build_context(gp, single_comp(0.0, 1.0))
        s = at_point(ctx, np.array([0.0]))["s"]
        assert_allclose(s, 1.0 / np.sqrt(2.0), rtol=1e-12)
        assert_allclose(s, 0.707107, atol=1e-6)

    def test_far_probe_vanishes(self):
        rng = np.random.default_rng(12)
        gp = fitted_gp(rng, n=4)
        ctx = build_context(gp, single_comp())
        assert abs(at_point(ctx, np.array([100.0]))["s"]) < 1e-10

    def test_updated_variance_against_quadrature(self):
        rng = np.random.default_rng(13)
        gp = fitted_gp(rng, n=3, noise=0.05)
        mix = two_comp_1d()
        ctx = build_context(gp, mix)
        xt = np.array([0.4])
        s = at_point(ctx, xt)["s"]

        kt = kernel_vector(xt, gp.data.X, gp.kernel)
        denom = (
            eval_kernel(xt, xt, gp.kernel)
            - kt @ cho_solve((gp.gram_factor, True), kt)
            + gp.noise.variance
        )

        def integrand(P):
            a, b = P[:, 0:1], P[:, 1:2]
            prior = np.exp(-0.5 * (P[:, 0] - P[:, 1]) ** 2 / 0.8)
            ka = kernel_cross(a, gp.data.X, gp.kernel)
            kb = kernel_cross(b, gp.data.X, gp.kernel)
            kn_ab = prior - np.einsum(
                "ij,ij->i", ka, cho_solve((gp.gram_factor, True), kb.T).T
            )
            kn_at = (
                np.exp(-0.5 * (P[:, 0] - xt[0]) ** 2 / 0.8)
                - ka @ cho_solve((gp.gram_factor, True), kt)
            )
            kn_tb = (
                np.exp(-0.5 * (xt[0] - P[:, 1]) ** 2 / 0.8)
                - kb @ cho_solve((gp.gram_factor, True), kt)
            )
            k_next = kn_ab - kn_at * kn_tb / denom
            return k_next * pdf_many(mix, a) * pdf_many(mix, b)

        quad = quad_integral_2d(integrand, np.full(2, -12.0), np.full(2, 12.0),
                                per_axis=300)
        assert_allclose(ctx.sigma1_sq - s * s, quad, atol=1e-6)

    def test_s_squared_bounded_by_sigma1(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            gp, mix = random_instance(rng)
            ctx = build_context(gp, mix)
            for _ in range(20):
                xt = rng.normal(size=mix.means.shape[1])
                s = at_point(ctx, xt)["s"]
                assert s * s <= ctx.sigma1_sq + 1e-12

    def test_correlation_form_monte_carlo(self):
        # S equals the mixture average of corr(y_t, y_x) * sd(y_x), which
        # collapses to posterior_cov(t, x) / sd(y_t)
        rng = np.random.default_rng(15)
        gp = fitted_gp(rng, n=4, noise=0.05)
        mix = two_comp_1d()
        ctx = build_context(gp, mix)
        xt = np.array([0.3])

        kt = kernel_vector(xt, gp.data.X, gp.kernel)
        solved_t = cho_solve((gp.gram_factor, True), kt)
        denom = eval_kernel(xt, xt, gp.kernel) - kt @ solved_t + gp.noise.variance

        draws = sample(mix, 1_000_000, seed=16)
        k_prior = np.exp(-0.5 * (draws[:, 0] - xt[0]) ** 2 / 0.8)
        kx = kernel_cross(draws, gp.data.X, gp.kernel)
        kn_tx = k_prior - kx @ solved_t
        vals = kn_tx / np.sqrt(denom)
        mc, se = vals.mean(), vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(at_point(ctx, xt)["s"] - mc) < 4 * se


def reference_acquisition_gradient(ctx, xt):
    """Reference: the per-point gradient of S^2 as one-point code computed it.

    Kernel means by substitution and ``np.dot``, one single-column Cholesky
    solve per component, ``J.T`` products, and D^2 on a Python float.
    """
    gp, mix = ctx.gp, ctx.mix
    p = probe(ctx, xt[None, :])
    if not p.live[0]:
        return np.zeros(gp.dim)
    grad_v = np.zeros(xt.size)
    for w, mean, chol, factor in zip(mix.weights, mix.means, ctx._comp_chols, ctx._comp_factors):
        u = forward_substitute(chol[None], (xt - mean)[:, None, None])[:, 0, 0]
        k = factor * (gp.kernel.amplitude_sq * np.exp(-0.5 * np.dot(u, u)))
        grad_v -= w * k * chol_solve(chol, xt - mean)
    J = -(xt - gp.data.X) / gp.kernel.lengthscales * p.kv[0][:, None]
    grad_v = grad_v - J.T @ ctx.solved_kmean
    grad_D = -2.0 * (J.T @ p.solved_kv[0])
    v, D = float(p.v[0]), float(p.pred_var[0])
    return (2.0 * v / D) * grad_v - (v * v / D**2) * grad_D


class TestAcquisitionValueGradient:
    def test_symmetric_midpoint_gradient_zero(self):
        gp = fit(
            Dataset(X=np.array([[-1.0], [1.0]]), y=np.array([0.7, 0.7])),
            UNIT_KERNEL,
            NoiseModel(variance=0.1),
        )
        ctx = build_context(gp, single_comp())
        grad = gradients(acquisition_objective(ctx), np.array([[0.0]]))[0]
        assert abs(grad[0]) < 1e-8

    def test_finite_differences_random_instances(self):
        rng = np.random.default_rng(17)
        h = 1e-5
        checked = 0
        while checked < 30:
            gp, mix = random_instance(rng, n=int(rng.integers(1, 7)))
            ctx = build_context(gp, mix)
            d = mix.means.shape[1]
            xt = sample(mix, 1, seed=int(rng.integers(2**31)))[0]
            steps = h * np.eye(d)
            values = acquisition_objective(ctx)(np.concatenate([xt + steps, xt - steps]))[0]
            fd = (values[:d] - values[d:]) / (2 * h)
            if np.linalg.norm(fd) < 1e-3:
                continue
            grad = gradients(acquisition_objective(ctx), xt[None])[0]
            assert np.linalg.norm(grad - fd) <= 1e-5 * np.linalg.norm(fd)
            checked += 1

    @pytest.mark.parametrize("d", [1, 2])
    def test_one_row_is_the_reference_gradient(self, d):
        # 3,600 rows per dimension; squaring D with numpy's square instead of
        # a Python float's libm pow changes a few of them in the last bits
        rng = np.random.default_rng(2024 + d)
        for _ in range(60):
            gp, mix = random_instance(rng, d=d, n=int(rng.integers(1, 31)))
            ctx = build_context(gp, mix)
            X = np.concatenate([sample(mix, 30, seed=int(rng.integers(2**63))),
                                rng.uniform(-4.0, 4.0, size=(30, d))])
            got = np.array([gradients(acquisition_objective(ctx), x[None])[0] for x in X])
            want = np.array([reference_acquisition_gradient(ctx, x) for x in X])
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 6])
    def test_non_live_row_reads_zero_in_a_batch(self, n):
        # a noiseless duplicate of a data point has nothing left to learn;
        # its row must read zero without dividing by its zero variance
        # (one unit-amplitude data point makes that variance exactly 0)
        rng = np.random.default_rng(19 + n)
        gp, mix = random_instance(rng, d=2, n=n, noise=0.0)
        if n == 1:
            gp = fit(gp.data, RbfKernel(amplitude_sq=1.0, lengthscales=gp.kernel.lengthscales),
                     gp.noise)
        ctx = build_context(gp, mix)
        X = np.concatenate([sample(mix, 5, seed=4), gp.data.X[:1], rng.uniform(-2, 2, (3, 2))])
        p = probe(ctx, X)
        assert not p.live[5] and p.live[np.arange(9) != 5].all()
        assert n > 1 or p.pred_var[5] == 0.0
        with np.errstate(divide="raise", invalid="raise"):
            G = gradients(acquisition_objective(ctx), X)
            GM = gradients(multi_theta_objective([ctx]), X)
        assert G[5].tobytes() == np.zeros(2).tobytes()
        assert_array_equal(GM[5], np.zeros(2))
        for i, x in enumerate(X):
            assert G[i].tobytes() == gradients(acquisition_objective(ctx), x[None])[0].tobytes()
            assert G[i].tobytes() == reference_acquisition_gradient(ctx, x).tobytes()
            assert GM[i].tobytes() == gradients(multi_theta_objective([ctx]), x[None])[0].tobytes()

    def test_value_nonnegative_and_bounded(self):
        rng = np.random.default_rng(18)
        gp, mix = random_instance(rng, n=5)
        ctx = build_context(gp, mix)
        probes = sample(mix, 1000, seed=19)
        for xt in probes:
            val = acquisition_objective(ctx)(xt[None])[0][0]
            assert 0.0 <= val <= ctx.sigma1_sq + 1e-12

    def test_value_is_s_squared(self):
        rng = np.random.default_rng(20)
        gp, mix = random_instance(rng, n=4)
        ctx = build_context(gp, mix)
        xt = sample(mix, 1, seed=21)[0]
        s = at_point(ctx, xt)["s"]
        assert_allclose(acquisition_objective(ctx)(xt[None])[0][0], s * s, rtol=1e-12)


class TestHypotheticalUpdate:
    def test_uninformative_point(self):
        rng = np.random.default_rng(22)
        gp = fitted_gp(rng, n=3)
        ctx = build_context(gp, single_comp())
        upd = at_point(ctx, np.array([200.0]))
        assert_allclose(upd["sigma2_sq"], ctx.sigma1_sq, rtol=1e-12)
        assert abs(upd["innovation_coeff"]) < 1e-12

    def test_y_independence_via_refit(self):
        rng = np.random.default_rng(23)
        gp = fitted_gp(rng, n=4, noise=0.05)
        mix = two_comp_1d()
        ctx = build_context(gp, mix)
        xt = np.array([0.6])
        upd = at_point(ctx, xt)
        for yt in (-2.0, -0.5, 0.0, 1.0, 3.0):
            refit = fit(gp.data.append(xt, yt), gp.kernel, gp.noise)
            new_ctx = build_context(refit, mix)
            assert_allclose(new_ctx.sigma1_sq, upd["sigma2_sq"], rtol=1e-8, atol=1e-10)

    def test_zero_innovation_keeps_mean(self):
        rng = np.random.default_rng(24)
        gp = fitted_gp(rng, n=4)
        ctx = build_context(gp, single_comp())
        xt = np.array([0.2])
        upd = at_point(ctx, xt)
        mu2 = ctx.mu1 + upd["innovation_coeff"] * (upd["pred_mean"] - upd["pred_mean"])
        assert mu2 == ctx.mu1

    def test_mu2_affine_matches_refit(self):
        rng = np.random.default_rng(25)
        gp = fitted_gp(rng, n=3, noise=0.05)
        mix = two_comp_1d()
        ctx = build_context(gp, mix)
        xt = np.array([-0.4])
        upd = at_point(ctx, xt)
        for yt in (-1.0, 0.5, 2.0):
            refit = fit(gp.data.append(xt, yt), gp.kernel, gp.noise)
            new_ctx = build_context(refit, mix)
            mu2 = ctx.mu1 + upd["innovation_coeff"] * (yt - upd["pred_mean"])
            assert_allclose(new_ctx.mu1, mu2, rtol=1e-8, atol=1e-10)


class TestInfoGainFourTerm:
    def test_last_three_terms_cancel(self):
        rng = np.random.default_rng(26)
        for _ in range(20):
            gp, mix = random_instance(rng)
            ctx = build_context(gp, mix)
            xt = sample(mix, 1, seed=int(rng.integers(2**31)))[0]
            row = at_point(ctx, xt)
            g, terms = row["gain_four_term"], row["gain_terms"]
            assert_allclose(g, terms[0], rtol=0, atol=1e-10 * max(1.0, abs(terms[0])))
            assert abs(terms[1] + terms[2] + terms[3]) <= 1e-10 * max(1.0, abs(terms[0]))

    def test_uninformative_point_terms(self):
        rng = np.random.default_rng(27)
        gp = fitted_gp(rng, n=3)
        ctx = build_context(gp, single_comp())
        row = at_point(ctx, np.array([150.0]))
        g, terms = row["gain_four_term"], row["gain_terms"]
        assert abs(g) < 1e-12
        assert_allclose(terms, [0.0, 0.5, -0.5, 0.0], atol=1e-12)

    def test_monte_carlo_over_hypothetical_observations(self):
        from gpexpect.oracles import mc_info_gain

        rng = np.random.default_rng(28)
        gp = fitted_gp(rng, n=4, noise=0.05)
        mix = two_comp_1d()
        ctx = build_context(gp, mix)
        xt = np.array([0.5])
        g = at_point(ctx, xt)["gain_four_term"]
        mc, se = mc_info_gain(gp, mix, xt, 100_000, seed=29)
        assert abs(g - mc) < 4 * se

    def test_exact_estimate_is_degenerate(self):
        gp = fit(
            Dataset(X=np.array([[0.0]]), y=np.array([1.0])),
            UNIT_KERNEL,
            NoiseModel(variance=0.0),
        )
        ctx = build_context(gp, point_mass_1d(0.0))
        assert ctx.sigma1_sq == 0.0
        with pytest.raises(DegenerateEstimateError):
            acquisition_profile(ctx, np.array([[1.0]]))
        with pytest.raises(DegenerateEstimateError):
            multi_theta_objective([ctx])(np.array([[1.0]]))

    def test_degenerate_profile_raises(self):
        # before any term divides by sigma1^2 = 0
        gp = fit(
            Dataset(X=np.array([[0.0]]), y=np.array([1.0])),
            UNIT_KERNEL,
            NoiseModel(variance=0.0),
        )
        ctx = build_context(gp, point_mass_1d(0.0))
        with pytest.raises(DegenerateEstimateError):
            acquisition_profile(ctx, np.array([[1.0], [0.0]]))


class TestInfoGainSimplified:
    def test_uninformative_point_is_zero(self):
        rng = np.random.default_rng(30)
        gp = fitted_gp(rng, n=3)
        ctx = build_context(gp, single_comp())
        assert abs(at_point(ctx, np.array([150.0]))["gain_simplified"]) < 1e-12

    def test_equals_four_term_sum(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            gp, mix = random_instance(rng)
            ctx = build_context(gp, mix)
            xt = sample(mix, 1, seed=int(rng.integers(2**31)))[0]
            row = at_point(ctx, xt)
            g = row["gain_four_term"]
            assert_allclose(row["gain_simplified"], g, rtol=0, atol=1e-10 * max(1.0, abs(g)))

    def test_monotone_in_s_squared(self):
        rng = np.random.default_rng(32)
        gp, mix = random_instance(rng, n=4)
        ctx = build_context(gp, mix)
        probes = sample(mix, 40, seed=33)
        vals = acquisition_objective(ctx)(probes)[0]
        gains = acquisition_profile(ctx, probes)["gain_simplified"]
        order = np.argsort(vals)
        distinct = np.diff(vals[order]) > 1e-15
        assert np.all(np.diff(gains[order])[distinct] > 0)

    def test_point_mass_probe_hits_sentinel(self):
        # observing the collapsed mixture location noiselessly pins q, so
        # sigma2 underflows to zero and the gain saturates
        gp = fit(Dataset.empty(1), UNIT_KERNEL, NoiseModel(variance=0.0))
        ctx = build_context(gp, point_mass_1d(0.0))
        xt = np.array([0.0])
        row = at_point(ctx, xt)
        assert row["sigma2_sq"] == 0.0
        assert row["gain_simplified"] == GAIN_SENTINEL
        assert row["gain_terms"][0] == GAIN_SENTINEL


class TestMultiTheta:
    def make_contexts(self, rng, count=3):
        X = rng.normal(size=(5, 1))
        y = rng.normal(size=5)
        mix = two_comp_1d()
        contexts = []
        for _ in range(count):
            ker = RbfKernel(
                amplitude_sq=float(rng.uniform(0.5, 2.0)),
                lengthscales=rng.uniform(0.4, 1.5, size=1),
            )
            gp = fit(Dataset(X=X, y=y), ker, NoiseModel(variance=0.05))
            contexts.append(build_context(gp, mix))
        return contexts

    def test_single_context_reduces(self):
        rng = np.random.default_rng(34)
        ctx = self.make_contexts(rng, count=1)[0]
        xt = np.array([0.1])
        assert_allclose(
            multi_theta_objective([ctx])(xt[None])[0][0], at_point(ctx, xt)["gain_simplified"],
            rtol=1e-14,
        )

    def test_duplicated_context_idempotent(self):
        rng = np.random.default_rng(35)
        ctx = self.make_contexts(rng, count=1)[0]
        xt = np.array([-0.3])
        assert_allclose(
            multi_theta_objective([ctx, ctx])(xt[None])[0][0],
            multi_theta_objective([ctx])(xt[None])[0][0],
            rtol=1e-14,
        )

    def test_grid_argmax_matches_variance_product_argmin(self):
        rng = np.random.default_rng(36)
        contexts = self.make_contexts(rng, count=3)
        grid = np.linspace(-3.0, 3.0, 50).reshape(-1, 1)
        objective = multi_theta_objective(contexts)
        mean_gain = np.array([objective(x[None])[0][0] for x in grid])
        log_product = np.zeros(len(grid))
        for ctx in contexts:
            for i, x in enumerate(grid):
                log_product[i] += np.log(max(at_point(ctx, x)["sigma2_sq"], 1e-300))
        assert int(np.argmax(mean_gain)) == int(np.argmin(log_product))

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            multi_theta_objective([])

    def test_equal_but_distinct_arrays_accepted(self):
        rng = np.random.default_rng(38)
        ctx = self.make_contexts(rng, count=1)[0]
        gp, mix = ctx.gp, ctx.mix
        data = Dataset(X=gp.data.X.copy(), y=gp.data.y.copy())
        mix_copy = GaussianMixture(
            weights=mix.weights.copy(), means=mix.means.copy(), covs=mix.covs.copy()
        )
        twin = build_context(fit(data, gp.kernel, gp.noise), mix_copy)
        xt = np.array([0.2])
        pair = multi_theta_objective([ctx, twin])
        assert pair(xt[None])[0][0] == at_point(ctx, xt)["gain_simplified"]
        assert_array_equal(
            gradients(pair, xt[None]), gradients(multi_theta_objective([ctx]), xt[None])
        )

    def test_different_data_or_mixture_rejected(self):
        rng = np.random.default_rng(39)
        ctx = self.make_contexts(rng, count=1)[0]
        gp = ctx.gp
        moved = Dataset(X=gp.data.X + 0.1, y=gp.data.y)
        other_data = build_context(fit(moved, gp.kernel, gp.noise), ctx.mix)
        other_mix = build_context(gp, single_comp())
        for other in (other_data, other_mix):
            with pytest.raises(ValueError, match="same data and mixture"):
                multi_theta_objective([ctx, other])

    @staticmethod
    def central_differences(value_rows, X, h=1e-5):
        """Central differences of a rows function at each row of X, from one call."""
        m, d = X.shape
        steps = h * np.eye(d)
        plus = (X[:, None, :] + steps).reshape(-1, d)
        minus = (X[:, None, :] - steps).reshape(-1, d)
        diff = value_rows(np.concatenate([plus, minus]))
        return (diff[: m * d] - diff[m * d :]).reshape(m, d) / (2 * h)

    @pytest.mark.parametrize("count", [1, 2, 3, 4])
    @pytest.mark.parametrize("d", [1, 2])
    def test_gradient_matches_finite_differences(self, d, count):
        rng = np.random.default_rng(40 + 10 * d + count)
        checked = 0
        while checked < 20:
            gp, mix = random_instance(rng, d=d, n=int(rng.integers(1, 9)))
            contexts = perturbed_contexts(rng, gp, mix, count)
            X = sample(mix, 4, seed=int(rng.integers(2**31)))
            objective = multi_theta_objective(contexts)
            fd = self.central_differences(lambda Y: objective(Y)[0], X)
            grad = gradients(objective, X)
            for g, f in zip(grad, fd):
                if np.linalg.norm(f) < 1e-3:
                    continue  # too close to a stationary point for a relative check
                assert np.linalg.norm(g - f) <= 1e-5 * np.linalg.norm(f)
                checked += 1

    @pytest.mark.parametrize("count", [1, 2, 3])
    @pytest.mark.parametrize("d", [1, 2])
    def test_plateau_context_contributes_zero(self, d, count):
        # a kernel flat across the mixture, without noise and without data:
        # one observation anywhere pins q, so sigma2^2 = 0 and the gain is
        # the sentinel on a whole neighbourhood
        rng = np.random.default_rng(60 + 10 * d + count)
        mix = single_comp(0.3, var=0.7, d=d)
        data = Dataset.empty(d)
        flat = build_context(
            fit(data, RbfKernel(amplitude_sq=1.0, lengthscales=np.full(d, 2.0**64)),
                NoiseModel(variance=0.0)),
            mix,
        )
        gp = fit(data, RbfKernel(amplitude_sq=1.3, lengthscales=np.full(d, 0.8)),
                 NoiseModel(variance=0.05))
        contexts = perturbed_contexts(rng, gp, mix, count)
        X = sample(mix, 8, seed=5)
        stencil = np.concatenate([X + 1e-5, X - 1e-5, X])
        assert_array_equal(acquisition_profile(flat, stencil)["sigma2_sq"], 0.0)
        assert_array_equal(gradients(multi_theta_objective([flat]), X), 0.0)
        objective = multi_theta_objective(contexts + [flat])
        with_flat = gradients(objective, X)
        assert_allclose(with_flat,
                        gradients(multi_theta_objective(contexts), X) * count / (count + 1),
                        rtol=1e-15, atol=0)
        fd = self.central_differences(lambda Y: objective(Y)[0], X)
        for g, f in zip(with_flat, fd):
            assert np.linalg.norm(g - f) <= 1e-5 * np.linalg.norm(f)


class TestArgmaxChain:
    def test_all_criteria_select_same_grid_point(self):
        rng = np.random.default_rng(37)
        for _ in range(5):
            gp, mix = random_instance(rng, d=1, n=int(rng.integers(1, 7)))
            ctx = build_context(gp, mix)
            lo = mix.means.min() - 3.0
            hi = mix.means.max() + 3.0
            grid = np.linspace(lo, hi, 2000).reshape(-1, 1)
            prof = acquisition_profile(ctx, grid)
            idx = int(np.argmax(prof["s_sq"]))
            assert int(np.argmax(prof["gain_simplified"])) == idx
            assert int(np.argmax(prof["gain_four_term"])) == idx
            assert int(np.argmin(prof["sigma2_sq"])) == idx


class TestScalarFormsMatchProfile:
    """A one-row call (the scalar form of a point) is its row of any batch, in every read-out."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), off_mixture=st.booleans())
    def test_one_row_profile_is_the_scalar_forms(self, seed, off_mixture):
        rng = np.random.default_rng(seed)
        gp, mix = random_instance(rng)
        ctx = build_context(gp, mix)
        if off_mixture:
            X = rng.uniform(-4.0, 4.0, size=(6, mix.dim))
        else:
            X = sample(mix, 6, seed=int(rng.integers(2**63)))
        for x in X:
            prof = acquisition_profile(ctx, x[None, :])
            s = prof["s"][0]
            assert_array_equal(prof["s_sq"], acquisition_objective(ctx)(x[None])[0])
            assert_array_equal(prof["s_sq"], [s * s])
            assert_array_equal(prof["gain_simplified"], multi_theta_objective([ctx])(x[None])[0])
            t1, t2, t3, t4 = prof["gain_terms"][0]
            assert_array_equal(prof["gain_four_term"], [t1 + t2 + t3 + t4])
            # one context: the gain's gradient is the S^2 gradient over 2 sigma2^2
            expected = (gradients(acquisition_objective(ctx), x[None])[0]
                        / (2.0 * prof["sigma2_sq"][0]))
            assert_array_equal(gradients(multi_theta_objective([ctx]), x[None])[0], expected)
        # several rows at once: each row is its one-row profile, bit for bit
        prof = acquisition_profile(ctx, X)
        for i, x in enumerate(X):
            one = acquisition_profile(ctx, x[None, :])
            for key, values in prof.items():
                assert_array_equal(values[i : i + 1], one[key])

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_rows_do_not_depend_on_the_batch(self, seed):
        # d 1-4, n 1-30 and m 2-63 rows, half on the mixture and half off it
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 5))
        gp, mix = random_instance(rng, d=d, n=int(rng.integers(1, 31)))
        ctx = build_context(gp, mix)
        m = int(rng.integers(2, 64))
        X = np.concatenate(
            [sample(mix, m // 2, seed=int(rng.integers(2**63))),
             rng.uniform(-4.0, 4.0, size=(m - m // 2, d))]
        )
        prof = acquisition_profile(ctx, X)
        values = acquisition_objective(ctx)(X)[0]
        assert_array_equal(values, prof["s_sq"])
        for i, x in enumerate(X):
            one = acquisition_profile(ctx, x[None, :])
            for key, column in prof.items():
                assert_array_equal(column[i : i + 1], one[key])
            assert values[i] == acquisition_objective(ctx)(x[None])[0][0]

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 4))
    def test_gradient_rows_do_not_depend_on_the_batch(self, seed, k):
        # d 1-4, n 1-30 and m 2-63 rows, half on the mixture and half off it
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 5))
        gp, mix = random_instance(rng, d=d, n=int(rng.integers(1, 31)))
        contexts = perturbed_contexts(rng, gp, mix, k)
        m = int(rng.integers(2, 64))
        X = np.concatenate(
            [sample(mix, m // 2, seed=int(rng.integers(2**63))),
             rng.uniform(-4.0, 4.0, size=(m - m // 2, d))]
        )
        single, multi = acquisition_objective(contexts[0]), multi_theta_objective(contexts)
        G = gradients(single, X)
        GM = gradients(multi, X)
        assert G.shape == GM.shape == (m, d)
        for i, x in enumerate(X):
            assert G[i].tobytes() == gradients(single, x[None])[0].tobytes()
            assert GM[i].tobytes() == gradients(multi, x[None])[0].tobytes()

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 9))
    def test_multi_theta_rows_are_the_scalar_form(self, seed, k):
        rng = np.random.default_rng(seed)
        gp, mix = random_instance(rng, n=int(rng.integers(1, 9)))
        contexts = [build_context(gp, mix)]
        for _ in range(k - 1):
            ker = RbfKernel(
                amplitude_sq=gp.kernel.amplitude_sq * float(rng.uniform(0.5, 2.0)),
                lengthscales=gp.kernel.lengthscales * rng.uniform(0.5, 2.0, size=mix.dim),
            )
            contexts.append(build_context(fit(gp.data, ker, gp.noise), mix))
        X = rng.uniform(-4.0, 4.0, size=(int(rng.integers(2, 41)), mix.dim))
        objective = multi_theta_objective(contexts)
        got = objective(X)[0]
        assert_array_equal(got, [objective(x[None])[0][0] for x in X])
        # the mean is over contexts, row by row, exactly as np.mean of one row's gains
        gains = [[at_point(ctx, x)["gain_simplified"] for ctx in contexts] for x in X]
        assert_array_equal(got, [np.mean(g) for g in gains])

    def test_nan_point_is_nan_in_every_form(self):
        # a NaN candidate must read NaN, not the sentinel, so the optimizer drops its start
        rng = np.random.default_rng(53)
        gp, mix = random_instance(rng)
        ctx = build_context(gp, mix)
        x = np.full(mix.dim, np.nan)
        prof = acquisition_profile(ctx, x[None, :])
        assert np.isnan(prof["gain_simplified"][0])
        assert_array_equal(prof["s_sq"], acquisition_objective(ctx)(x[None])[0])
        assert_array_equal(prof["gain_simplified"], multi_theta_objective([ctx])(x[None])[0])
        for key in ("s", "s_sq", "sigma2_sq", "innovation_coeff", "gain_simplified",
                    "gain_four_term"):
            assert np.isnan(prof[key]).all(), key


def stack_case(seed, T, d, k, n, special):
    """T contexts on shared random data, and m candidate rows on and off the mixture.

    With ``special``, the last context is the empty-data plateau of
    ``test_plateau_context_contributes_zero`` when n = 0, else a noiseless
    fit that needs jitter, of the data with its first point repeated.
    """
    rng = np.random.default_rng(seed)
    gp, mix = random_instance(rng, d=d, n=n, n_gmm=k)
    special_ctx = None
    if special and n == 0:
        special_ctx = build_context(
            fit(gp.data, RbfKernel(amplitude_sq=1.0, lengthscales=np.full(d, 2.0**64)),
                NoiseModel(variance=0.0)),
            mix,
        )
    elif special:
        # the first point twice: under a unit amplitude without noise the
        # second pivot of the Gram factor is exactly 0, so the fit jitters
        data = Dataset(X=np.concatenate([gp.data.X[:1], gp.data.X]),
                       y=np.concatenate([gp.data.y[:1], gp.data.y]))
        gp = fit(data, gp.kernel, gp.noise)
        jittered = fit(data, RbfKernel(amplitude_sq=1.0, lengthscales=gp.kernel.lengthscales),
                       NoiseModel(variance=0.0))
        assert jittered.jitter > 0.0
        special_ctx = build_context(jittered, mix)
    contexts = perturbed_contexts(rng, gp, mix, T)
    if special_ctx is not None:
        contexts[-1] = special_ctx
    X = np.concatenate([sample(mix, 6, seed=int(rng.integers(2**63))),
                        rng.uniform(-4.0, 4.0, size=(4, d)), gp.data.X[:2]])
    return contexts, X


class TestStackedProbe:
    """A probe of T contexts is T one-context probes, each row a one-row probe, bit for bit."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), T=st.integers(1, 4), d=st.integers(1, 3),
           k=st.integers(1, 3), n=st.integers(0, 8), special=st.booleans())
    def test_each_context_row_is_a_lone_call(self, seed, T, d, k, n, special):
        contexts, X = stack_case(seed, T, d, k, n, special)
        stack = _stack(contexts)
        p = _probe(stack, X)
        sigma2_sq = _sigma2_sq(stack, p)
        gains = _gain(stack, sigma2_sq)
        multi = multi_theta_objective(contexts)
        values, gradients_at = multi(X)
        grad = gradients_at(np.arange(len(X)))
        for t, ctx in enumerate(contexts):
            single = acquisition_objective(ctx)
            prof = acquisition_profile(ctx, X)
            s_sq, single_at = single(X)
            assert s_sq.tobytes() == _s_sq(p)[t].tobytes()
            for j, x in enumerate(X):
                one = _probe(_stack([ctx]), x[None])
                assert p.kv[t, j].tobytes() == one.kv[0, 0].tobytes()
                assert p.solved_kv[t, j].tobytes() == one.solved_kv[0, 0].tobytes()
                for field in ("v", "pred_var", "live"):
                    assert getattr(p, field)[t, j] == getattr(one, field)[0, 0], field
                assert p.u[:, t * k : (t + 1) * k, j].tobytes() == one.u[..., 0].tobytes()
                lone = acquisition_profile(ctx, x[None])
                for key, column in prof.items():
                    assert column[j : j + 1].tobytes() == lone[key].tobytes(), key
                assert sigma2_sq[t, j] == lone["sigma2_sq"][0]
                assert gains[t, j] == lone["gain_simplified"][0]
                assert s_sq[j] == single(x[None])[0][0]
                assert (single_at(np.array([j])).tobytes()
                        == gradients(single, x[None]).tobytes())
        for j, x in enumerate(X):
            lone = [at_point(ctx, x) for ctx in contexts]
            assert values[j] == np.mean([one["gain_simplified"] for one in lone])
            want = np.zeros(d)
            for ctx, one in zip(contexts, lone):
                if one["sigma2_sq"] > 0.0:
                    want += (gradients(acquisition_objective(ctx), x[None])[0]
                             / (2.0 * one["sigma2_sq"]))
            assert grad[j].tobytes() == (want / len(contexts)).tobytes()

    @pytest.mark.parametrize("T", [1, 3])
    def test_zero_rows(self, T):
        contexts, X = stack_case(7, T, 2, 2, 4, special=False)
        none = X[:0]
        p = _probe(_stack(contexts), none)
        assert p.kv.shape == p.solved_kv.shape == (T, 0, 4)
        assert p.v.shape == p.pred_var.shape == p.live.shape == (T, 0)
        assert p.u.shape == (2, 2 * T, 0)
        for objective in (acquisition_objective(contexts[0]), multi_theta_objective(contexts)):
            values, gradients_at = objective(none)
            assert values.shape == (0,)
            assert gradients_at(np.arange(0)).shape == (0, 2)
        prof = acquisition_profile(contexts[0], none)
        assert prof.pop("gain_terms").shape == (0, 4)
        assert all(column.shape == (0,) for column in prof.values())


class TestObjectiveRowReuse:
    """``gradients_at`` of an objective call is a fresh probe of the rows it picks, bit for bit."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 3), flat=st.booleans())
    def test_gradients_at_is_a_probe_of_the_picked_rows(self, seed, d, flat):
        rng = np.random.default_rng(seed)
        if flat:
            # no data, and one kernel flat across the mixture: one observation
            # anywhere pins q, so that context's gain is the sentinel on every row
            mix = single_comp(0.3, var=0.7, d=d)
            gp = fit(Dataset.empty(d), RbfKernel(amplitude_sq=1.3, lengthscales=np.full(d, 0.8)),
                     NoiseModel(variance=0.05))
            flat_ctx = build_context(
                fit(gp.data, RbfKernel(amplitude_sq=1.0, lengthscales=np.full(d, 2.0**64)),
                    NoiseModel(variance=0.0)),
                mix,
            )
            contexts = perturbed_contexts(rng, gp, mix, int(rng.integers(1, 4))) + [flat_ctx]
            X = np.concatenate([sample(mix, 6, seed=int(rng.integers(2**63))),
                                rng.uniform(-4.0, 4.0, size=(6, d))])
            assert_array_equal(acquisition_profile(flat_ctx, X)["gain_simplified"], GAIN_SENTINEL)
        else:
            # noiseless data: rows repeating a data point have nothing left to learn
            gp, mix = random_instance(rng, d=d, n=int(rng.integers(2, 9)), noise=0.0)
            contexts = perturbed_contexts(rng, gp, mix, int(rng.integers(1, 5)))
            X = np.concatenate([sample(mix, 5, seed=int(rng.integers(2**63))),
                                gp.data.X[:2], rng.uniform(-4.0, 4.0, size=(5, d))])
            X = X[rng.permutation(len(X))]
            assert not probe(contexts[0], X).live.all()
        idx = rng.choice(len(X), size=int(rng.integers(1, len(X) + 1)), replace=False)

        for objective in (acquisition_objective(contexts[0]), multi_theta_objective(contexts)):
            values, gradients_at = objective(X)
            want = [objective(x[None])[0][0] for x in X]
            assert values.tobytes() == np.array(want).tobytes()
            got = gradients_at(idx)
            assert got.tobytes() == gradients(objective, X[idx]).tobytes()


def _hex(values) -> list:
    return [float(v).hex() for v in np.ravel(values)]


# the prior at n = 0 as float.hex, recorded when the prior still had its
# own branch in fit, build_context, the probe and each posterior query
PRIOR_CASES = {
    "1d": dict(
        ker=RbfKernel(1.3, [0.7]),
        noise=0.01,
        mix=GaussianMixture(
            weights=np.array([0.3, 0.7]),
            means=np.array([[-0.5], [1.0]]),
            covs=np.array([[[0.4]], [[0.2]]]),
        ),
        X=np.array([[-1.2], [0.3], [2.0]]),
        sigma1_sq="0x1.836f3268e6262p-1",
        acq=["0x1.2011a4364589fp-4", "0x1.1652921008c62p-1", "0x1.662266210e69cp-3"],
        grad=["0x1.14e701b89fc55p-3", "0x1.941589827fa5fp-2", "-0x1.9db6428828c70p-2"],
        cov01="0x1.0ada0b739c597p-2",
        amplitude_sq="0x1.4cccccccccccdp+0",
    ),
    "2d": dict(
        ker=RbfKernel(2.0, [0.5, 1.5]),
        noise=1e-3,
        mix=GaussianMixture(
            weights=np.array([1.0]),
            means=np.array([[0.2, -0.1]]),
            covs=np.array([[[0.5, 0.1], [0.1, 0.3]]]),
        ),
        X=np.array([[0.0, 0.0], [1.0, -1.0], [-0.5, 0.7]]),
        sigma1_sq="0x1.f6dd2395c380ap-1",
        acq=["0x1.98b83d0a4d509p-1", "0x1.08756d8bad269p-2", "0x1.58405ceeaef77p-2"],
        grad=[
            "0x1.51ef924a4e3a1p-2", "-0x1.b6673a528eff2p-4", "-0x1.c41766e355c43p-2",
            "0x1.21932c26873fcp-2", "0x1.01b5301df11a8p-1", "-0x1.4ea2ad4944899p-2",
        ],
        cov01="0x1.0dec687e1adf1p-1",
        amplitude_sq="0x1.0000000000000p+1",
    ),
}


class TestOnePosteriorFormula:
    """The probe and the public posterior queries read the same bits; n = 0 is the prior."""

    def test_queries_equal_the_probe_bit_for_bit(self):
        rng = np.random.default_rng(120)
        for _ in range(200):
            gp, mix = random_instance(rng)
            ctx = build_context(gp, mix)
            X = sample(mix, 7, seed=int(rng.integers(2**63)))
            p = probe(ctx, X)
            assert_array_equal(posterior_var_many(gp, X) + gp.noise.variance, p.pred_var)
            means = posterior_mean_many(gp, X)
            for i, x in enumerate(X):
                assert means[i] == at_point(ctx, x)["pred_mean"]
                assert posterior_mean(gp, x) == means[i]

    @pytest.mark.parametrize("name", sorted(PRIOR_CASES))
    def test_prior_outputs_are_unchanged(self, name):
        case = PRIOR_CASES[name]
        ker, X = case["ker"], case["X"]
        gp = fit(Dataset.empty(ker.dim), ker, NoiseModel(case["noise"]))
        assert gp.gram_factor.shape == (0, 0)
        assert gp.weights.shape == (0,)
        assert gp.jitter == 0.0
        ctx = build_context(gp, case["mix"])
        assert _hex([ctx.mu1, ctx.sigma1_sq]) == ["0x0.0p+0", case["sigma1_sq"]]
        assert ctx.kmean_train.shape == ctx.solved_kmean.shape == (0,)
        assert _hex(acquisition_objective(ctx)(X)[0]) == case["acq"]
        assert _hex(gradients(acquisition_objective(ctx), X)) == case["grad"]
        assert _hex([posterior_mean(gp, x) for x in X]) == ["0x0.0p+0"] * 3
        assert _hex(posterior_mean_many(gp, X)) == ["0x0.0p+0"] * 3
        covs = [posterior_cov(gp, X[0], X[1])] + [posterior_cov(gp, x, x) for x in X]
        assert _hex(covs) == [case["cov01"]] + [case["amplitude_sq"]] * 3
        assert _hex(posterior_var_many(gp, X)) == [case["amplitude_sq"]] * 3
