"""Estimate moments, kernel integrals, variance reduction, and information gain."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.linalg import cho_solve

from gpexpect.acquisition import (
    GAIN_SENTINEL,
    QEstimate,
    acquisition_gradient,
    acquisition_profile,
    acquisition_value,
    build_context,
    double_kernel_mean,
    hypothetical_update,
    info_gain_four_term,
    info_gain_simplified,
    kernel_mean,
    kernel_mean_component,
    kernel_mean_gradient,
    kl_gaussian,
    multi_theta_acquisition,
    multi_theta_gradient,
    variance_reduction_s,
)
from gpexpect.errors import DegenerateEstimateError
from gpexpect.gp import Dataset, NoiseModel, fit
from gpexpect.kernels import RbfKernel, eval_kernel, kernel_cross, kernel_matrix, kernel_vector
from gpexpect.mixtures import GaussianMixture, pdf, pdf_many, sample
from gpexpect.oracles import quad_integral_1d, quad_integral_2d
from gpexpect.validation import random_instance

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


def point_mass_1d(w=0.0):
    # covariance below half an ulp of the unit lengthscale: Lambda + Sigma
    # rounds to Lambda exactly, so the mixture behaves as a point mass
    return single_comp(w, var=5e-17)


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
            val = kernel_mean_component(x, ker, w, 1e-12 * np.eye(2))
            assert_allclose(val, eval_kernel(x, w, ker), rtol=1e-6)

    def test_unit_case_at_center(self):
        val = kernel_mean_component(
            np.array([0.0]), UNIT_KERNEL, np.array([0.0]), np.array([[1.0]])
        )
        assert_allclose(val, 1.0 / np.sqrt(2.0), atol=1e-6)
        assert_allclose(val, 0.707107, atol=1e-6)

    def test_unit_case_offset_one_with_quadrature(self):
        x = np.array([1.0])
        val = kernel_mean_component(x, UNIT_KERNEL, np.array([0.0]), np.array([[1.0]]))
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
            val = kernel_mean_component(x, ker, w, np.array([[var]]))
            assert 0.0 < val < ker.amplitude_sq
        at_center = kernel_mean_component(w, ker, w, np.array([[1.0]]))
        assert at_center < eval_kernel(w, w, ker)

    def test_rejects_non_spd_cov(self):
        with pytest.raises(ValueError):
            kernel_mean_component(
                np.array([0.0]), UNIT_KERNEL, np.array([0.0]), np.array([[-1.0]])
            )


class TestKernelMean:
    def test_single_component_reduction(self):
        x = np.array([0.3])
        mix = single_comp(0.5, 0.8)
        assert_allclose(
            kernel_mean(x, UNIT_KERNEL, mix),
            kernel_mean_component(x, UNIT_KERNEL, mix.means[0], mix.covs[0]),
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


class TestVarianceReductionS:
    def test_prior_point_mass_case(self):
        gp = fit(Dataset.empty(1), UNIT_KERNEL, NoiseModel(variance=0.0))
        ctx = build_context(gp, single_comp(0.0, 1.0))
        s = variance_reduction_s(ctx, np.array([0.0]))
        assert_allclose(s, 1.0 / np.sqrt(2.0), rtol=1e-12)
        assert_allclose(s, 0.707107, atol=1e-6)

    def test_far_probe_vanishes(self):
        rng = np.random.default_rng(12)
        gp = fitted_gp(rng, n=4)
        ctx = build_context(gp, single_comp())
        assert abs(variance_reduction_s(ctx, np.array([100.0]))) < 1e-10

    def test_updated_variance_against_quadrature(self):
        rng = np.random.default_rng(13)
        gp = fitted_gp(rng, n=3, noise=0.05)
        mix = two_comp_1d()
        ctx = build_context(gp, mix)
        xt = np.array([0.4])
        s = variance_reduction_s(ctx, xt)

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
                s = variance_reduction_s(ctx, xt)
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
        assert abs(variance_reduction_s(ctx, xt) - mc) < 4 * se


class TestAcquisitionValueGradient:
    def test_symmetric_midpoint_gradient_zero(self):
        gp = fit(
            Dataset(X=np.array([[-1.0], [1.0]]), y=np.array([0.7, 0.7])),
            UNIT_KERNEL,
            NoiseModel(variance=0.1),
        )
        ctx = build_context(gp, single_comp())
        grad = acquisition_gradient(ctx, np.array([0.0]))
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
            fd = np.empty(d)
            for j in range(d):
                e = np.zeros(d)
                e[j] = h
                fd[j] = (
                    acquisition_value(ctx, xt + e) - acquisition_value(ctx, xt - e)
                ) / (2 * h)
            if np.linalg.norm(fd) < 1e-3:
                continue
            grad = acquisition_gradient(ctx, xt)
            assert np.linalg.norm(grad - fd) <= 1e-5 * np.linalg.norm(fd)
            checked += 1

    def test_value_nonnegative_and_bounded(self):
        rng = np.random.default_rng(18)
        gp, mix = random_instance(rng, n=5)
        ctx = build_context(gp, mix)
        probes = sample(mix, 1000, seed=19)
        for xt in probes:
            val = acquisition_value(ctx, xt)
            assert 0.0 <= val <= ctx.sigma1_sq + 1e-12

    def test_value_is_s_squared(self):
        rng = np.random.default_rng(20)
        gp, mix = random_instance(rng, n=4)
        ctx = build_context(gp, mix)
        xt = sample(mix, 1, seed=21)[0]
        s = variance_reduction_s(ctx, xt)
        assert_allclose(acquisition_value(ctx, xt), s * s, rtol=1e-12)


class TestHypotheticalUpdate:
    def test_uninformative_point(self):
        rng = np.random.default_rng(22)
        gp = fitted_gp(rng, n=3)
        ctx = build_context(gp, single_comp())
        upd = hypothetical_update(ctx, np.array([200.0]))
        assert_allclose(upd.sigma2_sq, ctx.sigma1_sq, rtol=1e-12)
        assert abs(upd.innovation_coeff) < 1e-12

    def test_y_independence_via_refit(self):
        rng = np.random.default_rng(23)
        gp = fitted_gp(rng, n=4, noise=0.05)
        mix = two_comp_1d()
        ctx = build_context(gp, mix)
        xt = np.array([0.6])
        upd = hypothetical_update(ctx, xt)
        for yt in (-2.0, -0.5, 0.0, 1.0, 3.0):
            refit = fit(gp.data.append(xt, yt), gp.kernel, gp.noise)
            new_ctx = build_context(refit, mix)
            assert_allclose(new_ctx.sigma1_sq, upd.sigma2_sq, rtol=1e-8, atol=1e-10)

    def test_zero_innovation_keeps_mean(self):
        rng = np.random.default_rng(24)
        gp = fitted_gp(rng, n=4)
        ctx = build_context(gp, single_comp())
        xt = np.array([0.2])
        upd = hypothetical_update(ctx, xt)
        mu2 = ctx.mu1 + upd.innovation_coeff * (upd.pred_mean - upd.pred_mean)
        assert mu2 == ctx.mu1

    def test_mu2_affine_matches_refit(self):
        rng = np.random.default_rng(25)
        gp = fitted_gp(rng, n=3, noise=0.05)
        mix = two_comp_1d()
        ctx = build_context(gp, mix)
        xt = np.array([-0.4])
        upd = hypothetical_update(ctx, xt)
        for yt in (-1.0, 0.5, 2.0):
            refit = fit(gp.data.append(xt, yt), gp.kernel, gp.noise)
            new_ctx = build_context(refit, mix)
            mu2 = ctx.mu1 + upd.innovation_coeff * (yt - upd.pred_mean)
            assert_allclose(new_ctx.mu1, mu2, rtol=1e-8, atol=1e-10)


class TestInfoGainFourTerm:
    def test_last_three_terms_cancel(self):
        rng = np.random.default_rng(26)
        for _ in range(20):
            gp, mix = random_instance(rng)
            ctx = build_context(gp, mix)
            xt = sample(mix, 1, seed=int(rng.integers(2**31)))[0]
            g, terms = info_gain_four_term(ctx, xt)
            assert_allclose(g, terms[0], rtol=0, atol=1e-10 * max(1.0, abs(terms[0])))
            assert abs(terms[1] + terms[2] + terms[3]) <= 1e-10 * max(1.0, abs(terms[0]))

    def test_uninformative_point_terms(self):
        rng = np.random.default_rng(27)
        gp = fitted_gp(rng, n=3)
        ctx = build_context(gp, single_comp())
        g, terms = info_gain_four_term(ctx, np.array([150.0]))
        assert abs(g) < 1e-12
        assert_allclose(terms, [0.0, 0.5, -0.5, 0.0], atol=1e-12)

    def test_monte_carlo_over_hypothetical_observations(self):
        from gpexpect.oracles import mc_info_gain

        rng = np.random.default_rng(28)
        gp = fitted_gp(rng, n=4, noise=0.05)
        mix = two_comp_1d()
        ctx = build_context(gp, mix)
        xt = np.array([0.5])
        g, _ = info_gain_four_term(ctx, xt)
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
            info_gain_four_term(ctx, np.array([1.0]))

    def test_degenerate_profile_raises(self):
        # as the scalar forms do, and before any term divides by sigma1^2 = 0
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
        assert abs(info_gain_simplified(ctx, np.array([150.0]))) < 1e-12

    def test_equals_four_term_sum(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            gp, mix = random_instance(rng)
            ctx = build_context(gp, mix)
            xt = sample(mix, 1, seed=int(rng.integers(2**31)))[0]
            g, _ = info_gain_four_term(ctx, xt)
            assert_allclose(info_gain_simplified(ctx, xt), g, rtol=0,
                            atol=1e-10 * max(1.0, abs(g)))

    def test_monotone_in_s_squared(self):
        rng = np.random.default_rng(32)
        gp, mix = random_instance(rng, n=4)
        ctx = build_context(gp, mix)
        probes = sample(mix, 40, seed=33)
        vals = np.array([acquisition_value(ctx, x) for x in probes])
        gains = np.array([info_gain_simplified(ctx, x) for x in probes])
        order = np.argsort(vals)
        distinct = np.diff(vals[order]) > 1e-15
        assert np.all(np.diff(gains[order])[distinct] > 0)

    def test_point_mass_probe_hits_sentinel(self):
        # observing the collapsed mixture location noiselessly pins q, so
        # sigma2 underflows to zero and the gain saturates
        gp = fit(Dataset.empty(1), UNIT_KERNEL, NoiseModel(variance=0.0))
        ctx = build_context(gp, point_mass_1d(0.0))
        xt = np.array([0.0])
        assert hypothetical_update(ctx, xt).sigma2_sq == 0.0
        assert info_gain_simplified(ctx, xt) == GAIN_SENTINEL
        g, terms = info_gain_four_term(ctx, xt)
        assert terms[0] == GAIN_SENTINEL


class TestKlGaussian:
    def test_identical_is_zero(self):
        assert kl_gaussian(0.3, 1.2, 0.3, 1.2) == 0.0

    def test_unit_mean_shift(self):
        assert_allclose(kl_gaussian(1.0, 1.0, 0.0, 1.0), 0.5, rtol=1e-12)

    def test_quadrature_oracle(self):
        mu_a, var_a, mu_b, var_b = 0.4, 0.7, -0.3, 1.6

        def integrand(x):
            log_pa = -0.5 * (x - mu_a) ** 2 / var_a - 0.5 * np.log(2 * np.pi * var_a)
            log_pb = -0.5 * (x - mu_b) ** 2 / var_b - 0.5 * np.log(2 * np.pi * var_b)
            return np.exp(log_pa) * (log_pa - log_pb)

        quad, _ = quad_integral_1d(integrand, -14.0, 14.0, tol=1e-10)
        assert_allclose(kl_gaussian(mu_a, var_a, mu_b, var_b), quad, atol=1e-6)

    def test_rejects_nonpositive_variance(self):
        with pytest.raises(ValueError):
            kl_gaussian(0.0, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            kl_gaussian(0.0, 1.0, 0.0, -2.0)


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
            multi_theta_acquisition([ctx], xt), info_gain_simplified(ctx, xt), rtol=1e-14
        )

    def test_duplicated_context_idempotent(self):
        rng = np.random.default_rng(35)
        ctx = self.make_contexts(rng, count=1)[0]
        xt = np.array([-0.3])
        assert_allclose(
            multi_theta_acquisition([ctx, ctx], xt),
            multi_theta_acquisition([ctx], xt),
            rtol=1e-14,
        )

    def test_grid_argmax_matches_variance_product_argmin(self):
        rng = np.random.default_rng(36)
        contexts = self.make_contexts(rng, count=3)
        grid = np.linspace(-3.0, 3.0, 50).reshape(-1, 1)
        mean_gain = np.array(
            [multi_theta_acquisition(contexts, x) for x in grid]
        )
        log_product = np.zeros(len(grid))
        for ctx in contexts:
            for i, x in enumerate(grid):
                log_product[i] += np.log(max(hypothetical_update(ctx, x).sigma2_sq,
                                             1e-300))
        assert int(np.argmax(mean_gain)) == int(np.argmin(log_product))

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            multi_theta_acquisition([], np.array([0.0]))

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
        assert multi_theta_acquisition([ctx, twin], xt) == info_gain_simplified(ctx, xt)
        assert_array_equal(
            multi_theta_gradient([ctx, twin], xt), multi_theta_gradient([ctx], xt)
        )

    def test_different_data_or_mixture_rejected(self):
        rng = np.random.default_rng(39)
        ctx = self.make_contexts(rng, count=1)[0]
        gp = ctx.gp
        moved = Dataset(X=gp.data.X + 0.1, y=gp.data.y)
        other_data = build_context(fit(moved, gp.kernel, gp.noise), ctx.mix)
        other_mix = build_context(gp, single_comp())
        xt = np.array([0.2])
        for other in (other_data, other_mix):
            with pytest.raises(ValueError, match="same data and mixture"):
                multi_theta_acquisition([ctx, other], xt)
            with pytest.raises(ValueError, match="same data and mixture"):
                multi_theta_gradient([ctx, other], xt)


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


class TestQEstimate:
    def test_clamps_tiny_negative_variance(self):
        est = QEstimate(mean=0.1, variance=-5e-13)
        assert est.variance == 0.0

    def test_rejects_real_negative_variance(self):
        with pytest.raises(ValueError):
            QEstimate(mean=0.0, variance=-1e-6)


class TestScalarFormsMatchProfile:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), off_mixture=st.booleans())
    def test_scalar_forms_agree_with_profile_row(self, seed, off_mixture):
        rng = np.random.default_rng(seed)
        gp, mix = random_instance(rng)
        ctx = build_context(gp, mix)
        if off_mixture:
            x = rng.uniform(-4.0, 4.0, size=mix.dim)
        else:
            x = sample(mix, 1, seed=int(rng.integers(2**63)))[0]
        prof = acquisition_profile(ctx, x[None, :])
        # S^2 <= sigma1^2 and v cancels near the data, so rounding is
        # bounded relative to sigma1^2 rather than to S^2 itself
        atol = 1e-10 * ctx.sigma1_sq
        assert_allclose(acquisition_value(ctx, x), prof["s_sq"][0], rtol=1e-10, atol=atol)
        sigma2_sq = hypothetical_update(ctx, x).sigma2_sq
        assert_allclose(sigma2_sq, prof["sigma2_sq"][0], rtol=1e-10, atol=atol)
        assert_allclose(
            info_gain_simplified(ctx, x), prof["gain_simplified"][0], rtol=1e-10, atol=1e-10
        )
        expected = acquisition_gradient(ctx, x) / (2.0 * sigma2_sq)
        assert_array_equal(multi_theta_gradient([ctx], x), expected)

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
            s = variance_reduction_s(ctx, x)
            assert_array_equal(prof["s_sq"], [acquisition_value(ctx, x)])
            assert_array_equal(prof["s_sq"], [s * s])
            assert_array_equal(prof["sigma2_sq"], [hypothetical_update(ctx, x).sigma2_sq])
            assert_array_equal(prof["gain_simplified"], [info_gain_simplified(ctx, x)])
            assert_array_equal(prof["gain_simplified"], [multi_theta_acquisition([ctx], x)])
            assert_array_equal(prof["gain_four_term"], [info_gain_four_term(ctx, x)[0]])
        # several rows at once: the kernel mean's multi-column solve may
        # round differently, so rows agree to rounding only
        prof = acquisition_profile(ctx, X)
        atol = 1e-10 * ctx.sigma1_sq
        assert_allclose(
            prof["s_sq"], [acquisition_value(ctx, x) for x in X], rtol=1e-10, atol=atol
        )

    def test_nan_point_is_nan_in_every_form(self):
        # a NaN candidate must read NaN, not the sentinel, so the optimizer drops its start
        rng = np.random.default_rng(53)
        gp, mix = random_instance(rng)
        ctx = build_context(gp, mix)
        x = np.full(mix.dim, np.nan)
        prof = acquisition_profile(ctx, x[None, :])
        assert np.isnan(prof["gain_simplified"][0])
        assert_array_equal(prof["s_sq"], [acquisition_value(ctx, x)])
        assert_array_equal(prof["sigma2_sq"], [hypothetical_update(ctx, x).sigma2_sq])
        assert_array_equal(prof["gain_simplified"], [info_gain_simplified(ctx, x)])
        assert_array_equal(prof["gain_simplified"], [multi_theta_acquisition([ctx], x)])
        assert_array_equal(prof["gain_four_term"], [info_gain_four_term(ctx, x)[0]])
        assert all(np.isnan(v) for v in prof.values())
