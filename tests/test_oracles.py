"""Reference integrators: adaptive 1-d quadrature, tensor 2-d quadrature, MC."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from gpexpect.gp import Dataset, NoiseModel, fit
from gpexpect.kernels import RbfKernel, eval_kernel
from gpexpect.mixtures import GaussianMixture
from gpexpect.oracles import (
    kl_gaussian,
    mc_expectation,
    mc_info_gain,
    mixture_box,
    quad_integral_1d,
    quad_integral_2d,
)


def std_normal(d=1):
    return GaussianMixture(
        weights=np.array([1.0]), means=np.zeros((1, d)), covs=np.eye(d)[None, :, :]
    )


class TestQuad1d:
    def test_constant(self):
        value, err = quad_integral_1d(lambda x: 1.0, 0.0, 1.0)
        assert_allclose(value, 1.0, atol=1e-12)
        assert err < 1e-12

    def test_cubic_exact_for_simpson(self):
        value, _ = quad_integral_1d(lambda x: x**3, 0.0, 2.0)
        assert_allclose(value, 4.0, atol=1e-12)

    def test_standard_normal_mass(self):
        value, _ = quad_integral_1d(
            lambda x: np.exp(-0.5 * x * x) / np.sqrt(2 * np.pi), -10.0, 10.0, tol=1e-12
        )
        assert_allclose(value, 1.0, atol=1e-9)

    def test_kernel_times_gaussian_closed_form(self):
        # unit-lengthscale RBF against a standard normal: 1/sqrt(2)
        ker = RbfKernel(amplitude_sq=1.0, lengthscales=np.array([1.0]))
        zero = np.array([0.0])

        def integrand(x):
            point = np.array([x])
            return eval_kernel(zero, point, ker) * np.exp(-0.5 * x * x) / np.sqrt(2 * np.pi)

        value, _ = quad_integral_1d(integrand, -10.0, 10.0, tol=1e-12)
        assert_allclose(value, 1.0 / np.sqrt(2.0), atol=1e-8)

    def test_narrow_spike_resolved(self):
        value, _ = quad_integral_1d(
            lambda x: np.exp(-0.5 * (x / 1e-2) ** 2) / (1e-2 * np.sqrt(2 * np.pi)),
            -1.0,
            1.0,
            tol=1e-10,
        )
        assert_allclose(value, 1.0, atol=1e-7)

    def test_depth_cap_warns(self):
        # only the interval holding the jump keeps bisecting, down to the cap
        with pytest.warns(RuntimeWarning, match="on 1 interval"):
            value, _ = quad_integral_1d(lambda x: float(x > 2**-0.5), 0.0, 1.0, tol=1e-300)
        assert_allclose(value, 1.0 - 2**-0.5, atol=1e-12)


class TestQuad2d:
    def test_constant_over_unit_square(self):
        value = quad_integral_2d(
            lambda X: np.ones(len(X)), np.zeros(2), np.ones(2), per_axis=8
        )
        assert_allclose(value, 1.0, atol=1e-12)

    def test_separable_product(self):
        def fn(X):
            return np.sin(X[:, 0]) ** 2 * np.exp(-X[:, 1])

        value = quad_integral_2d(fn, np.array([0.0, 0.0]), np.array([np.pi, 1.0]))
        expected = (np.pi / 2) * (1 - np.exp(-1.0))
        assert_allclose(value, expected, rtol=1e-10)

    def test_bivariate_normal_mass(self):
        def fn(X):
            return np.exp(-0.5 * np.sum(X**2, axis=1)) / (2 * np.pi)

        value = quad_integral_2d(fn, np.full(2, -8.0), np.full(2, 8.0), per_axis=120)
        assert_allclose(value, 1.0, atol=1e-9)

    def test_rejects_oversized_grid(self):
        with pytest.raises(ValueError):
            quad_integral_2d(lambda X: X[:, 0], np.zeros(2), np.ones(2), per_axis=5000)


class TestMixtureBox:
    def test_covers_spread_means(self):
        mix = GaussianMixture(
            weights=np.array([0.5, 0.5]),
            means=np.array([[-4.0], [4.0]]),
            covs=np.ones((2, 1, 1)),
        )
        lower, upper = mixture_box(mix)
        assert lower[0] <= -12.0 + 1e-12
        assert upper[0] >= 12.0 - 1e-12


class TestMcExpectation:
    def test_constant_integrand(self):
        value, se = mc_expectation(lambda X: np.full(len(X), 2.5), std_normal(),
                                   100, seed=0)
        assert value == 2.5
        assert se == 0.0

    def test_second_moment_standard_normal(self):
        value, se = mc_expectation(lambda X: X[:, 0] ** 2, std_normal(), 1_000_000, seed=0)
        assert abs(value - 1.0) < 4 * se
        assert se < 0.01

    def test_se_scales_inverse_sqrt(self):
        _, se_small = mc_expectation(lambda X: X[:, 0] ** 2, std_normal(), 50_000, seed=1)
        _, se_big = mc_expectation(lambda X: X[:, 0] ** 2, std_normal(), 200_000, seed=1)
        ratio = se_small / se_big
        assert abs(ratio - 2.0) < 0.4

    def test_deterministic_given_seed(self):
        a = mc_expectation(lambda X: np.sin(X[:, 0]), std_normal(), 1000, seed=5)
        b = mc_expectation(lambda X: np.sin(X[:, 0]), std_normal(), 1000, seed=5)
        assert a == b

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            mc_expectation(lambda X: X[:, 0], std_normal(), 1, seed=0)


class TestMcInfoGain:
    def make_gp(self):
        rng = np.random.default_rng(10)
        ker = RbfKernel(amplitude_sq=1.0, lengthscales=np.array([1.0]))
        X = rng.normal(size=(4, 1))
        y = rng.normal(size=4)
        return fit(Dataset(X=X, y=y), ker, NoiseModel(variance=0.05))

    def test_uninformative_point_gains_nothing(self):
        gp = self.make_gp()
        mean, se = mc_info_gain(gp, std_normal(), np.array([25.0]), 2000, seed=0)
        assert mean < 1e-12
        assert se < 1e-12

    def test_nonnegative_and_finite(self):
        gp = self.make_gp()
        mean, se = mc_info_gain(gp, std_normal(), np.array([0.4]), 5000, seed=1)
        assert np.isfinite(mean) and np.isfinite(se)
        assert mean >= 0.0

    def test_standard_error_scaling(self):
        gp = self.make_gp()
        _, se_small = mc_info_gain(gp, std_normal(), np.array([0.4]), 20_000, seed=2)
        _, se_large = mc_info_gain(gp, std_normal(), np.array([0.4]), 40_000, seed=3)
        ratio = se_small / se_large
        assert abs(ratio - np.sqrt(2.0)) < 0.2 * np.sqrt(2.0)


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

    def test_elementwise_on_arrays(self):
        mu_a, var_a = np.array([0.4, 1.0, 0.3]), np.array([0.7, 1.0, 1.2])
        got = kl_gaussian(mu_a, var_a, 0.3, 1.2)
        assert got.shape == (3,)
        assert_array_equal(got, [kl_gaussian(m, v, 0.3, 1.2) for m, v in zip(mu_a, var_a)])
        assert got[2] == 0.0
        with pytest.raises(ValueError):
            kl_gaussian(0.0, np.array([1.0, 0.0]), 0.0, 1.0)
