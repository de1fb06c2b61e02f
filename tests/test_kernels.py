"""Kernel evaluation, Gram matrices, and gradients."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from gpexpect.kernels import (
    RbfKernel,
    eval_kernel,
    eval_kernel_scaled,
    kernel_cross,
    kernel_gradient,
    kernel_matrices,
    kernel_matrix,
    kernel_vector,
)


def random_kernel(rng, d):
    return RbfKernel(
        amplitude_sq=float(rng.uniform(0.5, 3.0)),
        lengthscales=rng.uniform(0.3, 2.0, size=d),
    )


class TestEvalKernel:
    def test_zero_distance_returns_amplitude(self):
        ker = RbfKernel(amplitude_sq=2.5, lengthscales=np.array([1.0, 2.0]))
        a = np.array([0.3, -1.2])
        assert eval_kernel(a, a, ker) == pytest.approx(2.5)

    def test_unit_case_1d(self):
        ker = RbfKernel(amplitude_sq=1.0, lengthscales=np.array([1.0]))
        assert_allclose(
            eval_kernel(np.array([0.0]), np.array([1.0]), ker),
            np.exp(-0.5),
            rtol=1e-12,
        )

    def test_anisotropic_2d(self):
        ker = RbfKernel(amplitude_sq=1.0, lengthscales=np.array([1.0, 4.0]))
        val = eval_kernel(np.array([0.0, 0.0]), np.array([1.0, 2.0]), ker)
        # (1-0)^2/1 + (2-0)^2/4 = 2, so k = exp(-1)
        assert_allclose(val, np.exp(-1.0), rtol=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            d = int(rng.integers(1, 4))
            ker = random_kernel(rng, d)
            a, b = rng.normal(size=(2, d))
            assert eval_kernel(a, b, ker) == eval_kernel(b, a, ker)

    def test_dimension_mismatch_rejected(self):
        ker = RbfKernel(amplitude_sq=1.0, lengthscales=np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            eval_kernel(np.array([0.0]), np.array([0.0, 0.0]), ker)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            RbfKernel(amplitude_sq=-1.0, lengthscales=np.array([1.0]))
        with pytest.raises(ValueError):
            RbfKernel(amplitude_sq=1.0, lengthscales=np.array([0.0]))


class TestEvalKernelScaled:
    def test_zero_distance(self):
        a = np.array([1.0, 2.0])
        scale = np.array([[2.0, 0.5], [0.5, 1.0]])
        assert eval_kernel_scaled(a, a, 3.0, scale) == pytest.approx(3.0)

    def test_direct_substitution_1d(self):
        val = eval_kernel_scaled(np.array([0.0]), np.array([2.0]), 1.0, np.array([[2.0]]))
        assert_allclose(val, np.exp(-1.0), rtol=1e-12)

    def test_reduces_to_eval_kernel(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            d = int(rng.integers(1, 4))
            ker = random_kernel(rng, d)
            a, b = rng.normal(size=(2, d))
            plain = eval_kernel(a, b, ker)
            scaled = eval_kernel_scaled(a, b, ker.amplitude_sq, np.diag(ker.lengthscales))
            assert_allclose(scaled, plain, rtol=1e-14)

    def test_non_spd_scale_rejected(self):
        scale = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
        with pytest.raises(ValueError):
            eval_kernel_scaled(np.zeros(2), np.ones(2), 1.0, scale)


class TestKernelMatrix:
    def test_stacked_matrices_do_not_depend_on_the_stack(self):
        """Each slice of a stack is the Gram matrix of its kernel alone, bit for bit."""
        rng = np.random.default_rng(8)
        for _ in range(200):
            d = int(rng.integers(1, 5))
            X = rng.normal(size=(int(rng.integers(1, 25)), d))
            amplitude_sq = np.exp(rng.uniform(-4, 4, size=int(rng.integers(1, 7))))
            lengthscales = np.exp(rng.uniform(-4, 4, size=(amplitude_sq.size, d)))
            stack = kernel_matrices(X, amplitude_sq, lengthscales)
            for r in range(amplitude_sq.size):
                alone = kernel_matrices(X, amplitude_sq[r:r + 1], lengthscales[r:r + 1])
                assert_array_equal(stack[r], alone[0])

    def test_single_point(self):
        ker = RbfKernel(amplitude_sq=1.7, lengthscales=np.array([1.0]))
        assert_allclose(kernel_matrix(np.array([[0.5]]), ker), [[1.7]])

    def test_duplicate_points_rank_one(self):
        ker = RbfKernel(amplitude_sq=2.0, lengthscales=np.array([1.0]))
        X = np.array([[0.3], [0.3]])
        assert_allclose(kernel_matrix(X, ker), 2.0 * np.ones((2, 2)))

    def test_matches_elementwise_evaluation(self):
        rng = np.random.default_rng(3)
        ker = random_kernel(rng, 2)
        X = rng.normal(size=(5, 2))
        K = kernel_matrix(X, ker)
        for i in range(5):
            for j in range(5):
                assert_allclose(K[i, j], eval_kernel(X[i], X[j], ker), rtol=1e-14)

    def test_numerically_psd(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            d = int(rng.integers(1, 4))
            ker = random_kernel(rng, d)
            X = rng.normal(size=(int(rng.integers(2, 12)), d))
            eigs = np.linalg.eigvalsh(kernel_matrix(X, ker))
            assert eigs.min() >= -1e-8 * ker.amplitude_sq


class TestKernelVector:
    def test_entry_at_own_point(self):
        rng = np.random.default_rng(5)
        ker = random_kernel(rng, 2)
        X = rng.normal(size=(4, 2))
        kv = kernel_vector(X[2], X, ker)
        assert kv[2] == pytest.approx(ker.amplitude_sq)

    def test_empty_dataset(self):
        ker = RbfKernel(amplitude_sq=1.0, lengthscales=np.array([1.0]))
        kv = kernel_vector(np.array([0.0]), np.zeros((0, 1)), ker)
        assert kv.shape == (0,)

    def test_matches_scalar_calls(self):
        rng = np.random.default_rng(9)
        ker = random_kernel(rng, 3)
        X = rng.normal(size=(3, 3))
        x = rng.normal(size=3)
        expected = [eval_kernel(x, xi, ker) for xi in X]
        assert_allclose(kernel_vector(x, X, ker), expected, rtol=1e-14)

    def test_rows_of_kernel_cross(self):
        rng = np.random.default_rng(10)
        for d in (1, 2, 5):
            ker = random_kernel(rng, d)
            A = rng.normal(size=(7, d))
            X = rng.normal(size=(9, d))
            C = kernel_cross(A, X, ker)
            for a, row in zip(A, C):
                assert_array_equal(kernel_vector(a, X, ker), row)


class TestKernelGradient:
    def test_zero_at_coincident_points(self):
        ker = RbfKernel(amplitude_sq=1.0, lengthscales=np.array([1.0, 2.0]))
        a = np.array([0.4, -0.1])
        assert_allclose(kernel_gradient(a, a, ker), np.zeros(2))

    def test_direct_substitution_1d(self):
        ker = RbfKernel(amplitude_sq=1.0, lengthscales=np.array([1.0]))
        g = kernel_gradient(np.array([1.0]), np.array([0.0]), ker)
        assert_allclose(g, [-np.exp(-0.5)], rtol=1e-12)

    def test_antisymmetric_under_swap(self):
        rng = np.random.default_rng(13)
        ker = random_kernel(rng, 2)
        a, b = rng.normal(size=(2, 2))
        assert_allclose(kernel_gradient(a, b, ker), -kernel_gradient(b, a, ker), rtol=1e-14)

    def test_matches_central_differences(self):
        rng = np.random.default_rng(42)
        h = 1e-5
        for _ in range(100):
            d = int(rng.integers(1, 4))
            ker = random_kernel(rng, d)
            a, b = rng.normal(size=(2, d))
            grad = kernel_gradient(a, b, ker)
            fd = np.zeros(d)
            for j in range(d):
                step = np.zeros(d)
                step[j] = h
                fd[j] = (eval_kernel(a + step, b, ker) - eval_kernel(a - step, b, ker)) / (2 * h)
            scale = max(np.linalg.norm(fd), 1e-12)
            assert np.linalg.norm(grad - fd) / scale < 1e-6
