"""GP fitting, posterior queries, marginal likelihood, hyperparameter search."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import gpexpect.gp
from gpexpect.errors import InsufficientDataError, NumericalConditioningError
from gpexpect.gp import (
    Dataset,
    HyperSearchConfig,
    NoiseModel,
    fit,
    log_marginal_likelihood,
    posterior_cov,
    posterior_mean,
    posterior_mean_many,
    posterior_var_many,
    select_hyperparameters,
)
from gpexpect.kernels import RbfKernel, kernel_matrix, kernel_vector


def make_kernel(d=1, s2=1.0, ls=1.0):
    return RbfKernel(amplitude_sq=s2, lengthscales=np.full(d, ls))


def random_gp(rng, d=1, n=5, noise=0.01, s2=None, ls=None):
    ker = RbfKernel(
        amplitude_sq=s2 if s2 is not None else float(rng.uniform(0.5, 2.0)),
        lengthscales=ls if ls is not None else rng.uniform(0.4, 1.5, size=d),
    )
    X = rng.normal(size=(n, d))
    y = rng.normal(size=n)
    return fit(Dataset(X=X, y=y), ker, NoiseModel(variance=noise))


def dense_posterior(gp, a, b=None):
    """Direct dense-solve oracle for mean (b=None) or covariance."""
    from gpexpect.kernels import eval_kernel

    A = kernel_matrix(gp.data.X, gp.kernel) + (gp.noise.variance + gp.jitter) * np.eye(gp.n)
    if b is None:
        kv = kernel_vector(a, gp.data.X, gp.kernel)
        return float(kv @ np.linalg.solve(A, gp.data.y))
    ka = kernel_vector(a, gp.data.X, gp.kernel)
    kb = kernel_vector(b, gp.data.X, gp.kernel)
    return float(eval_kernel(a, b, gp.kernel) - ka @ np.linalg.solve(A, kb))


class TestFit:
    def test_prior_when_no_data(self):
        from gpexpect.kernels import eval_kernel

        ker = make_kernel(d=2, s2=1.3)
        gp = fit(Dataset.empty(2), ker, NoiseModel(variance=0.1))
        x = np.array([0.5, -0.5])
        b = np.array([1.0, 0.2])
        assert posterior_mean(gp, x) == 0.0
        assert posterior_cov(gp, x, x) == pytest.approx(1.3)
        assert posterior_cov(gp, x, b) == pytest.approx(eval_kernel(x, b, ker))

    def test_noiseless_interpolation_single_point(self):
        gp = fit(Dataset(X=np.array([[0.7]]), y=np.array([3.0])),
                 make_kernel(), NoiseModel(variance=0.0))
        x = np.array([0.7])
        assert posterior_mean(gp, x) == pytest.approx(3.0)
        assert posterior_cov(gp, x, x) <= 1e-8

    def test_gram_factor_reconstructs(self):
        rng = np.random.default_rng(0)
        gp = random_gp(rng, d=2, n=6)
        A = kernel_matrix(gp.data.X, gp.kernel) + (
            gp.noise.variance + gp.jitter
        ) * np.eye(gp.n)
        recon = gp.gram_factor @ gp.gram_factor.T
        assert np.linalg.norm(recon - A) / np.linalg.norm(A) < 1e-10

    def test_weights_solve_gram_system(self):
        rng = np.random.default_rng(1)
        gp = random_gp(rng, d=1, n=5)
        A = kernel_matrix(gp.data.X, gp.kernel) + gp.noise.variance * np.eye(gp.n)
        assert np.linalg.norm(A @ gp.weights - gp.data.y) / np.linalg.norm(gp.data.y) < 1e-8

    def test_duplicated_noiseless_points_need_jitter(self):
        X = np.array([[0.0], [0.0], [1.0]])
        y = np.array([1.0, 1.0, 2.0])
        gp = fit(Dataset(X=X, y=y), make_kernel(), NoiseModel(variance=0.0))
        assert gp.jitter > 0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fit(Dataset(X=np.zeros((2, 2)), y=np.zeros(2)), make_kernel(d=1),
                NoiseModel(variance=0.1))


class TestPosteriorQueries:
    def test_mean_and_cov_match_dense_oracle(self):
        rng = np.random.default_rng(42)
        gp = random_gp(rng, d=2, n=5, noise=0.01)
        for _ in range(20):
            a, b = rng.normal(size=(2, 2))
            assert_allclose(posterior_mean(gp, a), dense_posterior(gp, a), rtol=1e-9)
            assert_allclose(posterior_cov(gp, a, b), dense_posterior(gp, a, b),
                            rtol=1e-9, atol=1e-12)

    def test_cov_symmetric_and_bounded(self):
        rng = np.random.default_rng(3)
        gp = random_gp(rng, d=1, n=6)
        for _ in range(30):
            a, b = rng.normal(size=(2, 1))
            assert posterior_cov(gp, a, b) == pytest.approx(posterior_cov(gp, b, a), abs=1e-14)
            var = posterior_cov(gp, a, a)
            assert -1e-10 <= var <= gp.kernel.amplitude_sq + 1e-12

    def test_interpolates_at_training_points(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(5, 1))
        y = rng.normal(size=5)
        gp = fit(Dataset(X=X, y=y), make_kernel(), NoiseModel(variance=0.0))
        for i in range(5):
            assert abs(posterior_mean(gp, X[i]) - y[i]) < 1e-7
            assert posterior_cov(gp, X[i], X[i]) <= 1e-8

    def test_vectorized_queries_match_scalar(self):
        rng = np.random.default_rng(5)
        gp = random_gp(rng, d=2, n=4)
        P = rng.normal(size=(7, 2))
        means = posterior_mean_many(gp, P)
        vars_ = posterior_var_many(gp, P)
        for i in range(7):
            assert_allclose(means[i], posterior_mean(gp, P[i]), rtol=1e-12)
            assert_allclose(vars_[i], posterior_cov(gp, P[i], P[i]), rtol=1e-9, atol=1e-12)


class TestLogMarginalLikelihood:
    def test_standard_normal_observation(self):
        data = Dataset(X=np.array([[0.0]]), y=np.array([0.0]))
        lml = log_marginal_likelihood(data, make_kernel(), NoiseModel(variance=0.0))
        assert_allclose(lml, -0.5 * np.log(2 * np.pi), rtol=1e-12)

    def test_matches_dense_2x2(self):
        ker = make_kernel(s2=1.5, ls=0.8)
        X = np.array([[0.0], [0.0]])
        y = np.array([1.0, -0.5])
        noise = 0.3
        lml = log_marginal_likelihood(Dataset(X=X, y=y), ker, NoiseModel(variance=noise))
        A = kernel_matrix(X, ker) + noise * np.eye(2)
        expected = (
            -0.5 * y @ np.linalg.solve(A, y)
            - 0.5 * np.log(np.linalg.det(A))
            - np.log(2 * np.pi)
        )
        assert_allclose(lml, expected, rtol=1e-10)

    def test_invariant_under_reordering(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(5, 2))
        y = rng.normal(size=5)
        ker = RbfKernel(amplitude_sq=1.2, lengthscales=np.array([0.7, 1.3]))
        noise = NoiseModel(variance=0.05)
        perm = rng.permutation(5)
        a = log_marginal_likelihood(Dataset(X=X, y=y), ker, noise)
        b = log_marginal_likelihood(Dataset(X=X[perm], y=y[perm]), ker, noise)
        assert_allclose(a, b, rtol=1e-10)

    def test_generating_noise_beats_inflated_noise(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(6, 1))
        ker = make_kernel()
        K = kernel_matrix(X, ker) + 0.1 * np.eye(6)
        y = np.linalg.cholesky(K) @ rng.standard_normal(6)
        snug = log_marginal_likelihood(Dataset(X=X, y=y), ker, NoiseModel(variance=0.1))
        huge = log_marginal_likelihood(Dataset(X=X, y=y), ker, NoiseModel(variance=1e6))
        assert huge < snug

    def test_needs_data(self):
        with pytest.raises(InsufficientDataError):
            log_marginal_likelihood(Dataset.empty(1), make_kernel(), NoiseModel(variance=0.1))


class TestSelectHyperparameters:
    def test_recovers_known_lengthscale(self):
        # draws from a GP with lengthscale variance 0.5; the selected
        # value should land within a factor 2 on the median seed
        true_ls = 0.5
        ker = RbfKernel(amplitude_sq=1.0, lengthscales=np.array([true_ls]))
        recovered = []
        for seed in range(10):
            rng = np.random.default_rng(seed)
            X = rng.uniform(-3, 3, size=(40, 1))
            K = kernel_matrix(X, ker) + 1e-6 * np.eye(40)
            y = np.linalg.cholesky(K) @ rng.standard_normal(40)
            theta = select_hyperparameters(
                Dataset(X=X, y=y), HyperSearchConfig(seed=seed, starts=6)
            )
            recovered.append(theta.kernel.lengthscales[0])
        median = float(np.median(recovered))
        assert true_ls / 2 <= median <= true_ls * 2

    def test_constant_data_drives_noise_to_floor(self):
        X = np.linspace(-1, 1, 12).reshape(-1, 1)
        y = np.full(12, 2.5)
        theta = select_hyperparameters(Dataset(X=X, y=y), HyperSearchConfig(seed=0))
        # var(y) = 0 falls back to scale 1.0, so the floor is 1e-8
        assert theta.noise.variance == pytest.approx(1e-8, rel=1e-6)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(13)
        data = Dataset(X=rng.normal(size=(10, 1)), y=rng.normal(size=10))
        a = select_hyperparameters(data, HyperSearchConfig(seed=5))
        b = select_hyperparameters(data, HyperSearchConfig(seed=5))
        assert np.array_equal(a.kernel.lengthscales, b.kernel.lengthscales)
        assert a.kernel.amplitude_sq == b.kernel.amplitude_sq
        assert a.noise.variance == b.noise.variance

    def test_fixed_noise_is_pinned(self):
        rng = np.random.default_rng(14)
        data = Dataset(X=rng.normal(size=(10, 1)), y=rng.normal(size=10))
        theta = select_hyperparameters(data, HyperSearchConfig(seed=0, fixed_noise=0.123))
        assert theta.noise.variance == 0.123

    @pytest.mark.parametrize("failure", ["raise", "nan"])
    def test_all_candidates_failing_reports_the_count(self, monkeypatch, failure):
        calls = []

        def failing(data, kernel, noise):
            calls.append(kernel)
            if failure == "raise":
                raise NumericalConditioningError("forced")
            return np.nan

        monkeypatch.setattr(gpexpect.gp, "log_marginal_likelihood", failing)
        rng = np.random.default_rng(15)
        data = Dataset(X=rng.normal(size=(6, 1)), y=rng.normal(size=6))
        with pytest.raises(NumericalConditioningError) as caught:
            select_hyperparameters(data, HyperSearchConfig(seed=0, starts=3))
        assert len(calls) > 3
        assert str(caught.value) == (
            f"no hyperparameter candidate was evaluable: {len(calls)} of {len(calls)} "
            "objective evaluations failed"
        )

    def test_needs_two_points(self):
        with pytest.raises(InsufficientDataError):
            select_hyperparameters(
                Dataset(X=np.array([[0.0]]), y=np.array([1.0])), HyperSearchConfig(seed=0)
            )
