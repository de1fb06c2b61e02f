"""Gaussian mixtures: construction, component quadratic forms, moments and sampling."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy import stats

from gpexpect._numerics import forward_solve
from gpexpect.mixtures import (
    GaussianMixture,
    component_box,
    component_quads,
    mixture_marginal_std,
    mixture_mean,
    same_mixture,
    sample,
)
from gpexpect.validation import random_instance


def std_normal_1d():
    return GaussianMixture(
        weights=np.array([1.0]),
        means=np.array([[0.0]]),
        covs=np.array([[[1.0]]]),
    )


def two_bumps(offset=1.0):
    return GaussianMixture(
        weights=np.array([0.5, 0.5]),
        means=np.array([[-offset], [offset]]),
        covs=np.array([[[1.0]], [[1.0]]]),
    )


class TestComponentQuads:
    def test_component_quads_are_the_sum_over_the_stack(self):
        """Each component's (d, n) block gives the bits of the sum over the
        stacked (k, d, n) solutions, for any d and row count, one row included."""
        rng = np.random.default_rng(12)
        for d, n in itertools.product(range(1, 13), (1, 2, 9, 300)):
            A = rng.normal(size=(5, d, d))
            chols = np.linalg.cholesky(A @ A.transpose(0, 2, 1) + np.eye(d))
            means = rng.normal(size=(5, d))
            X = 3 * rng.normal(size=(n, d))
            u = np.stack([forward_solve(chol, (X - m).T) for chol, m in zip(chols, means)])
            assert_array_equal(component_quads(chols, means, X), np.sum(u * u, axis=1))


class TestConstruction:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            GaussianMixture(
                weights=np.array([0.6, 0.6]),
                means=np.zeros((2, 1)),
                covs=np.ones((2, 1, 1)),
            )

    @pytest.mark.parametrize(
        "weights, means, covs",
        [
            ([np.nan, 0.5], [[0.0], [1.0]], [[[1.0]], [[1.0]]]),
            ([0.5, 0.5], [[np.nan], [1.0]], [[[1.0]], [[1.0]]]),
            ([0.5, 0.5], [[np.inf], [1.0]], [[[1.0]], [[1.0]]]),
            ([0.5, 0.5], [[0.0], [1.0]], [[[np.nan]], [[1.0]]]),
            ([0.5, 0.5], [[0.0], [1.0]], [[[np.inf]], [[1.0]]]),
        ],
    )
    def test_non_finite_parameters_are_rejected(self, weights, means, covs):
        with pytest.raises(ValueError):
            GaussianMixture(weights=np.array(weights), means=np.array(means), covs=np.array(covs))


class TestMoments:
    def test_mixture_mean_weighted(self):
        mix = GaussianMixture(
            weights=np.array([0.25, 0.75]),
            means=np.array([[0.0, 0.0], [4.0, -4.0]]),
            covs=np.stack([np.eye(2), np.eye(2)]),
        )
        assert_allclose(mixture_mean(mix), [3.0, -3.0])

    def test_marginal_std_two_bumps(self):
        # var = within (1) + between (offset^2) for symmetric equal bumps
        mix = two_bumps(offset=2.0)
        assert_allclose(mixture_marginal_std(mix), [np.sqrt(5.0)], rtol=1e-12)

    def test_component_box_covers_means(self):
        mix = two_bumps(offset=3.0)
        lower, upper = component_box(mix, width=4.0)
        assert lower[0] == pytest.approx(-7.0)
        assert upper[0] == pytest.approx(7.0)


def choice_sample(mix, count, seed):
    """``sample`` with the components drawn by ``Generator.choice``, as a reference."""
    rng = np.random.default_rng(seed)
    comp = rng.choice(mix.n_components, size=count, p=mix.weights)
    z = rng.standard_normal((count, mix.dim))
    return mix.means[comp] + np.einsum("nij,nj->ni", mix.chols[comp], z)


class TestSampling:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**63 - 1),
        d=st.integers(1, 5),
        k=st.integers(1, 4),
        count=st.integers(0, 120),
    )
    def test_draws_are_the_choice_draws(self, seed, d, k, count):
        mix = random_instance(np.random.default_rng(seed), d=d, n=0, n_gmm=k)[1]
        got, want = sample(mix, count, seed), choice_sample(mix, count, seed)
        assert [v.hex() for v in got.ravel()] == [v.hex() for v in want.ravel()]

    def test_sample_mean_clt(self):
        mix = two_bumps(offset=2.0)
        draws = sample(mix, 40000, seed=0)
        se = mixture_marginal_std(mix)[0] / np.sqrt(40000)
        assert abs(draws.mean()) < 4 * se

    def test_sample_shape_and_determinism(self):
        mix = two_bumps()
        a = sample(mix, 50, seed=3)
        b = sample(mix, 50, seed=3)
        assert a.shape == (50, 1)
        assert np.array_equal(a, b)

    def test_zero_count_is_empty(self):
        assert sample(two_bumps(), 0, seed=0).shape == (0, 1)

    def test_single_component_clt(self):
        mix = GaussianMixture(
            weights=np.array([1.0]), means=np.array([[1.2]]), covs=np.ones((1, 1, 1))
        )
        draws = sample(mix, 100_000, seed=4)
        assert abs(draws.mean() - 1.2) < 4.0 / np.sqrt(100_000)

    def test_ks_against_mixture_cdf(self):
        mix = two_bumps(offset=1.5)
        draws = sample(mix, 5000, seed=1)[:, 0]

        def cdf(x):
            return 0.5 * stats.norm.cdf(x, -1.5, 1.0) + 0.5 * stats.norm.cdf(x, 1.5, 1.0)

        result = stats.ks_1samp(draws, cdf)
        assert result.pvalue > 0.01

    def test_component_frequencies(self):
        mix = GaussianMixture(
            weights=np.array([0.2, 0.8]),
            means=np.array([[-50.0], [50.0]]),
            covs=np.ones((2, 1, 1)),
        )
        draws = sample(mix, 20000, seed=2)
        frac_high = np.mean(draws[:, 0] > 0)
        assert abs(frac_high - 0.8) < 4 * np.sqrt(0.2 * 0.8 / 20000)


class TestSameMixture:
    def test_equal_copies_match(self):
        a = two_bumps()
        b = GaussianMixture(weights=a.weights.copy(), means=a.means.copy(), covs=a.covs.copy())
        assert same_mixture(a, a)
        assert same_mixture(a, b)

    def test_any_difference_fails(self):
        a = two_bumps()
        assert not same_mixture(a, two_bumps(offset=1.5))
        assert not same_mixture(a, std_normal_1d())
        wider = GaussianMixture(weights=a.weights, means=a.means, covs=2.0 * a.covs)
        assert not same_mixture(a, wider)
