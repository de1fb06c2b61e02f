"""Gaussian mixture densities, sampling, EM fitting, and serialization."""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy import stats
from scipy.special import logsumexp

from gpexpect._numerics import forward_solve
from gpexpect.errors import InsufficientDataError
from gpexpect.mixtures import (
    GaussianMixture,
    component_box,
    component_quads,
    fit_em,
    fit_em_trace,
    gmm_from_box,
    mixture_from_dict,
    mixture_marginal_std,
    mixture_mean,
    mixture_to_dict,
    pdf,
    pdf_many,
    same_mixture,
    sample,
)
from gpexpect.mixtures import _log_sum_exp
from gpexpect.oracles import quad_integral_1d
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


class TestDensity:
    def test_standard_normal_peak(self):
        assert_allclose(pdf(std_normal_1d(), np.array([0.0])), 0.398942, atol=1e-6)

    def test_two_component_midpoint(self):
        assert_allclose(pdf(two_bumps(), np.array([0.0])), 0.241971, atol=1e-6)

    def test_integrates_to_one(self):
        mix = two_bumps(offset=1.5)
        total, _ = quad_integral_1d(
            lambda x: pdf(mix, np.array([x])), -12.0, 12.0, tol=1e-12
        )
        assert_allclose(total, 1.0, atol=1e-8)

    def test_matches_scipy_multivariate(self):
        rng = np.random.default_rng(0)
        W = rng.normal(size=(2, 2))
        cov = W @ W.T + np.eye(2)
        mean = np.array([0.3, -0.7])
        mix = GaussianMixture(
            weights=np.array([1.0]), means=mean[None, :], covs=cov[None, :, :]
        )
        for _ in range(10):
            x = rng.normal(size=2)
            assert_allclose(
                pdf(mix, x), stats.multivariate_normal(mean, cov).pdf(x), rtol=1e-10
            )

    def test_pdf_many_matches_scalar(self):
        mix = two_bumps()
        X = np.linspace(-3, 3, 11).reshape(-1, 1)
        vals = pdf_many(mix, X)
        for i in range(11):
            assert_array_equal(vals[i], pdf(mix, X[i]))

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


class TestLogSumExp:
    """The weighted log-sum-exp of the densities and EM, against scipy's."""

    def test_matches_scipy(self):
        rng = np.random.default_rng(11)
        for k in (1, 2, 5, 16):
            # magnitudes log-uniform from 1e-3 to 1e300, either sign
            a = rng.choice([-1.0, 1.0], size=(200, k)) * 10.0 ** rng.uniform(-3, 300, (200, k))
            a[rng.random((200, k)) < 0.1] = -np.inf
            a[0] = -np.inf
            weights = 10.0 ** rng.uniform(-5, 5, k)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = _log_sum_exp(a, weights)
            assert_allclose(got, logsumexp(a, axis=1, b=weights), rtol=1e-14, atol=1e-14)

    def test_a_row_of_only_minus_infinity_gives_minus_infinity(self):
        a = np.array([[-np.inf, -np.inf], [0.0, -np.inf], [-np.inf, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _log_sum_exp(a, np.array([0.25, 0.75]))
        assert_array_equal(got, [-np.inf, np.log(0.25), np.log(0.75)])

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
    return mix.means[comp] + np.einsum("nij,nj->ni", mix._chols[comp], z)


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


class TestEm:
    def test_loglik_trace_nondecreasing(self):
        rng = np.random.default_rng(5)
        samples = np.concatenate(
            [rng.normal(-2, 0.8, size=(150, 1)), rng.normal(2, 1.2, size=(150, 1))]
        )
        _, trace = fit_em_trace(samples, 2, seed=0)
        diffs = np.diff(trace)
        assert diffs.min() >= -1e-9

    def test_single_component_exact_moments(self):
        rng = np.random.default_rng(6)
        samples = rng.normal(size=(200, 2)) @ np.array([[1.0, 0.4], [0.0, 0.9]])
        mix = fit_em(samples, 1, seed=0)
        assert_allclose(mix.means[0], samples.mean(axis=0), atol=1e-9)
        centered = samples - samples.mean(axis=0)
        assert_allclose(mix.covs[0], centered.T @ centered / len(samples), atol=1e-8)

    def test_two_cluster_recovery(self):
        rng = np.random.default_rng(7)
        samples = np.concatenate(
            [rng.normal(-5, 1.0, size=(500, 1)), rng.normal(5, 1.0, size=(500, 1))]
        )
        mix = fit_em(samples, 2, seed=0)
        assert_allclose(np.sort(mix.weights), [0.5, 0.5], atol=0.02)
        assert_allclose(np.sort(mix.means[:, 0]), [-5.0, 5.0], atol=0.2)

    def test_requires_enough_samples(self):
        with pytest.raises(InsufficientDataError):
            fit_em(np.zeros((15, 1)), 2, seed=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_names_its_row(self, bad):
        samples = np.random.default_rng(9).normal(size=(30, 2))
        samples[17, 1] = bad
        with pytest.raises(ValueError, match="sample row 17 ") as info:
            fit_em(samples, 1, seed=0)
        assert not isinstance(info.value, InsufficientDataError)

    def test_an_empty_kmeans_cluster_gives_a_valid_fit(self):
        """Three distinct points for four components: k-means leaves one cluster
        empty, which starts at weight 1/n, its k-means center and the data's
        variance, and ends with almost no weight.  The weights and means are
        the ones the per-component M steps gave before they became one."""
        samples = np.repeat(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]]), 14, axis=0)
        mix, trace = fit_em_trace(samples, 4, seed=0)
        assert np.all(mix.weights > 0)
        assert abs(mix.weights.sum() - 1.0) <= 1e-12
        assert np.all(np.linalg.eigvalsh(mix.covs) > 0)
        assert np.diff(trace).min() >= 0
        assert_allclose(
            mix.weights,
            [0.33333333333333337, 0.33333333333333337, 0.3333333333333328, 4.749946265515493e-16],
            rtol=0, atol=1e-12,
        )
        assert_allclose(
            mix.means, [[0.0, 2.0], [0.0, 0.0], [1.0, 0.0], [0.773703756363168, 0.0]],
            rtol=0, atol=1e-12,
        )

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(8)
        samples = rng.normal(size=(80, 1))
        a = fit_em(samples, 2, seed=4)
        b = fit_em(samples, 2, seed=4)
        assert np.array_equal(a.means, b.means)
        assert np.array_equal(a.weights, b.weights)


class TestGmmFromBox:
    def test_near_uniform_on_unit_interval(self):
        mix = gmm_from_box(np.array([0.0]), np.array([1.0]), per_dim=4)
        for x in np.linspace(0.1, 0.9, 17):
            assert abs(pdf(mix, np.array([x])) - 1.0) < 0.15

    def test_component_count_and_weights(self):
        mix = gmm_from_box(np.zeros(2), np.ones(2), per_dim=3)
        assert len(mix.weights) == 9
        assert_allclose(mix.weights, np.full(9, 1 / 9))

    def test_single_cell_sits_at_center(self):
        mix = gmm_from_box(np.array([0.0]), np.array([1.0]), per_dim=1)
        assert len(mix.weights) == 1
        assert_allclose(mix.means[0], [0.5])
        assert_allclose(mix.covs[0], [[0.25]])

    def test_mixture_mean_is_box_midpoint(self):
        mix = gmm_from_box(np.array([-1.0, 2.0]), np.array([3.0, 8.0]), per_dim=4)
        assert_allclose(mixture_mean(mix), [1.0, 5.0], atol=1e-12)

    def test_rejects_excessive_grid(self):
        with pytest.raises(ValueError):
            gmm_from_box(np.zeros(4), np.ones(4), per_dim=20)

    def test_rejects_inverted_box(self):
        with pytest.raises(ValueError):
            gmm_from_box(np.array([1.0]), np.array([0.0]), per_dim=2)


class TestSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(9)
        W = rng.normal(size=(2, 2))
        mix = GaussianMixture(
            weights=np.array([0.3, 0.7]),
            means=rng.normal(size=(2, 2)),
            covs=np.stack([W @ W.T + np.eye(2), np.eye(2) * 2.0]),
        )
        back = mixture_from_dict(mixture_to_dict(mix))
        assert_allclose(back.weights, mix.weights)
        assert_allclose(back.means, mix.means)
        assert_allclose(back.covs, mix.covs)

    def test_rejects_unknown_keys(self):
        doc = mixture_to_dict(std_normal_1d())
        doc["components"][0]["extra"] = 1
        with pytest.raises(ValueError):
            mixture_from_dict(doc)

    @pytest.mark.parametrize("component", [5, [1.0, 2.0], ["weight"], "weight", None])
    def test_component_that_is_not_an_object_is_a_value_error(self, component):
        # a list or a string was read as its keys: "unknown keys [1.0, 2.0]"
        doc = {"components": [mixture_to_dict(std_normal_1d())["components"][0], component]}
        with pytest.raises(
            ValueError, match="^component 1: must be an object with weight, mean, cov$"
        ):
            mixture_from_dict(doc)

    @pytest.mark.parametrize(
        "field, value",
        [("weight", True), ("weight", "1.0"), ("mean", ["0.0"]), ("mean", [False]),
         ("cov", [["1"]]), ("cov", [[1.0, True]]), ("cov", np.array([[True]]))],
    )
    def test_boolean_or_string_leaf_is_a_value_error(self, field, value):
        # before the fix these converted: True to 1, "0.0" to 0
        component = {"weight": 1.0, "mean": [0.0], "cov": [[1.0]], field: value}
        with pytest.raises(ValueError, match=f"^component 0: {field} holds a boolean or a string$"):
            mixture_from_dict({"components": [component]})

    def test_round_trip_survives_json(self):
        import json

        mix = two_bumps(offset=0.5)
        back = mixture_from_dict(json.loads(json.dumps(mixture_to_dict(mix))))
        assert_allclose(back.means, mix.means)


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
