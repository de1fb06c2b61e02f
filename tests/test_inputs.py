"""Gaussian-mixture densities, EM fitting, box grids and dict I/O."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy import stats
from scipy.special import logsumexp

from gpexpect.errors import InsufficientDataError
from gpexpect.inputs import (
    _log_sum_exp,
    fit_em,
    fit_em_trace,
    gmm_from_box,
    mixture_from_dict,
    mixture_to_dict,
    pdf,
    pdf_many,
)
from gpexpect.mixtures import GaussianMixture, mixture_mean
from gpexpect.oracles import quad_integral_1d


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


class TestEm:
    def test_loglik_trace_nondecreasing(self):
        rng = np.random.default_rng(5)
        samples = np.concatenate(
            [rng.normal(-2, 0.8, size=(150, 1)), rng.normal(2, 1.2, size=(150, 1))]
        )
        _, trace = fit_em_trace(samples, 2)
        diffs = np.diff(trace)
        assert diffs.min() >= -1e-9

    def test_single_component_exact_moments(self):
        rng = np.random.default_rng(6)
        samples = rng.normal(size=(200, 2)) @ np.array([[1.0, 0.4], [0.0, 0.9]])
        mix = fit_em(samples, 1)
        assert_allclose(mix.means[0], samples.mean(axis=0), atol=1e-9)
        centered = samples - samples.mean(axis=0)
        assert_allclose(mix.covs[0], centered.T @ centered / len(samples), atol=1e-8)

    def test_two_cluster_recovery(self):
        rng = np.random.default_rng(7)
        samples = np.concatenate(
            [rng.normal(-5, 1.0, size=(500, 1)), rng.normal(5, 1.0, size=(500, 1))]
        )
        mix = fit_em(samples, 2)
        assert_allclose(np.sort(mix.weights), [0.5, 0.5], atol=0.02)
        assert_allclose(np.sort(mix.means[:, 0]), [-5.0, 5.0], atol=0.2)

    def test_requires_enough_samples(self):
        with pytest.raises(InsufficientDataError):
            fit_em(np.zeros((15, 1)), 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_names_its_row(self, bad):
        samples = np.random.default_rng(9).normal(size=(30, 2))
        samples[17, 1] = bad
        with pytest.raises(ValueError, match="sample row 17 ") as info:
            fit_em(samples, 1)
        assert not isinstance(info.value, InsufficientDataError)

    @pytest.mark.parametrize("k", [True, 1.5, 2.0, "2"])
    def test_rejects_a_component_count_that_is_not_an_integer(self, k):
        # before the fix, each raised a TypeError from numpy or from < that did not name k
        samples = np.random.default_rng(9).normal(size=(30, 1))
        with pytest.raises(ValueError, match="k must be an integer"):
            fit_em(samples, k)
        assert fit_em(samples, np.int64(2)).n_components == 2

    def test_an_empty_kmeans_cluster_gives_a_valid_fit(self):
        """Three distinct points for four components: k-means leaves one cluster
        empty, which starts at weight 1/n, its k-means center and the data's
        variance, and ends with almost no weight.  The weights and means are
        the ones the per-component M steps gave before they became one."""
        samples = np.repeat(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]]), 14, axis=0)
        mix, trace = fit_em_trace(samples, 4)
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

    def test_deterministic_given_the_samples(self):
        rng = np.random.default_rng(8)
        samples = rng.normal(size=(80, 1))
        a = fit_em(samples, 2)
        b = fit_em(samples, 2)
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

    @pytest.mark.parametrize("per_dim", [True, 2.5, 2.0, "2"])
    def test_rejects_a_grid_size_that_is_not_an_integer(self, per_dim):
        # before the fix, True gave a one-component mixture and the others a TypeError
        with pytest.raises(ValueError, match="per_dim must be an integer"):
            gmm_from_box([0.0], [1.0], per_dim)
        assert gmm_from_box([0.0], [1.0], np.int64(2)).n_components == 2

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
