"""Bounded multi-start gradient ascent."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gpexpect.acquisition import acquisition_gradient, acquisition_value, build_context
from gpexpect.errors import OptimizationFailedError
from gpexpect.gp import Dataset, NoiseModel, fit
from gpexpect.kernels import RbfKernel
from gpexpect.mixtures import GaussianMixture
from gpexpect.optimize import (
    BoxBounds,
    OptimizerConfig,
    default_bounds,
    maximize,
    mixture_starts,
)


def box(lo, hi, d=1):
    return BoxBounds(lower=np.full(d, float(lo)), upper=np.full(d, float(hi)))


def uniform_starts(bounds, count, seed):
    """The box center, then count - 1 seeded uniform draws from the box."""
    rng = np.random.default_rng(seed)
    rest = [rng.uniform(bounds.lower, bounds.upper) for _ in range(count - 1)]
    return np.array([0.5 * (bounds.lower + bounds.upper)] + rest)


class TestMaximize:
    def test_concave_quadratic_reaches_center(self):
        c = np.array([0.3, -0.6])

        def value(x):
            return -float(np.sum((x - c) ** 2))

        def grad(x):
            return -2.0 * (x - c)

        bounds = box(-2, 2, d=2)
        x_star, val = maximize(value, grad, bounds, OptimizerConfig(), uniform_starts(bounds, 8, 0))
        assert np.linalg.norm(x_star - c) < 1e-6
        assert val == pytest.approx(0.0, abs=1e-10)

    def test_linear_objective_hits_boundary(self):
        bounds = box(0, 1)
        x_star, val = maximize(
            lambda x: float(x[0]),
            lambda x: np.array([1.0]),
            bounds,
            OptimizerConfig(),
            uniform_starts(bounds, 8, 0),
        )
        assert x_star[0] == pytest.approx(1.0, abs=1e-10)
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_acquisition_matches_grid_argmax(self):
        gp = fit(
            Dataset(X=np.array([[-1.0], [1.0]]), y=np.array([0.5, 0.5])),
            RbfKernel(amplitude_sq=1.0, lengthscales=np.array([0.6])),
            NoiseModel(variance=0.05),
        )
        mix = GaussianMixture(
            weights=np.array([1.0]), means=np.zeros((1, 1)), covs=np.ones((1, 1, 1))
        )
        ctx = build_context(gp, mix)
        bounds = box(-4, 4)
        x_star, val = maximize(
            lambda x: acquisition_value(ctx, x),
            lambda x: acquisition_gradient(ctx, x),
            bounds,
            OptimizerConfig(),
            uniform_starts(bounds, 8, 1),
        )
        grid = np.linspace(-4, 4, 10_000).reshape(-1, 1)
        grid_vals = np.array([acquisition_value(ctx, g) for g in grid])
        spacing = 8.0 / 9_999
        assert abs(x_star[0] - grid[np.argmax(grid_vals), 0]) <= spacing
        assert val >= grid_vals.max() - 1e-12

    def test_all_probes_stay_in_box(self):
        probes = []

        def value(x):
            probes.append(x.copy())
            return -float(np.sum(x**2))

        def grad(x):
            return -2.0 * x

        bounds = box(0.5, 2.0, d=2)
        maximize(value, grad, bounds, OptimizerConfig(), uniform_starts(bounds, 4, 2))
        P = np.array(probes)
        assert np.all(P >= bounds.lower - 1e-12)
        assert np.all(P <= bounds.upper + 1e-12)

    def test_result_dominates_every_start(self):
        rng = np.random.default_rng(3)
        coeffs = rng.normal(size=3)

        def value(x):
            return float(coeffs[0] * np.sin(3 * x[0]) + coeffs[1] * x[0] ** 2
                         + coeffs[2] * x[0])

        def grad(x):
            return np.array([3 * coeffs[0] * np.cos(3 * x[0]) + 2 * coeffs[1] * x[0]
                             + coeffs[2]])

        bounds = box(-2, 2)
        starts = [np.array([v]) for v in np.linspace(-2, 2, 6)]
        _, val = maximize(value, grad, bounds, OptimizerConfig(), start_points=starts)
        assert all(val >= value(s) - 1e-12 for s in starts)

    def test_coarse_grid_dominance_2d(self):
        def value(x):
            return float(np.sin(2 * x[0]) * np.cos(x[1]) - 0.1 * np.sum(x**2))

        def grad(x):
            return np.array(
                [2 * np.cos(2 * x[0]) * np.cos(x[1]) - 0.2 * x[0],
                 -np.sin(2 * x[0]) * np.sin(x[1]) - 0.2 * x[1]]
            )

        bounds = box(-3, 3, d=2)
        _, val = maximize(value, grad, bounds, OptimizerConfig(), uniform_starts(bounds, 12, 5))
        axis = np.linspace(-3, 3, 32)
        G = np.stack(np.meshgrid(axis, axis), axis=-1).reshape(-1, 2)
        grid_best = max(value(g) for g in G)
        assert val >= grid_best - 1e-9

    def test_deterministic_given_seed(self):
        def value(x):
            return float(np.sin(5 * x[0]) - 0.3 * x[0] ** 2)

        def grad(x):
            return np.array([5 * np.cos(5 * x[0]) - 0.6 * x[0]])

        bounds = box(-3, 3)
        a = maximize(value, grad, bounds, OptimizerConfig(), uniform_starts(bounds, 5, 6))
        b = maximize(value, grad, bounds, OptimizerConfig(), uniform_starts(bounds, 5, 6))
        assert np.array_equal(a[0], b[0])
        assert a[1] == b[1]

    def test_non_finite_start_abandoned_with_warning(self):
        def value(x):
            if x[0] < -0.5:
                return float("nan")
            return -float((x[0] - 1.5) ** 2)

        def grad(x):
            return np.array([-2.0 * (x[0] - 1.5)])

        starts = [np.array([-1.0]), np.array([1.0])]
        with pytest.warns(RuntimeWarning):
            x_star, _ = maximize(value, grad, box(-2, 2), OptimizerConfig(),
                                 start_points=starts)
        assert x_star[0] == pytest.approx(1.5, abs=1e-6)

    def test_all_starts_failing_raises(self):
        def value(x):
            return float("nan")

        def grad(x):
            return np.zeros(1)

        with pytest.raises(OptimizationFailedError), pytest.warns(RuntimeWarning):
            bounds = box(-1, 1)
            maximize(value, grad, bounds, OptimizerConfig(), uniform_starts(bounds, 3, 8))


class TestBounds:
    def test_default_bounds_cover_mixture_spread(self):
        mix = GaussianMixture(
            weights=np.array([0.5, 0.5]),
            means=np.array([[-2.0], [3.0]]),
            covs=np.array([[[1.0]], [[4.0]]]),
        )
        # union of per-component boxes: mean_i +/- width * per-component std
        bounds = default_bounds(mix, width=5.0)
        assert bounds.lower[0] == pytest.approx(-2.0 - 5.0 * 1.0)
        assert bounds.upper[0] == pytest.approx(3.0 + 5.0 * 2.0)

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            BoxBounds(lower=np.array([1.0]), upper=np.array([0.0]))

    def test_clip_projects_into_box(self):
        bounds = box(-1, 1, d=2)
        clipped = bounds.clip(np.array([-5.0, 0.3]))
        assert_allclose(clipped, [-1.0, 0.3])


class TestMixtureStarts:
    def make_mix(self):
        return GaussianMixture(
            weights=np.array([1.0]), means=np.array([[0.5]]), covs=np.ones((1, 1, 1))
        )

    def test_first_start_is_clipped_mixture_mean(self):
        mix = self.make_mix()
        starts = mixture_starts(mix, box(-2, 2), count=4, seed=0)
        assert_allclose(starts[0], [0.5])
        narrow = box(-2, 0)
        starts = mixture_starts(mix, narrow, count=2, seed=0)
        assert_allclose(starts[0], [0.0])

    def test_all_starts_feasible_and_deterministic(self):
        mix = self.make_mix()
        bounds = box(-0.5, 0.6)
        a = mixture_starts(mix, bounds, count=6, seed=1)
        b = mixture_starts(mix, bounds, count=6, seed=1)
        assert len(a) == 6
        for s, t in zip(a, b):
            assert np.array_equal(s, t)
            assert bounds.lower[0] <= s[0] <= bounds.upper[0]

    def test_uniform_fallback_when_mass_outside_box(self):
        mix = self.make_mix()
        bounds = box(40, 41)
        starts = mixture_starts(mix, bounds, count=5, seed=2)
        for s in starts[1:]:
            assert 40.0 <= s[0] <= 41.0
