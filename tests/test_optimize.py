"""Bounded multi-start gradient ascent."""

import contextlib
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from gpexpect import optimize
from gpexpect._numerics import row_dots
from gpexpect.acquisition import acquisition_objective, build_context
from gpexpect.errors import OptimizationFailedError
from gpexpect.gp import Dataset, NoiseModel, fit
from gpexpect.kernels import RbfKernel
from gpexpect.mixtures import GaussianMixture, mixture_mean, sample
from gpexpect.optimize import (
    STEP_FRACTIONS,
    _GRADIENT_TOLERANCE,
    BoxBounds,
    _projected_gradient,
    default_bounds,
    maximize,
    mixture_starts,
)
from gpexpect.validation import random_instance


def box(lo, hi, d=1):
    return BoxBounds(lower=np.full(d, float(lo)), upper=np.full(d, float(hi)))


def objective_of(value, gradients):
    """The objective of a rows ``value`` and rows ``gradients`` pair.

    ``gradients_at(idx)`` differentiates the rows ``X[idx]`` of the call
    that returned it.
    """

    def objective(X):
        return value(X), lambda idx: gradients(X[idx])

    return objective


def uniform_starts(bounds, count, seed):
    """The box center, then count - 1 seeded uniform draws from the box."""
    rng = np.random.default_rng(seed)
    rest = [rng.uniform(bounds.lower, bounds.upper) for _ in range(count - 1)]
    return np.array([0.5 * (bounds.lower + bounds.upper)] + rest)


class TestMaximize:
    def test_concave_quadratic_reaches_center(self):
        c = np.array([0.3, -0.6])

        def value(X):
            return -np.sum((X - c) ** 2, axis=1)

        def grad(X):
            return -2.0 * (X - c)

        bounds = box(-2, 2, d=2)
        x_star, val = maximize(
            objective_of(value, grad), bounds, uniform_starts(bounds, 8, 0)
        )
        assert np.linalg.norm(x_star - c) < 1e-6
        assert val == pytest.approx(0.0, abs=1e-10)

    def test_linear_objective_hits_boundary(self):
        bounds = box(0, 1)
        x_star, val = maximize(
            objective_of(lambda X: X[:, 0], np.ones_like),
            bounds,
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
            acquisition_objective(ctx),
            bounds,
            uniform_starts(bounds, 8, 1),
        )
        grid = np.linspace(-4, 4, 10_000).reshape(-1, 1)
        grid_vals = acquisition_objective(ctx)(grid)[0]
        spacing = 8.0 / 9_999
        assert abs(x_star[0] - grid[np.argmax(grid_vals), 0]) <= spacing
        assert val >= grid_vals.max() - 1e-12

    def test_all_probes_stay_in_box(self):
        probes = []

        def value(X):
            probes.append(X.copy())
            return -np.sum(X**2, axis=1)

        def grad(X):
            return -2.0 * X

        bounds = box(0.5, 2.0, d=2)
        maximize(objective_of(value, grad), bounds, uniform_starts(bounds, 4, 2))
        P = np.concatenate(probes)
        assert np.all(P >= bounds.lower - 1e-12)
        assert np.all(P <= bounds.upper + 1e-12)

    def test_result_dominates_every_start(self):
        rng = np.random.default_rng(3)
        coeffs = rng.normal(size=3)

        def value(X):
            x = X[:, 0]
            return coeffs[0] * np.sin(3 * x) + coeffs[1] * x**2 + coeffs[2] * x

        def grad(X):
            return 3 * coeffs[0] * np.cos(3 * X) + 2 * coeffs[1] * X + coeffs[2]

        bounds = box(-2, 2)
        starts = np.linspace(-2, 2, 6).reshape(-1, 1)
        _, val = maximize(objective_of(value, grad), bounds, start_points=starts)
        assert np.all(val >= value(starts) - 1e-12)

    def test_coarse_grid_dominance_2d(self):
        def value(X):
            return np.sin(2 * X[:, 0]) * np.cos(X[:, 1]) - 0.1 * np.sum(X**2, axis=1)

        def grad(X):
            x0, x1 = X[:, 0], X[:, 1]
            return np.stack(
                [2 * np.cos(2 * x0) * np.cos(x1) - 0.2 * x0,
                 -np.sin(2 * x0) * np.sin(x1) - 0.2 * x1],
                axis=1,
            )

        bounds = box(-3, 3, d=2)
        _, val = maximize(
            objective_of(value, grad), bounds, uniform_starts(bounds, 12, 5)
        )
        axis = np.linspace(-3, 3, 32)
        G = np.stack(np.meshgrid(axis, axis), axis=-1).reshape(-1, 2)
        grid_best = value(G).max()
        assert val >= grid_best - 1e-9

    def test_deterministic_given_seed(self):
        def value(X):
            return np.sin(5 * X[:, 0]) - 0.3 * X[:, 0] ** 2

        def grad(X):
            return 5 * np.cos(5 * X) - 0.6 * X

        bounds = box(-3, 3)
        a = maximize(
            objective_of(value, grad), bounds, uniform_starts(bounds, 5, 6)
        )
        b = maximize(
            objective_of(value, grad), bounds, uniform_starts(bounds, 5, 6)
        )
        assert np.array_equal(a[0], b[0])
        assert a[1] == b[1]

    def test_non_finite_start_abandoned_with_warning(self):
        def value(X):
            return np.where(X[:, 0] < -0.5, np.nan, -((X[:, 0] - 1.5) ** 2))

        def grad(X):
            return -2.0 * (X - 1.5)

        starts = [np.array([-1.0]), np.array([1.0])]
        # perfbench's tracer parses this text
        message = r"^1 of 2 optimizer starts abandoned on non-finite objective values$"
        with pytest.warns(RuntimeWarning, match=message):
            x_star, _ = maximize(objective_of(value, grad), box(-2, 2), start_points=starts)
        assert x_star[0] == pytest.approx(1.5, abs=1e-6)

    def test_all_starts_failing_raises(self):
        def value(X):
            return np.full(len(X), np.nan)

        def grad(X):
            return np.zeros_like(X)

        with pytest.raises(OptimizationFailedError), pytest.warns(RuntimeWarning):
            bounds = box(-1, 1)
            maximize(
                objective_of(value, grad), bounds, uniform_starts(bounds, 3, 8)
            )

    @pytest.mark.parametrize("starts", [np.array([[0.5]]), np.zeros((0, 2)), np.zeros(2),
                                        np.zeros((1, 1, 2))],
                             ids=["one coordinate", "no starts", "a vector", "three axes"])
    def test_rejects_starts_not_shaped_to_the_box(self, starts):
        # before, [[0.5]] was broadcast to (0.5, 0.5) and zero starts raised
        # OptimizationFailedError
        calls = []

        def value(X):
            calls.append(X)
            return -np.sum(X**2, axis=1)

        with pytest.raises(ValueError, match=re.escape(f"shape {starts.shape}, expected (s, 2)")):
            maximize(objective_of(value, lambda X: -2.0 * X), box(-1, 1, d=2), starts)
        assert not calls

    @pytest.mark.xfail(
        strict=True,
        reason="the gradient tolerance is absolute: a start whose projected gradient "
        "norm is below 1e-8 stops where it is, however far from the maximum",
    )
    def test_scaling_the_objective_does_not_move_the_maximizer(self):
        """A smooth bump and the same bump times 1e-12 share their maximizer.

        On the learned x^2 panel the acquisition is about 1e-9, and the
        median gradient norm at the starts about 4e-10, so most starts never move.
        """

        def bump(scale):
            def value(X):
                return scale * np.exp(-2.0 * (X[:, 0] - 0.3) ** 2)

            def grad(X):
                return scale * -4.0 * (X - 0.3) * np.exp(-2.0 * (X - 0.3) ** 2)

            return objective_of(value, grad)

        bounds = box(-2, 2)
        starts = np.array([[-1.5], [1.6]])
        x, _ = maximize(bump(1.0), bounds, starts)
        assert x[0] == pytest.approx(0.3, abs=1e-6)
        x_small, _ = maximize(bump(1e-12), bounds, starts)
        assert x_small[0] == pytest.approx(x[0], abs=1e-6)


def isclose_projected_gradient(x, g, bounds):
    """Reference: the per-point projection through np.isclose."""
    pg = g.copy()
    at_lower = np.isclose(x, bounds.lower) & (g < 0)
    at_upper = np.isclose(x, bounds.upper) & (g > 0)
    pg[at_lower | at_upper] = 0.0
    return pg


def sequential_maximize(value, gradient_fn, bounds, start_points):
    """Reference: one start, then one trial at a time, with a scalar ``value`` and gradient."""
    box_diag = float(np.linalg.norm(bounds.upper - bounds.lower))
    best_x, best_val, abandoned = None, -np.inf, 0
    for x0 in np.atleast_2d(start_points):
        x = bounds.clip(x0)
        val = float(value(x))
        if not np.isfinite(val):
            abandoned += 1
            continue
        dead = False
        for _ in range(optimize._MAX_ITERATIONS):
            g = np.asarray(gradient_fn(x), dtype=float)
            if not np.all(np.isfinite(g)):
                dead = True
                break
            pg = isclose_projected_gradient(x, g, bounds)
            gnorm = float(np.linalg.norm(pg))
            if gnorm < _GRADIENT_TOLERANCE:
                break
            step = 0.5 * box_diag / gnorm
            improved = False
            for _ in range(STEP_FRACTIONS.size):
                trial = bounds.clip(x + step * pg)
                trial_val = float(value(trial))
                if not np.isfinite(trial_val):
                    dead = True
                    break
                if trial_val > val:
                    gain = trial_val - val
                    x, val, improved = trial, trial_val, True
                    break
                step *= 0.5
            if dead or not improved:
                break
            if gain <= optimize._RELATIVE_TOLERANCE * abs(val):
                break
        if dead:
            abandoned += 1
        elif val > best_val:
            best_x, best_val = x, val
    return best_x, best_val, abandoned


def counted_maximize(objective, bounds, starts):
    """``maximize`` with the abandoned-start count: ``(x, value, abandoned)``.

    Where every start is abandoned, ``x`` is None and the value -inf, as
    :func:`sequential_maximize` returns them.
    """
    x, val = None, -np.inf
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.suppress(OptimizationFailedError):
            x, val = maximize(objective, bounds, starts)
    counts = [int(str(w.message).split()[0]) for w in caught
              if "optimizer starts abandoned" in str(w.message)]
    return x, val, sum(counts)


def batched_maximize(value, gradients, bounds, starts):
    """``maximize`` on ``value`` applied row by row, with the abandoned-start count."""
    objective = objective_of(lambda X: np.array([value(x) for x in X]), gradients)
    return counted_maximize(objective, bounds, starts)


class TestBatchedLadderIsTheSequentialSearch:
    """Lockstep rounds over all starts keep every start's accepted iterates."""

    @pytest.mark.parametrize("d, seed", [(1, 0), (1, 1), (2, 2), (2, 3)])
    def test_acquisition_contexts(self, d, seed):
        self.check_acquisition_context(d, seed)

    @pytest.mark.parametrize("d, seed", [(1, 4), (2, 5)])
    def test_acquisition_contexts_with_an_iteration_cap(self, d, seed, monkeypatch):
        monkeypatch.setattr(optimize, "_MAX_ITERATIONS", 2)
        self.check_acquisition_context(d, seed)

    @staticmethod
    def check_acquisition_context(d, seed):
        rng = np.random.default_rng(seed)
        gp, mix = random_instance(rng, d=d)
        ctx = build_context(gp, mix)
        bounds = default_bounds(mix)
        starts = mixture_starts(mix, bounds, 6, seed)
        objective = acquisition_objective(ctx)

        def value(x):
            return objective(x[None])[0][0]

        def gradient(x):
            return objective(x[None])[1](np.array([0]))[0]

        want = sequential_maximize(value, gradient, bounds, starts)
        x, val = maximize(objective, bounds, starts)
        assert want[2] == 0
        assert np.array_equal(x, want[0])
        assert val == want[1]

    @staticmethod
    def banded(lo, hi):
        """-(x - 1)^2, NaN on the open band (lo, hi), its gradient on rows, and the band's hits.

        ``hits`` collects every point at which ``value`` met the band.
        """
        hits = []

        def value(x):
            if lo < x[0] < hi:
                hits.append(x[0])
                return np.nan
            return float(-((x[0] - 1.0) ** 2))

        return value, lambda X: -2.0 * (X - 1.0), hits

    # the first trial from x is 4 toward 1, the next ones halve the step back to x:
    # (-2.6, -2.4) abandons 3.5 in its third round, after two accepted steps;
    # (0.9, 1.1) holds the maximum and abandons every start
    @pytest.mark.parametrize("band", [(-2.6, -2.4), (0.9, 1.1), (-2.0, -1.0), (2.0, 2.5)])
    def test_non_finite_trials(self, band):
        value, grads, hits = self.banded(*band)
        bounds = box(-4, 4)
        starts = np.linspace(-3, 3.5, 6).reshape(-1, 1)
        want = sequential_maximize(value, lambda x: grads(x[None])[0], bounds, starts)
        assert hits and want[2] > 0
        got = batched_maximize(value, grads, bounds, starts)
        assert np.array_equal(got[0], want[0])
        assert got[1:] == want[1:]

    def test_nan_after_an_improving_trial_keeps_the_start(self):
        # from -3 the ladder is -3 + 4 * 2^-k: 1.0 improves, -1.0 is NaN
        value, grads, hits = self.banded(-1.1, -0.9)
        x, val, abandoned = batched_maximize(value, grads, box(-4, 4), np.array([[-3.0]]))
        assert hits == [-1.0]
        assert (x[0], val, abandoned) == (1.0, 0.0, 0)

    def test_nan_before_an_improving_trial_abandons_the_start(self):
        value, grads, hits = self.banded(0.9, 1.1)
        x, _, abandoned = batched_maximize(value, grads, box(-4, 4), np.array([[-3.0]]))
        assert hits == [1.0]
        assert x is None and abandoned == 1

    def test_non_finite_gradient_abandons_only_its_start(self):
        def grads(X):
            return np.where(X > 2.5, np.nan, -2.0 * (X - 1.0))

        bounds = box(-4, 4)
        starts = np.array([[3.0], [-3.0], [2.9]])
        value = lambda x: float(-((x[0] - 1.0) ** 2))  # noqa: E731
        want = sequential_maximize(value, lambda x: grads(x[None])[0], bounds, starts)
        got = batched_maximize(value, grads, bounds, starts)
        assert want[2] == 2
        assert np.array_equal(got[0], want[0])
        assert got[1:] == want[1:]

    def test_abandon_stall_and_bound_in_one_round(self):
        # in the first round (-3, 0) meets NaN at its first trial (2.62, 0.70)
        # and (0.5, -1) at its second (2.5, 1), (1, 4) stalls (its gradient
        # (0, 1) points past y = 4) and (-2, 4) climbs along the bound y = 4
        def value(x):
            if 2.0 < x[0] < 3.0 and x[1] < 2.0:
                return np.nan
            return float(-((x[0] - 1.0) ** 2) + x[1])

        def grads(X):
            return np.stack([-2.0 * (X[:, 0] - 1.0), np.ones(len(X))], axis=1)

        bounds = box(-4, 4, d=2)
        starts = np.array([[-3.0, 0.0], [1.0, 4.0], [-2.0, 4.0], [0.5, -1.0]])
        rows, gradient_rows = [], []

        def logged_value(X):
            rows.append(len(X))
            return np.array([value(x) for x in X])

        def logged_grads(X):
            gradient_rows.append(len(X))
            return grads(X)

        want = sequential_maximize(value, lambda x: grads(x[None])[0], bounds, starts)
        assert want[2] == 2
        with pytest.warns(RuntimeWarning, match="^2 of 4 optimizer starts abandoned"):
            x, val = maximize(objective_of(logged_value, logged_grads), bounds, starts)
        # the first round laddered three starts, and one of them goes on
        assert rows[:2] == [4, 3 * STEP_FRACTIONS.size] and gradient_rows[:2] == [4, 1]
        assert [c.hex() for c in x] == [c.hex() for c in want[0]]
        assert val.hex() == want[1].hex()

    @staticmethod
    def logged_objective(calls, gradient_calls):
        """A sine objective that logs each call's values and each ``gradients_at`` call.

        ``gradient_calls`` gets ``(k, idx)``: the rows ``idx`` of call ``k``.
        """

        def objective(X):
            k = len(calls)
            values = np.sin(5 * X[:, 0]) - 0.3 * X[:, 0] ** 2
            calls.append(values)

            def gradients_at(idx):
                gradient_calls.append((k, np.array(idx)))
                return 5 * np.cos(5 * X[idx]) - 0.6 * X[idx]

            return values, gradients_at

        return objective

    @pytest.mark.parametrize("max_iterations", [100, 3])
    def test_one_gradient_call_per_round_on_the_running_starts(
        self, max_iterations, monkeypatch
    ):
        calls, gradient_calls = [], []
        bounds = box(-3, 3)
        monkeypatch.setattr(optimize, "_MAX_ITERATIONS", max_iterations)
        maximize(self.logged_objective(calls, gradient_calls), bounds,
                 uniform_starts(bounds, 5, 6))
        rounds = len(gradient_calls)
        # the starts, then one ladder call per round; the cap of 3 ends the ascent early
        assert len(calls) == 1 + rounds
        assert rounds == 3 if max_iterations == 3 else 3 < rounds < max_iterations
        # round r takes its gradients from call r, the starts' or the last round's ladders
        assert [k for k, _ in gradient_calls] == list(range(rounds))
        # every start runs in the first round
        assert gradient_calls[0][1].tolist() == list(range(5))
        current, trials = calls[0], STEP_FRACTIONS.size
        for r in range(1, rounds + 1):
            # one ladder per start that asked for a gradient
            ladders = calls[r].reshape(-1, trials)
            assert len(ladders) == len(gradient_calls[r - 1][1])
            improving = ladders > current[:, None]
            accepted = np.flatnonzero(improving.any(axis=1))
            first = np.argmax(improving[accepted], axis=1)
            new = ladders[accepted, first]
            # a start whose step gains at most _RELATIVE_TOLERANCE of its new value stops
            going = new - current[accepted] > optimize._RELATIVE_TOLERANCE * np.abs(new)
            if r == rounds:
                # the last ladder ends every start, or the cap does
                assert rounds == max_iterations or not going.any()
                break
            # gradients only at the first improving trial of each start still running
            assert gradient_calls[r][1].tolist() == (
                accepted[going] * trials + first[going]).tolist()
            current = calls[r][gradient_calls[r][1]]

    def test_objective_must_return_one_value_per_row(self):
        bounds = box(-1, 1)
        with pytest.raises(ValueError, match="rows"):
            maximize(objective_of(lambda X: float(X[0, 0]), lambda X: -2 * X), bounds,
                     np.zeros((2, 1)))

    def test_gradients_at_must_return_one_row_per_index(self):
        bounds = box(-1, 1)
        with pytest.raises(ValueError, match="rows"):
            maximize(objective_of(lambda X: -(X[:, 0] ** 2), lambda X: -2 * X[0]), bounds,
                     np.full((2, 1), 0.5))


def hexed(result):
    """``(x, value, abandoned)`` with every float as its hex string."""
    x, val, abandoned = result
    return None if x is None else [c.hex() for c in x], float(val).hex(), abandoned


def edge_starts(rng, bounds, count, on_bounds):
    """``count`` starts whose coordinates are each interior or within np.isclose's
    tolerance of a bound but not on it; ``on_bounds`` adds coordinates on a
    bound and makes the first start a box corner.

    A round whose rows all lie off the bounds may take the projected
    gradient as it is, so only starts without ``on_bounds`` test that a
    coordinate near a bound is still projected.
    """
    lo, hi = bounds.lower, bounds.upper
    shape = (count, lo.size)
    upper_side = rng.random(shape) < 0.5
    bound = np.where(upper_side, hi, lo)
    # 0.05 to 0.95 of the tolerance 1e-8 + 1e-5 |b| inward: near, never on the bound
    offset = rng.uniform(0.05, 0.95, shape) * (1e-8 + 1e-5 * np.abs(bound))
    near = np.where(upper_side, bound - offset, bound + offset)
    kind = rng.integers(0, 3 if on_bounds else 2, shape)
    starts = np.select([kind == 1, kind == 2], [near, bound], rng.uniform(lo, hi, shape))
    if on_bounds:
        starts[0] = bound[0]
    return starts


def edge_case(seed, d, kind, bad, on_bounds):
    """A box, starts from :func:`edge_starts` and a rows objective with its one-row forms.

    ``kind`` "acquisition" is the S^2 objective of a ``random_instance``
    context in its default box.  ``kind`` "banded" is -|x - c|^2 with ``c``
    often beyond a bound, ``bad`` on a band of x_0 and NaN or inf
    gradients on another.  Returns ``(bounds, starts, objective, value, gradient)``.
    """
    rng = np.random.default_rng(seed)
    if kind == "acquisition":
        gp, mix = random_instance(rng, d=d)
        bounds = default_bounds(mix)
        objective = acquisition_objective(build_context(gp, mix))
    else:
        lo = rng.uniform(-3.0, 0.0, d)
        bounds = BoxBounds(lower=lo, upper=lo + rng.uniform(1.0, 4.0, d))
        width = bounds.upper - bounds.lower
        c = rng.uniform(bounds.lower - 0.5 * width, bounds.upper + 0.5 * width)
        bands = np.sort(rng.uniform(bounds.lower[0], bounds.upper[0], size=(2, 2)), axis=1)
        bands[:, 1] = bands[:, 0] + 0.1 * width[0] * rng.random(2)
        grad_bad = rng.choice([np.nan, np.inf, -np.inf])

        def values(X):
            on_band = (bands[0, 0] < X[:, 0]) & (X[:, 0] < bands[0, 1])
            return np.where(on_band, bad, -np.sum((X - c) ** 2, axis=1))

        def grads(X):
            on_band = (bands[1, 0] < X[:, 0]) & (X[:, 0] < bands[1, 1])
            return np.where(on_band[:, None], grad_bad, -2.0 * (X - c))

        objective = objective_of(values, grads)

    def value(x):
        return objective(x[None])[0][0]

    def gradient(x):
        return objective(x[None])[1](np.array([0]))[0]

    return bounds, edge_starts(rng, bounds, 8, on_bounds), objective, value, gradient


EDGE_EXAMPLES = [(seed, d, kind, bad, on_bounds) for seed in range(4) for d in (1, 2, 3)
                 for kind, bad in (("acquisition", np.nan), ("banded", np.nan),
                                   ("banded", np.inf), ("banded", -np.inf))
                 for on_bounds in (False, True)]


class TestLockstepRoundsAreTheSequentialSearch:
    """Each lockstep round skips the masks only rare rounds need, and keeps every bit.

    The rounds build per-row masks only when a gradient or ladder value is
    non-finite, a start stalls, a start stops on relative progress or a
    start accepts no trial, and take the projected gradient as it is when
    no coordinate is near a bound.  Cases start at box corners and within
    np.isclose's tolerance of a bound, so every skip is taken and passed
    over.
    """

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 3),
           kind=st.sampled_from(["acquisition", "banded"]),
           bad=st.sampled_from([np.nan, np.inf, -np.inf]), on_bounds=st.booleans())
    def test_bits_and_abandoned_count_match(self, seed, d, kind, bad, on_bounds):
        bounds, starts, objective, value, gradient = edge_case(seed, d, kind, bad, on_bounds)
        want = sequential_maximize(value, gradient, bounds, starts)
        assert hexed(counted_maximize(objective, bounds, starts)) == hexed(want)

    def test_the_cases_reach_both_sides_of_every_skip(self):
        sides = set()
        real = optimize._projected_gradient

        def logged_projection(X, G, bounds):
            pg = real(X, G, bounds)
            sides.add(("projection taken as it is", pg is G))
            norms = np.sqrt(row_dots(pg, pg))
            stalls = norms < _GRADIENT_TOLERANCE
            sides.add(("a start stalls", bool(stalls.any())))
            # the values of the iterates this round ladders, row by row
            befores.append(np.array([value(x) for x in X[~stalls]]))
            return pg

        for case in EDGE_EXAMPLES:
            bounds, starts, objective, value, gradient = edge_case(*case)
            calls, gradient_rows, befores = [], {}, []

            def logged(X):
                k = len(calls)
                values, gradients_at = objective(X)
                calls.append(values)

                def logged_gradients(idx):
                    grads = gradients_at(idx)
                    gradient_rows[k] = len(idx)
                    sides.add(("a gradient is non-finite", not np.isfinite(grads).all()))
                    return grads

                return values, logged_gradients

            with mock.patch.object(optimize, "_projected_gradient", logged_projection):
                got = counted_maximize(logged, bounds, starts)
            assert hexed(got) == hexed(sequential_maximize(value, gradient, bounds, starts))
            for k, ladder in enumerate(calls[1:], start=1):
                sides.add(("a ladder value is non-finite", not np.isfinite(ladder).all()))
                ladders = ladder.reshape(-1, STEP_FRACTIONS.size)
                before = befores[k - 1]
                # each start's first trial that improves or is non-finite
                stops = (ladders > before[:, None]) | ~np.isfinite(ladders)
                chosen = ladders[np.arange(len(ladders)), stops.argmax(axis=1)]
                accept = stops.any(axis=1) & np.isfinite(chosen)
                slow = accept & (chosen - before <= optimize._RELATIVE_TOLERANCE * np.abs(chosen))
                sides.add(("every start accepts a trial", bool(accept.all())))
                sides.add(("a start stops on relative progress", bool(slow.any())))
                if k < optimize._MAX_ITERATIONS:
                    # the next round asks for gradients at the trials of the starts going on
                    assert gradient_rows.get(k, 0) == np.count_nonzero(accept & ~slow)
        names = {name for name, _ in sides}
        assert len(names) == 6
        assert all((name, flag) in sides for name in names for flag in (True, False)), sides


class TestProjectedGradient:
    """The rows projection is the per-point np.isclose projection, bit for bit."""

    def test_rows_are_the_isclose_form(self):
        rng = np.random.default_rng(11)
        bounds = BoxBounds(lower=np.array([-3.0, 0.0, 2.5, -1e3]),
                           upper=np.array([1.5, 4.0, 7.0, 1e-3]))
        tol_lo = 1e-8 + 1e-5 * np.abs(bounds.lower)
        tol_hi = 1e-8 + 1e-5 * np.abs(bounds.upper)
        rows = [rng.uniform(bounds.lower, bounds.upper, size=(200, 4))]
        for bound, tol in ((bounds.lower, tol_lo), (bounds.upper, tol_hi)):
            # exactly at, just inside and just outside the tolerance, on both sides,
            # and at the edge of the box shrunk by twice it
            for offset in (0.0, 0.5, 0.999, 1.001, 2.0, 3.0, -0.5, -0.999, -1.001, -2.0, -3.0):
                rows.append(np.tile(bound + offset * tol, (4, 1)))
            for edge in (tol, 2.0 * tol):
                rows.append(np.tile(np.nextafter(bound + edge, np.inf), (4, 1)))
                rows.append(np.tile(np.nextafter(bound - edge, -np.inf), (4, 1)))
            rows.append(np.tile(bound + tol, (4, 1)))
        X = np.concatenate(rows)
        X[rng.random(X.shape) < 0.05] = np.nan
        G = rng.normal(size=X.shape)
        G[rng.random(G.shape) < 0.1] = 0.0
        G[rng.random(G.shape) < 0.02] = np.nan
        got = _projected_gradient(X, G, bounds)
        want = np.array([isclose_projected_gradient(x, g, bounds) for x, g in zip(X, G)])
        assert got.tobytes() == want.tobytes()
        # the NaN rows and the edge cases really occur
        assert np.isnan(X).any() and (got == 0.0).sum() > (G == 0.0).sum()
        # alone, a row well inside the box takes its gradient as it is
        taken_as_is = []
        for x, g, w in zip(X, G, want):
            g = g[None]
            alone = _projected_gradient(x[None], g, bounds)
            assert alone.tobytes() == w.tobytes()
            taken_as_is.append(alone is g)
        assert any(taken_as_is) and not all(taken_as_is)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        lower=st.floats(-1e300, 1e300),
        width=st.floats(1e-300, 1e300),
        factor=st.floats(-4.0, 4.0),
        upper_side=st.booleans(),
        g=st.floats(-1.0, 1.0),
    )
    @example(lower=0.0, width=1.0, factor=2.0, upper_side=False, g=-1.0)
    @example(lower=-1e300, width=1e300, factor=-2.0, upper_side=True, g=1.0)
    def test_a_row_near_any_bound_is_the_isclose_form(self, lower, width, factor, upper_side, g):
        # one row at a multiple of the tolerance from either bound of a box of any scale,
        # so the shrunk box's edge is met at every magnitude
        upper = lower + width
        assume(np.isfinite(upper) and lower < upper)
        bounds = BoxBounds(lower=np.array([lower]), upper=np.array([upper]))
        bound = upper if upper_side else lower
        x = np.array([[bound + factor * (1e-8 + 1e-5 * abs(bound))]])
        G = np.array([[g]])
        got = _projected_gradient(x, G, bounds)
        assert got.tobytes() == isclose_projected_gradient(x[0], G[0], bounds).tobytes()

    def test_nan_is_never_at_a_bound(self):
        bounds = box(-1, 1, d=2)
        G = np.array([[-1.0, 1.0]])
        got = _projected_gradient(np.full((1, 2), np.nan), G, bounds)
        assert_allclose(got, G)


class TestStepFractions:
    """The ladder's steps s0 * STEP_FRACTIONS are the halving loop's, bit for bit."""

    def test_a_read_only_halving_ladder_from_one(self):
        assert STEP_FRACTIONS[0] == 1.0 and not STEP_FRACTIONS.flags.writeable
        assert np.all(STEP_FRACTIONS[1:] == STEP_FRACTIONS[:-1] / 2)

    # s0 = mantissa * 2^exponent over every binade from 2^-983 up; below it
    # the last steps are subnormal, where each halving rounds
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(mantissa=st.floats(1.0, 2.0, exclude_max=True), exponent=st.integers(-983, 1023))
    @example(mantissa=1.0, exponent=-983)
    @example(mantissa=float(np.nextafter(2.0, 1.0)), exponent=-983)
    @example(mantissa=float(np.nextafter(2.0, 1.0)), exponent=1023)
    @example(mantissa=float("inf"), exponent=0)
    def test_steps_are_repeated_halving(self, mantissa, exponent):
        s0 = float(np.ldexp(mantissa, exponent))
        halved = [s0]
        for _ in range(STEP_FRACTIONS.size - 1):
            halved.append(halved[-1] * 0.5)
        assert (s0 * STEP_FRACTIONS).tobytes() == np.array(halved).tobytes()


class TestBounds:
    def test_default_bounds_cover_mixture_spread(self):
        mix = GaussianMixture(
            weights=np.array([0.5, 0.5]),
            means=np.array([[-2.0], [3.0]]),
            covs=np.array([[[1.0]], [[4.0]]]),
        )
        # union of per-component boxes: mean_i +/- 5 per-component stds
        bounds = default_bounds(mix)
        assert bounds.lower[0] == pytest.approx(-2.0 - 5.0 * 1.0)
        assert bounds.upper[0] == pytest.approx(3.0 + 5.0 * 2.0)

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            BoxBounds(lower=np.array([1.0]), upper=np.array([0.0]))

    def test_clip_projects_into_box(self):
        bounds = box(-1, 1, d=2)
        clipped = bounds.clip(np.array([-5.0, 0.3]))
        assert_allclose(clipped, [-1.0, 0.3])


def reference_mixture_starts(mix, bounds, count, seed):
    """``mixture_starts`` drawing all 100 candidates of a start at once, as a reference.

    The draws are ``sample`` with components from ``Generator.choice``.
    """
    rng = np.random.default_rng(seed)
    starts = [bounds.clip(mixture_mean(mix))]
    for _ in range(count - 1):
        start_seed = int(rng.integers(2**63))
        draw_rng = np.random.default_rng(start_seed)
        comp = draw_rng.choice(mix.n_components, size=100, p=mix.weights)
        z = draw_rng.standard_normal((100, mix.dim))
        draws = mix.means[comp] + np.einsum("nij,nj->ni", mix.chols[comp], z)
        inside = np.all((draws >= bounds.lower) & (draws <= bounds.upper), axis=1)
        hits = np.flatnonzero(inside)
        if hits.size:
            starts.append(draws[hits[0]])
        else:
            starts.append(np.random.default_rng(start_seed).uniform(bounds.lower, bounds.upper))
    return np.array(starts)


def starts_box(mix, kind, rng):
    """The default box, or a box around a component mean narrow enough to miss or fall back."""
    if kind == "default":
        return default_bounds(mix)
    std = np.sqrt(np.diagonal(mix.covs[0]))
    half = rng.uniform(0.02, 0.5, mix.dim) * std
    # "narrow" sits on the first component's mean; "far" lies more than 30 from every
    # mean, beyond the mass of random_instance's components, so every start falls back
    center = mix.means[0] + (30.0 * np.max(np.abs(mix.means)) + 30.0) * (kind == "far")
    return BoxBounds(lower=center - half, upper=center + half)


class TestNumpyStreamContract:
    """The numpy stream facts that drawing all starts together relies on.

    ``mixture_starts`` draws its seeds in one sized call, where drawing one
    start at a time made a scalar call per seed; ``first_samples_inside``
    draws a stream's normal rows one at a time, where ``sample`` draws them in
    one sized call.  A numpy whose streams break either moves the starts, and
    with them every history; these tests name the cause.
    """

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**63 - 1), k=st.integers(0, 12))
    def test_a_sized_seed_draw_is_that_many_scalar_draws(self, seed, k):
        sized, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
        seeds = sized.integers(2**63, size=k)
        want = [int(scalar.integers(2**63)) for _ in range(k)]
        assert seeds.tolist() == want, (
            f"numpy {np.__version__}: integers(2**63, size={k}) is not {k} scalar draws"
        )
        assert sized.bit_generator.state == scalar.bit_generator.state, (
            f"numpy {np.__version__}: integers(2**63, size={k}) leaves another stream state"
        )

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**63 - 1),
        uniforms=st.integers(0, 100),
        m=st.integers(1, 100),
        d=st.integers(1, 6),
    )
    def test_normal_rows_one_at_a_time_are_one_sized_draw(self, seed, uniforms, m, d):
        # after the uniforms that pick the components, as in sample
        sized, rows = np.random.default_rng(seed), np.random.default_rng(seed)
        sized.random(uniforms)
        rows.random(uniforms)
        want = sized.standard_normal((m, d))
        got = np.array([rows.standard_normal(d) for _ in range(m)])
        assert got.tobytes() == want.tobytes(), (
            f"numpy {np.__version__}: {m} normal rows of {d} drawn one at a time are not "
            f"one standard_normal(({m}, {d})) draw"
        )


class TestMixtureStarts:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**63 - 1),
        d=st.integers(1, 5),
        k=st.integers(1, 4),
        kind=st.sampled_from(["default", "narrow", "far"]),
    )
    def test_starts_are_the_reference_starts(self, seed, d, k, kind):
        rng = np.random.default_rng(seed)
        mix = random_instance(rng, d=d, n=0, n_gmm=k)[1]
        bounds = starts_box(mix, kind, rng)
        got = mixture_starts(mix, bounds, 8, seed)
        want = reference_mixture_starts(mix, bounds, 8, seed)
        assert [v.hex() for v in got.ravel()] == [v.hex() for v in want.ravel()]

    def test_narrow_box_misses_before_it_hits(self):
        # a start whose first candidate falls outside and a later one inside
        mix = GaussianMixture(
            weights=np.array([0.4, 0.6]), means=np.array([[0.0], [3.0]]),
            covs=np.full((2, 1, 1), 0.5),
        )
        bounds = box(2.9, 3.1)
        rng = np.random.default_rng(7)
        draws = [sample(mix, 100, seed=int(rng.integers(2**63))) for _ in range(3)]
        first_hits = [np.flatnonzero((d[:, 0] >= 2.9) & (d[:, 0] <= 3.1))[0] for d in draws]
        assert max(first_hits) > 0
        got = mixture_starts(mix, bounds, 4, seed=7)
        assert got.tobytes() == reference_mixture_starts(mix, bounds, 4, seed=7).tobytes()

    def test_a_miss_leaves_each_later_start_on_its_own_seed(self):
        # N(0, 1) in [2.0, 2.05]: the second of seed 3's start seeds misses, the third hits
        mix = GaussianMixture(
            weights=np.array([1.0]), means=np.array([[0.0]]), covs=np.ones((1, 1, 1))
        )
        bounds = box(2.0, 2.05)
        seeds = np.random.default_rng(3).integers(2**63, size=3).tolist()
        draws = [sample(mix, 100, seed=s)[:, 0] for s in seeds]
        hits = [np.flatnonzero((x >= 2.0) & (x <= 2.05)) for x in draws]
        assert hits[0].size and not hits[1].size and hits[2].size
        got = mixture_starts(mix, bounds, 4, seed=3)
        assert got[3, 0].hex() == draws[2][hits[2][0]].hex()
        fallback = np.random.default_rng(seeds[1]).uniform(bounds.lower, bounds.upper)
        assert got[2].tobytes() == fallback.tobytes()

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

    @pytest.mark.parametrize("count, message", [(0, "at least 1"), (2.0, "an integer"),
                                                (True, "an integer")])
    def test_rejects_a_count_that_is_not_a_positive_integer(self, count, message):
        # before, 2.0 raised a numpy TypeError and True gave one start
        with pytest.raises(ValueError, match=f"count must be {message}"):
            mixture_starts(self.make_mix(), box(-1, 1), count=count, seed=0)

    def test_uniform_fallback_when_mass_outside_box(self):
        mix = self.make_mix()
        bounds = box(40, 41)
        starts = mixture_starts(mix, bounds, count=5, seed=2)
        for s in starts[1:]:
            assert 40.0 <= s[0] <= 41.0
