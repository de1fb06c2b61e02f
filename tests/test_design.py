"""Sequential run loop: initial design, steps, stopping, reproducibility."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import gpexpect.design
from gpexpect.benchmarks import benchmark_problem, branin
from gpexpect.design import (
    DesignConfig,
    DesignState,
    initial_design,
    run,
    run_random_baseline,
    step,
)
from gpexpect.errors import EvaluationError, InsufficientDataError
from gpexpect.gp import Dataset, HyperparameterSample, NoiseModel
from gpexpect.kernels import RbfKernel
from gpexpect.mixtures import GaussianMixture
from gpexpect.optimize import BoxBounds, default_bounds
from gpexpect.validation import random_instance


def std_normal_mix(d=1):
    return GaussianMixture(
        weights=np.array([1.0]), means=np.zeros((1, d)), covs=np.eye(d)[None, :, :]
    )


def pinned(ls=1.0, s2=1.0, noise=0.01, d=1):
    return HyperparameterSample(
        kernel=RbfKernel(amplitude_sq=s2, lengthscales=np.full(d, ls)),
        noise=NoiseModel(variance=noise),
    )


def records_equal(a, b):
    return (
        a.iteration == b.iteration
        and np.array_equal(a.chosen_x, b.chosen_x)
        and a.observed_y == b.observed_y
        and a.mu1 == b.mu1
        and a.sigma1 == b.sigma1
        and a.acquisition_at_chosen == b.acquisition_at_chosen
    )


class TestInitialDesign:
    def test_reproducible_pair(self):
        pts = initial_design(std_normal_mix(), 2, seed=11)
        assert pts.shape == (2, 1)
        assert np.array_equal(pts, initial_design(std_normal_mix(), 2, seed=11))

    def test_clt_mean(self):
        mix = GaussianMixture(
            weights=np.array([1.0]), means=np.array([[2.5]]), covs=np.ones((1, 1, 1))
        )
        pts = initial_design(mix, 1000, seed=12)
        assert abs(pts.mean() - 2.5) < 4.0 / np.sqrt(1000)

    def test_rejects_tiny_design(self):
        with pytest.raises(InsufficientDataError):
            initial_design(std_normal_mix(), 1, seed=0)


class TestDesignConfig:
    @pytest.mark.parametrize("sigma_stop", [-1.0, float("nan")])
    def test_rejects_bad_sigma_stop(self, sigma_stop):
        with pytest.raises(ValueError, match="sigma_stop"):
            DesignConfig(n0=2, budget=4, seed=0, sigma_stop=sigma_stop)

    @pytest.mark.parametrize(
        "field, value",
        [("n0", 5.0), ("budget", 8.5), ("refit_every", 2.5), ("theta_samples", 2.5),
         ("theta_samples", "2"), ("seed", True), ("refit_every", True)],
    )
    def test_rejects_non_integer_counts(self, field, value):
        # before the fix, theta_samples=2.5 spent the initial design, then
        # failed in range(); refit_every=2.5 ran on float modulo
        kwargs = dict(n0=5, budget=8, seed=1)
        kwargs[field] = value
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            DesignConfig(**kwargs)
        kwargs[field] = np.int64(int(float(value)))
        DesignConfig(**kwargs)

    @pytest.mark.parametrize(
        "seed, message", [(-1, "seed must be >= 0"), (1.5, "seed must be an integer"),
                          ("3", "seed must be an integer")],
    )
    def test_rejects_bad_seeds(self, seed, message):
        # before the fix, seed=-1 spent the initial design's black-box calls and
        # then failed inside numpy; seed=1.5 raised numpy's TypeError
        with pytest.raises(ValueError, match=message):
            DesignConfig(n0=2, budget=4, seed=seed)
        assert DesignConfig(n0=2, budget=4, seed=np.int64(0)).seed == 0

    def test_fixed_noise_conflicts_with_pinned_theta(self):
        # before the fix, fixed_noise was silently ignored beside a pinned theta
        with pytest.raises(ValueError, match="fixed_noise conflicts with pinned_theta"):
            DesignConfig(n0=2, budget=4, seed=0, pinned_theta=pinned(), fixed_noise=0.01)
        assert DesignConfig(n0=2, budget=4, seed=0, fixed_noise=0.01).fixed_noise == 0.01


class TestStep:
    def make_state(self, seed=0, noise=0.01, **cfg_kwargs):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(4, 1))
        y = np.sin(X[:, 0])
        cfg = DesignConfig(
            n0=2, budget=20, seed=seed, pinned_theta=pinned(noise=noise), **cfg_kwargs
        )
        return DesignState(data=Dataset(X=X, y=y), mix=std_normal_mix(), cfg=cfg)

    def test_appends_one_pair_and_one_record(self):
        state = self.make_state()
        n_before = state.data.n
        step(state, lambda x: float(np.sin(x[0])))
        assert state.data.n == n_before + 1
        assert len(state.history) == 1
        rec = state.history[-1]
        assert rec.observed_y == pytest.approx(np.sin(rec.chosen_x[0]))

    def test_frozen_theta_telescoping(self):
        from gpexpect.acquisition import acquisition_profile, build_context
        from gpexpect.gp import fit

        state = self.make_state(noise=0.01)
        gp = fit(state.data, state.cfg.pinned_theta.kernel, state.cfg.pinned_theta.noise)
        ctx_before = build_context(gp, state.mix)
        step(state, lambda x: float(np.sin(x[0])))
        rec = state.history[-1]
        predicted = acquisition_profile(ctx_before, rec.chosen_x[None])["sigma2_sq"][0]
        assert abs(rec.sigma1**2 - predicted) <= 1e-8 * max(1.0, ctx_before.sigma1_sq)

    def test_acquisition_recorded_from_prior_context(self):
        from gpexpect.acquisition import acquisition_objective, build_context
        from gpexpect.gp import fit

        state = self.make_state()
        gp = fit(state.data, state.cfg.pinned_theta.kernel, state.cfg.pinned_theta.noise)
        ctx_before = build_context(gp, state.mix)
        step(state, lambda x: float(np.sin(x[0])))
        rec = state.history[-1]
        value = acquisition_objective(ctx_before)(rec.chosen_x[None])[0][0]
        assert_allclose(rec.acquisition_at_chosen, value, rtol=1e-10)

    def test_zero_observations_keep_mu1_zero(self):
        mix = GaussianMixture(
            weights=np.array([1.0]), means=np.array([[0.2]]),
            covs=np.full((1, 1, 1), 1e-6),
        )
        rng = np.random.default_rng(3)
        X = rng.normal(size=(3, 1)) * 0.1 + 0.2
        cfg = DesignConfig(n0=2, budget=10, seed=3, pinned_theta=pinned(noise=0.01))
        state = DesignState(data=Dataset(X=X, y=np.zeros(3)), mix=mix, cfg=cfg)
        for _ in range(3):
            step(state, lambda x: 0.0)
            assert abs(state.history[-1].mu1) < 1e-10

    def test_hand_built_state_steps_in_its_one_box(self, monkeypatch):
        state = self.make_state()
        want = default_bounds(state.mix)
        assert state.bounds.lower.tobytes() == want.lower.tobytes()
        assert state.bounds.upper.tobytes() == want.upper.tobytes()
        boxed = self.make_state(bounds=BoxBounds(lower=np.array([0.5]), upper=np.array([0.7])))
        assert boxed.bounds is boxed.cfg.bounds

        # the box is worked out when the state is made, never again by a step
        def no_box(*args, **kwargs):
            raise AssertionError("default_bounds called by a step")

        monkeypatch.setattr(gpexpect.design, "default_bounds", no_box)
        for current in (state, boxed):
            for _ in range(2):
                step(current, lambda x: float(np.sin(x[0])))
        assert len(state.history) == len(boxed.history) == 2
        assert all(0.5 <= rec.chosen_x[0] <= 0.7 for rec in boxed.history)

    def test_non_finite_observation_raises(self):
        state = self.make_state()
        with pytest.raises(EvaluationError):
            step(state, lambda x: float("nan"))


class TestRun:
    def quadratic(self, x):
        return float(x[0] ** 2)

    def test_budget_equals_n0(self):
        cfg = DesignConfig(n0=3, budget=3, seed=5, pinned_theta=pinned())
        history = run(std_normal_mix(), self.quadratic, cfg)
        assert len(history) == 3
        assert [r.iteration for r in history] == [0, 1, 2]
        assert all(r.acquisition_at_chosen == 0.0 for r in history)

    def test_deterministic_histories(self):
        cfg = DesignConfig(n0=2, budget=8, seed=6, pinned_theta=pinned(noise=0.05))
        a = run(std_normal_mix(), self.quadratic, cfg)
        b = run(std_normal_mix(), self.quadratic, cfg)
        assert len(a) == len(b)
        assert all(records_equal(x, y) for x, y in zip(a, b))

    def test_sigma_non_increasing_with_frozen_theta(self):
        cfg = DesignConfig(n0=2, budget=12, seed=7, pinned_theta=pinned(noise=0.05))
        history = run(std_normal_mix(), self.quadratic, cfg)
        sigmas = [r.sigma1 for r in history[1:]]
        assert all(b <= a + 1e-10 for a, b in zip(sigmas, sigmas[1:]))

    def test_sigma_stop_halts_early(self):
        cfg = DesignConfig(n0=2, budget=40, seed=8, pinned_theta=pinned(noise=0.01),
                           sigma_stop=0.2)
        history = run(std_normal_mix(), self.quadratic, cfg)
        assert len(history) < 40
        assert history[-1].sigma1 < 0.2

    def test_estimate_approaches_analytic_q(self):
        # q = E[x^2] = 1 under the standard normal
        cfg = DesignConfig(n0=3, budget=15, seed=9, pinned_theta=pinned(noise=1e-4))
        history = run(std_normal_mix(), self.quadratic, cfg)
        final = history[-1]
        assert abs(final.mu1 - 1.0) < max(3 * final.sigma1, 0.05)

    def test_centered_fit_reports_offset_estimate(self):
        cfg = DesignConfig(n0=2, budget=5, seed=10, pinned_theta=pinned(noise=0.01),
                           center_y=True)
        history = run(std_normal_mix(), lambda x: 3.7, cfg)
        assert_allclose(history[-1].mu1, 3.7, atol=1e-10)

    def test_theta_average_acquisition_runs(self):
        cfg = DesignConfig(n0=2, budget=6, seed=11, pinned_theta=pinned(noise=0.05),
                           theta_samples=3)
        a = run(std_normal_mix(), self.quadratic, cfg)
        b = run(std_normal_mix(), self.quadratic, cfg)
        assert len(a) == 6
        assert all(records_equal(x, y) for x, y in zip(a, b))

    def test_auto_hyperparameters_smoke(self):
        cfg = DesignConfig(n0=4, budget=8, seed=12, refit_every=2)
        history = run(std_normal_mix(), self.quadratic, cfg)
        assert len(history) == 8
        assert np.isfinite(history[-1].mu1)
        assert history[-1].sigma1 >= 0


class TestRandomBaseline:
    def quadratic(self, x):
        return float(x[0] ** 2)

    def test_deterministic_and_acq_zero(self):
        cfg = DesignConfig(n0=2, budget=7, seed=13, pinned_theta=pinned(noise=0.05))
        a = run_random_baseline(std_normal_mix(), self.quadratic, cfg)
        b = run_random_baseline(std_normal_mix(), self.quadratic, cfg)
        assert len(a) == 7
        assert all(records_equal(x, y) for x, y in zip(a, b))
        assert all(r.acquisition_at_chosen == 0.0 for r in a)

    def test_shares_initial_design_with_acquisition_run(self):
        cfg = DesignConfig(n0=3, budget=5, seed=14, pinned_theta=pinned(noise=0.05))
        acq = run(std_normal_mix(), self.quadratic, cfg)
        rnd = run_random_baseline(std_normal_mix(), self.quadratic, cfg)
        for x, y in zip(acq[:3], rnd[:3]):
            assert records_equal(x, y)

    def test_points_follow_mixture(self):
        mix = GaussianMixture(
            weights=np.array([1.0]), means=np.array([[5.0]]), covs=np.ones((1, 1, 1))
        )
        cfg = DesignConfig(n0=2, budget=30, seed=15,
                           pinned_theta=pinned(noise=0.05))
        history = run_random_baseline(mix, lambda x: float(x[0]), cfg)
        xs = np.array([r.chosen_x[0] for r in history])
        assert abs(xs.mean() - 5.0) < 4.0 / np.sqrt(len(xs))


class TestBlackBoxFailure:
    @pytest.mark.parametrize("runner", [run, run_random_baseline])
    @pytest.mark.parametrize("failing_call", [1, 4])
    def test_raising_black_box_becomes_evaluation_error(self, runner, failing_call):
        # call 1 is in the initial design, call 4 in the first step (n0=3)
        seen = []
        original = ValueError("simulator diverged")

        def black_box(x):
            seen.append(x.copy())
            if len(seen) == failing_call:
                raise original
            return float(x[0] ** 2)

        cfg = DesignConfig(n0=3, budget=6, seed=16, pinned_theta=pinned(noise=0.05))
        with pytest.raises(EvaluationError) as info:
            runner(std_normal_mix(), black_box, cfg)
        assert len(seen) == failing_call
        assert str(seen[-1].tolist()) in str(info.value)
        assert info.value.__cause__ is original


class TestDimensionMismatch:
    """A config of the wrong dimension raises before the black box is called."""

    @pytest.mark.parametrize("runner", [run, run_random_baseline])
    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"bounds": BoxBounds(lower=[-3.0], upper=[3.0])}, "bounds are 1-d"),
            ({"bounds": BoxBounds(lower=[-3.0] * 3, upper=[3.0] * 3)}, "bounds are 3-d"),
            ({"pinned_theta": pinned(noise=0.05, d=1)}, "pinned kernel is 1-d"),
        ],
    )
    def test_raises_before_any_black_box_call(self, runner, overrides, match):
        calls = []

        def black_box(x):
            calls.append(x)
            return float(np.sum(x**2))

        cfg = DesignConfig(n0=4, budget=6, seed=17, **overrides)
        with pytest.raises(ValueError, match=match):
            runner(std_normal_mix(d=2), black_box, cfg)
        assert len(calls) == 0


class TestWorkPerStep:
    def test_one_selection_per_refit_and_one_fit_per_step(self, monkeypatch):
        counts = {"select": 0, "fit": 0}
        select, fit = gpexpect.design.select_hyperparameters, gpexpect.design.fit

        def counting_select(*args, **kwargs):
            counts["select"] += 1
            return select(*args, **kwargs)

        def counting_fit(*args, **kwargs):
            counts["fit"] += 1
            return fit(*args, **kwargs)

        monkeypatch.setattr(gpexpect.design, "select_hyperparameters", counting_select)
        monkeypatch.setattr(gpexpect.design, "fit", counting_fit)
        problem = benchmark_problem("x_squared")
        history = run(problem.mix, problem.black_box, DesignConfig(n0=5, budget=30, seed=900))
        assert len(history) == 30
        # selections: the initial design, then before steps 5, 10, 15, 20
        assert counts["select"] == 5
        # fits: the initial one, one per absorbed point, one after each re-selection
        assert counts["fit"] == 1 + 25 + 4

    def test_theta_terms_built_once_per_theta(self, monkeypatch):
        import gpexpect.acquisition

        kernels = []
        double = gpexpect.acquisition.double_kernel_mean

        def counting(ker, mix):
            kernels.append(ker)
            return double(ker, mix)

        monkeypatch.setattr(gpexpect.acquisition, "double_kernel_mean", counting)
        problem = benchmark_problem("x_squared")
        run(problem.mix, problem.black_box, DesignConfig(n0=5, budget=30, seed=900))
        # the initial fit, then one per re-selection: the step's context with the
        # new theta, which the refit after it reuses
        assert len(kernels) == 1 + 4
        kernels.clear()
        run(problem.mix, problem.black_box,
            DesignConfig(n0=5, budget=12, seed=900, pinned_theta=pinned()))
        assert len(kernels) == 1


# (chosen_x, mu1, sigma1, acquisition_at_chosen) as float.hex, one row per record
GOLDEN_PINNED_RUN = [
    ("-0x1.317b0e6bf2d18p+1", "0x1.d3f3d46cc34f0p-2", "0x1.8f6578051d254p-1", "0x0.0p+0"),
    ("-0x1.70e0ac366bcb4p-2", "0x1.d3f3d46cc34f0p-2", "0x1.8f6578051d254p-1", "0x0.0p+0"),
    ("0x1.4f9ee70757c38p-3", "0x1.d3f3d46cc34f0p-2", "0x1.8f6578051d254p-1", "0x0.0p+0"),
    ("0x1.a702c8f6ee2fbp+0", "0x1.dfce35ff060e2p-1", "0x1.de0a9e7f09fd2p-2",
     "0x1.8ff28a4311d16p-2"),
    ("-0x1.1dfcc0cc8adefp+0", "0x1.533839138afecp+0", "0x1.1eb2598033ae0p-2",
     "0x1.1dcc560c12289p-3"),
    ("0x1.70618565d90aep+1", "0x1.340eab82bfd8fp+1", "0x1.1ce07bc7c5759p-3",
     "0x1.e3a48cb8064c4p-5"),
    ("0x1.693d83c6e9cf1p-1", "0x1.33ff6b5ca364fp+1", "0x1.65c84758446b3p-4",
     "0x1.8001952250d80p-7"),
    ("-0x1.d0af030be4519p+0", "0x1.305964d945183p+1", "0x1.036eba0581ee6p-4",
     "0x1.da3deec06772cp-9"),
]

# (x1, x2, mu1, sigma1, acquisition) of a pinned 5 + 3 step run on the
# Branin mixture: pins the 2-d kernel-mean solve and the batched line search
GOLDEN_PINNED_BRANIN_RUN = [
    ("0x1.348a83fd75902p+3", "0x1.122a7d1836283p+1", "0x1.4c2b8fe633779p+0",
     "0x1.f8aa61b173f7dp+3", "0x0.0p+0"),
    ("-0x1.30c40aa9e3dcfp+2", "0x1.7b377ea54abb0p+3", "0x1.4c2b8fe633779p+0",
     "0x1.f8aa61b173f7dp+3", "0x0.0p+0"),
    ("0x1.5912fe1358df5p+3", "0x1.31e5ab7130fd0p+1", "0x1.4c2b8fe633779p+0",
     "0x1.f8aa61b173f7dp+3", "0x0.0p+0"),
    ("0x1.55f6316e8e930p+3", "0x1.6b17aa57f60a1p+1", "0x1.4c2b8fe633779p+0",
     "0x1.f8aa61b173f7dp+3", "0x0.0p+0"),
    ("-0x1.e9f12ca4d6db2p+1", "0x1.70182bdb5fe01p+3", "0x1.4c2b8fe633779p+0",
     "0x1.f8aa61b173f7dp+3", "0x0.0p+0"),
    ("0x1.992213f80dc2bp+1", "0x1.239a276fb1e3ap+1", "0x1.6dcae6de321b3p+0",
     "0x1.431a4c0dfcadfp+3", "0x1.2589f9b8e4439p+7"),
    ("-0x1.497b89c7ce327p+1", "0x1.96d2464c51de3p+3", "0x1.0c1db7e8864bep+2",
     "0x1.15f0ac1b2c290p+2", "0x1.4c5ab0f158013p+6"),
    ("0x1.cdd8b5043a08bp+2", "0x1.6ac0de881aa4dp+1", "0x1.6044c40f4ae70p+2",
     "0x1.e39cada562ac7p+1", "0x1.257243b5a7355p+2"),
]


# (chosen_x, mu1, sigma1, acquisition) of a 5 + 5 step run on sin(3x) + x^2
# averaging the log gain over 4 theta samples, with the default refits:
# pins the multi-theta values and gradients the optimizer ascends
GOLDEN_MULTI_THETA_RUN = [
    ("0x1.6fc062dae41f9p-3", "0x1.51edcc0ddba3ap-1", "0x1.158e336bc9e44p-3", "0x0.0p+0"),
    ("-0x1.95eae7d4ade54p+0", "0x1.51edcc0ddba3ap-1", "0x1.158e336bc9e44p-3", "0x0.0p+0"),
    ("0x1.bef069ec68f2ep-2", "0x1.51edcc0ddba3ap-1", "0x1.158e336bc9e44p-3", "0x0.0p+0"),
    ("-0x1.372c1f4333df1p-1", "0x1.51edcc0ddba3ap-1", "0x1.158e336bc9e44p-3", "0x0.0p+0"),
    ("0x1.9572014ee5284p-1", "0x1.51edcc0ddba3ap-1", "0x1.158e336bc9e44p-3", "0x0.0p+0"),
    ("0x1.d60faa4f5e87ap+0", "0x1.d0cd43728f071p-1", "0x1.faeb9a4403146p-6",
     "0x1.78d24b0fa385dp+0"),
    ("-0x1.685e5e038ee37p+1", "0x1.f1b8731779fb3p-1", "0x1.3b04d4508439ep-6",
     "0x1.caeb7fcec040cp-2"),
    ("-0x1.2fc5cdc800000p-2", "0x1.f0f781c083474p-1", "0x1.d2ba283a89822p-7",
     "0x1.2cc83112e957ap-2"),
    ("0x1.7f88a60718b34p+1", "0x1.04204e13c8c59p+0", "0x1.b609ca69c232ap-8",
     "0x1.9b82f7473b574p-1"),
    ("-0x1.41dfc9fb91cd3p+1", "0x1.ff3964855e179p-1", "0x1.dc0dba72b2b47p-9",
     "0x1.a6a213dce1f46p-1"),
]


# (x1, x2, mu1, sigma1, acquisition) of a 5 + 6 step run on the Branin
# mixture averaging the log gain over 3 theta samples, re-selecting theta
# before the last step: pins the context-by-component layout of the
# multi-theta probe, which one dimension and one component cannot show
GOLDEN_MULTI_THETA_BRANIN_RUN = [
    ("0x1.d258af5bb64acp+1", "0x1.5a23bac2fdb98p+1", "0x1.2623b8f8171e0p-1",
     "0x1.60d38f34b6df2p+0", "0x0.0p+0"),
    ("-0x1.6a1ef210024c4p+1", "0x1.6083823f6085cp+3", "0x1.2623b8f8171e0p-1",
     "0x1.60d38f34b6df2p+0", "0x0.0p+0"),
    ("0x1.11e02fd79e51cp+2", "0x1.0a4c3e9a3eb7fp+2", "0x1.2623b8f8171e0p-1",
     "0x1.60d38f34b6df2p+0", "0x0.0p+0"),
    ("0x1.c0b6d8d97494cp+1", "0x1.91b6c5e6c3782p+1", "0x1.2623b8f8171e0p-1",
     "0x1.60d38f34b6df2p+0", "0x0.0p+0"),
    ("-0x1.b747cb49ff231p+1", "0x1.99388e67b212fp+3", "0x1.2623b8f8171e0p-1",
     "0x1.60d38f34b6df2p+0", "0x0.0p+0"),
    ("0x1.2d9766fd0eb31p+3", "0x1.3cccc01846ce3p+1", "0x1.3cb1adfbd5290p-1",
     "0x1.2f73341dc1374p+0", "0x1.37a751cbd3ef1p-3"),
    ("0x1.4024867a3bd5bp+1", "0x1.20ca3764dbf06p+1", "0x1.15b3d34cef313p+0",
     "0x1.f80acad9c0fd1p-1", "0x1.61a54d0f8f917p-3"),
    ("-0x1.f387147b076f9p+0", "0x1.92fa001768b63p+3", "0x1.5f31bd5b3848fp+1",
     "0x1.7d35b3dfddfd1p-1", "0x1.1ee5f08b80bc9p-2"),
    ("-0x1.202068424e25ep+2", "0x1.7d9860678b5a9p+3", "0x1.2d69a4bb7a4b1p+2",
     "0x1.171ab348ac895p-1", "0x1.3ffdf0b1928d3p-2"),
    ("0x1.06a0debd57be5p+3", "0x1.3cc71975475a5p+1", "0x1.4080efbed7662p+2",
     "0x1.f02e416a28ef0p-2", "0x1.b64e95c0db1acp-4"),
    ("-0x1.0d024980695afp+0", "0x1.49febafa434f2p+3", "0x1.d5896f2c57df7p+2",
     "0x1.0a184b8542c10p+1", "0x1.823daf7e01317p-5"),
]


# (chosen_x, mu1, sigma1, acquisition) of a 5 + 11 step run on x^2 under
# N(0, 1) with the default refits, re-selecting before steps 5 and 10:
# pins the hyperparameter search and the fits that follow it
GOLDEN_REFIT_RUN = [
    ("0x1.6fc062dae41f9p-3", "0x1.f460eb897a660p-1", "0x1.d057f2989c3e1p-8", "0x0.0p+0"),
    ("-0x1.95eae7d4ade54p+0", "0x1.f460eb897a660p-1", "0x1.d057f2989c3e1p-8", "0x0.0p+0"),
    ("0x1.bef069ec68f2ep-2", "0x1.f460eb897a660p-1", "0x1.d057f2989c3e1p-8", "0x0.0p+0"),
    ("-0x1.372c1f4333df1p-1", "0x1.f460eb897a660p-1", "0x1.d057f2989c3e1p-8", "0x0.0p+0"),
    ("0x1.9572014ee5284p-1", "0x1.f460eb897a660p-1", "0x1.d057f2989c3e1p-8", "0x0.0p+0"),
    ("0x1.19e0000000000p+1", "0x1.ffb520db4d5a2p-1", "0x1.bb68b12c5f27fp-11",
     "0x1.9f1f6fd43f4e6p-15"),
    ("-0x1.4000000000000p+2", "0x1.00102f0886351p+0", "0x1.7a109756efa20p-11",
     "0x1.a35d01298605ep-23"),
    ("-0x1.8b316ec203f48p-1", "0x1.0013ac33837f4p+0", "0x1.5f0491d6d5c5cp-11",
     "0x1.341dc9f382223p-24"),
    ("0x1.3600000000000p-1", "0x1.001432461046dp+0", "0x1.401bb8663bd82p-11",
     "0x1.4420fb0b96955p-24"),
    ("0x1.1800000000000p-1", "0x1.00148037e8c9cp+0", "0x1.2dac492a5b13cp-11",
     "0x1.6635d0e947b98p-25"),
    ("-0x1.3d75aaa349379p+0", "0x1.00019fbf92a86p+0", "0x1.ed9b6cf3c4663p-13",
     "0x1.bb4ffa2ee4edep-28"),
    ("0x1.5fd1d5bf7ed60p-2", "0x1.00019c466b090p+0", "0x1.d2f4c3044dcc6p-13",
     "0x1.90685ed065bf9p-28"),
    ("0x1.fc26aab2f6096p-3", "0x1.0001970d5f93dp+0", "0x1.c12432fec0329p-13",
     "0x1.fd544680d357cp-29"),
    ("-0x1.3100c9c0c95dcp+0", "0x1.0001be5d24de1p+0", "0x1.aff684a2fda23p-13",
     "0x1.d95bd5a6fb0cap-29"),
    ("0x1.aa7a4cdc2da3cp-2", "0x1.0001bf61c1ba5p+0", "0x1.9f93a31dffe17p-13",
     "0x1.b1f73ae82b7a5p-29"),
    ("-0x1.246be59ec752ap+0", "0x1.00065a9000000p+0", "0x1.598f77516e584p-13",
     "0x1.5eb3a3f4b88fcp-30"),
]


class TestGoldenHistory:
    def test_pinned_1d_run_is_bit_identical(self):
        """A short pinned run reproduces its recorded history bit for bit.

        Refactors of the acquisition and the loop must keep every
        floating-point operation the loop consumes in the same order.  The
        hex values were recorded with numpy 2.4 and scipy 1.17 on the
        bundled OpenBLAS 0.3.31 (x86-64); another numpy or BLAS build may
        round differently, so re-record them there rather than loosen this.
        """
        mix = GaussianMixture(
            weights=np.array([0.4, 0.6]),
            means=np.array([[-1.0], [1.5]]),
            covs=np.array([[[0.5]], [[1.2]]]),
        )
        theta = pinned(ls=0.5, s2=4.0, noise=1e-4)
        cfg = DesignConfig(n0=3, budget=8, seed=21, pinned_theta=theta)
        history = run(mix, lambda x: float(np.sin(3.0 * x[0]) + x[0] ** 2), cfg)
        got = [
            (r.chosen_x[0].hex(), float(r.mu1).hex(), float(r.sigma1).hex(),
             float(r.acquisition_at_chosen).hex())
            for r in history
        ]
        assert got == GOLDEN_PINNED_RUN

    def test_pinned_2d_branin_run_is_bit_identical(self):
        """The same check in 2-d, on the Branin function and its mixture; same provenance."""
        mix = GaussianMixture(
            weights=np.array([0.5, 0.3, 0.2]),
            means=np.array([[-np.pi, 12.275], [np.pi, 2.275], [9.42478, 2.475]]),
            covs=np.array([np.eye(2)] * 3),
        )
        theta = pinned(ls=4.0, s2=2500.0, noise=1e-4, d=2)
        cfg = DesignConfig(n0=5, budget=8, seed=33, pinned_theta=theta)
        history = run(mix, lambda x: float(branin(x[None, :])[0]), cfg)
        got = [
            (r.chosen_x[0].hex(), r.chosen_x[1].hex(), float(r.mu1).hex(),
             float(r.sigma1).hex(), float(r.acquisition_at_chosen).hex())
            for r in history
        ]
        assert got == GOLDEN_PINNED_BRANIN_RUN

    def test_multi_theta_run_is_bit_identical(self):
        """The multi-theta objective in a full loop, on a benchmark panel seed; same provenance."""
        cfg = DesignConfig(n0=5, budget=10, seed=900, theta_samples=4)

        def black_box(x):
            # the sin3x_plus_xsq benchmark's arithmetic: numpy's sin on an array
            X = x[None, :]
            return float((np.sin(3.0 * X[:, 0]) + X[:, 0] ** 2)[0])

        history = run(std_normal_mix(), black_box, cfg)
        got = [
            (r.chosen_x[0].hex(), float(r.mu1).hex(), float(r.sigma1).hex(),
             float(r.acquisition_at_chosen).hex())
            for r in history
        ]
        assert got == GOLDEN_MULTI_THETA_RUN

    def test_multi_theta_branin_run_is_bit_identical(self):
        """Multi-theta on 3 contexts of the 3-component Branin mixture; same provenance."""
        mix = GaussianMixture(
            weights=np.array([0.5, 0.3, 0.2]),
            means=np.array([[-np.pi, 12.275], [np.pi, 2.275], [9.42478, 2.475]]),
            covs=np.array([np.eye(2)] * 3),
        )
        cfg = DesignConfig(n0=5, budget=11, seed=901, theta_samples=3)
        history = run(mix, lambda x: float(branin(x[None, :])[0]), cfg)
        got = [
            (r.chosen_x[0].hex(), r.chosen_x[1].hex(), float(r.mu1).hex(),
             float(r.sigma1).hex(), float(r.acquisition_at_chosen).hex())
            for r in history
        ]
        assert got == GOLDEN_MULTI_THETA_BRANIN_RUN

    def test_refit_run_is_bit_identical(self):
        """A run that re-selects its hyperparameters twice; same provenance."""
        cfg = DesignConfig(n0=5, budget=16, seed=900)

        def black_box(x):
            # the x_squared benchmark's arithmetic, on an array
            X = x[None, :]
            return float((X[:, 0] ** 2)[0])

        history = run(std_normal_mix(), black_box, cfg)
        got = [
            (r.chosen_x[0].hex(), float(r.mu1).hex(), float(r.sigma1).hex(),
             float(r.acquisition_at_chosen).hex())
            for r in history
        ]
        assert got == GOLDEN_REFIT_RUN


class TestTelescoping:
    """Along a pinned run each step removes exactly the variance it predicted."""

    # relative to sigma1_{k-1}^2
    RTOL = 1e-8

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 2), n0=st.integers(2, 4))
    def test_sigma1_drops_by_the_acquisition(self, seed, d, n0):
        rng = np.random.default_rng(seed)
        gp, mix = random_instance(rng, d=d, n=0)
        coeffs = rng.normal(size=3)

        def black_box(x):
            return float(coeffs[0] * np.sin(2.0 * x[0]) + coeffs[1] * np.sum(x**2)
                         + coeffs[2] * x[-1])

        theta = HyperparameterSample(kernel=gp.kernel, noise=gp.noise)
        cfg = DesignConfig(n0=n0, budget=n0 + 4, seed=seed, pinned_theta=theta)
        history = run(mix, black_box, cfg)
        assert len(history) == n0 + 4
        for prev, rec in zip(history[n0 - 1 :], history[n0:]):
            predicted = prev.sigma1**2 - rec.acquisition_at_chosen
            assert abs(rec.sigma1**2 - predicted) <= self.RTOL * prev.sigma1**2
            assert rec.sigma1 <= prev.sigma1
