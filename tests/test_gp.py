"""GP fitting, posterior queries, marginal likelihood, hyperparameter search."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.optimize import minimize, rosen, rosen_der
from scipy.optimize._numdiff import approx_derivative

import gpexpect.gp
from gpexpect.design import DesignConfig
from gpexpect.errors import InsufficientDataError, NumericalConditioningError
from gpexpect.gp import (
    Dataset,
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

    def test_is_the_fit_based_formula_bit_for_bit(self):
        """The one-row probe equals the formula on ``fit``'s factor, jittered fits included."""
        rng = np.random.default_rng(16)
        jittered = 0
        for case in range(200):
            d = int(rng.integers(1, 4))
            n = int(rng.integers(1, 31))
            X = rng.normal(size=(n, d))
            if case % 4 == 0 and n > 1:
                X[1] = X[0]
            data = Dataset(X=X, y=rng.normal(size=n))
            ker = RbfKernel(
                amplitude_sq=float(np.exp(rng.uniform(-3, 3))),
                lengthscales=np.exp(rng.uniform(-3, 3, size=d)),
            )
            noise_variance = 0.0 if case % 4 == 0 else float(np.exp(rng.uniform(-12, 0)))
            noise = NoiseModel(variance=noise_variance)
            jittered += fit(data, ker, noise).jitter > 0
            got = log_marginal_likelihood(data, ker, noise)
            assert got.hex() == reference_log_marginal_likelihood(data, ker, noise).hex()
        assert jittered > 0

    def test_unfactorable_gram_matrix_raises(self, monkeypatch):
        def unfactorable(a):
            raise np.linalg.LinAlgError("forced")

        monkeypatch.setattr(np.linalg, "cholesky", unfactorable)
        data = Dataset(X=np.array([[0.0], [1.0]]), y=np.array([0.5, -0.5]))
        with pytest.raises(NumericalConditioningError, match="even with jitter"):
            log_marginal_likelihood(data, make_kernel(), NoiseModel(variance=0.1))

    def test_dimension_mismatch(self):
        data = Dataset(X=np.zeros((2, 2)), y=np.zeros(2))
        with pytest.raises(ValueError, match="dimension"):
            log_marginal_likelihood(data, make_kernel(d=1), NoiseModel(variance=0.1))


class TestSelectHyperparameters:
    def test_recovers_known_lengthscale(self, monkeypatch):
        monkeypatch.setattr(gpexpect.gp, "_STARTS", 6)
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
            monkeypatch.setattr(gpexpect.gp, "_SEED", seed)
            theta = select_hyperparameters(Dataset(X=X, y=y))
            recovered.append(theta.kernel.lengthscales[0])
        median = float(np.median(recovered))
        assert true_ls / 2 <= median <= true_ls * 2

    def test_constant_data_drives_noise_to_floor(self):
        X = np.linspace(-1, 1, 12).reshape(-1, 1)
        y = np.full(12, 2.5)
        theta = select_hyperparameters(Dataset(X=X, y=y))
        # var(y) = 0 falls back to scale 1.0, so the floor is 1e-8
        assert theta.noise.variance == pytest.approx(1e-8, rel=1e-6)

    def test_deterministic_given_seed(self, monkeypatch):
        monkeypatch.setattr(gpexpect.gp, "_SEED", 5)
        rng = np.random.default_rng(13)
        data = Dataset(X=rng.normal(size=(10, 1)), y=rng.normal(size=10))
        a = select_hyperparameters(data)
        b = select_hyperparameters(data)
        assert np.array_equal(a.kernel.lengthscales, b.kernel.lengthscales)
        assert a.kernel.amplitude_sq == b.kernel.amplitude_sq
        assert a.noise.variance == b.noise.variance

    def test_fixed_noise_is_pinned(self):
        rng = np.random.default_rng(14)
        data = Dataset(X=rng.normal(size=(10, 1)), y=rng.normal(size=10))
        theta = select_hyperparameters(data, fixed_noise=0.123)
        assert theta.noise.variance == 0.123

    @pytest.mark.parametrize("failure", ["raise", "nan"])
    def test_all_candidates_failing_reports_the_count(self, monkeypatch, failure):
        calls = []

        def failing(data, kernel, noise):
            calls.append(kernel)
            if failure == "raise":
                raise NumericalConditioningError("forced")
            return np.nan

        def unfactorable(a):
            raise np.linalg.LinAlgError("forced")

        # every stacked probe fails, so each row is scored alone
        monkeypatch.setattr(np.linalg, "cholesky", unfactorable)
        monkeypatch.setattr(gpexpect.gp, "log_marginal_likelihood", failing)
        monkeypatch.setattr(gpexpect.gp, "_STARTS", 3)
        rng = np.random.default_rng(15)
        data = Dataset(X=rng.normal(size=(6, 1)), y=rng.normal(size=6))
        with pytest.raises(NumericalConditioningError) as caught:
            select_hyperparameters(data)
        assert len(calls) > 3
        assert str(caught.value) == (
            f"no hyperparameter candidate was evaluable: {len(calls)} of {len(calls)} "
            "objective evaluations failed"
        )

    def test_ties_keep_the_earliest_evaluation(self, monkeypatch):
        """On a flat objective every row ties, so start 0's first row, the box center, wins."""
        monkeypatch.setattr(
            gpexpect.gp, "_log_evidences", lambda data, amp, ls, noise: np.zeros(len(amp))
        )
        rng = np.random.default_rng(21)
        data = Dataset(X=rng.normal(size=(6, 2)), y=rng.normal(size=6))
        monkeypatch.setattr(gpexpect.gp, "_STARTS", 1)
        one = select_hyperparameters(data)
        monkeypatch.setattr(gpexpect.gp, "_STARTS", 4)
        several = select_hyperparameters(data)
        assert several.kernel.lengthscales.tolist() == one.kernel.lengthscales.tolist()
        assert several.kernel.amplitude_sq == one.kernel.amplitude_sq
        assert several.noise.variance == one.noise.variance
        assert_allclose(one.kernel.lengthscales, np.ptp(data.X, axis=0) ** 2)
        assert_allclose(one.kernel.amplitude_sq, np.var(data.y))
        assert_allclose(one.noise.variance, 1e-4 * np.var(data.y))

    def test_a_tie_in_a_later_round_keeps_the_earlier_row(self, monkeypatch):
        """A start keeps its first strictly lowest row across rounds, as within one."""
        monkeypatch.setattr(
            gpexpect.gp, "_log_evidences", lambda data, amp, ls, noise: np.zeros(len(amp))
        )

        def two_rounds(fun_and_grad, x0, lo, hi, max_iterations, max_evaluations):
            starts = np.clip(np.asarray(x0, dtype=float), lo, hi)
            owners = np.arange(len(starts))
            fun_and_grad(owners, starts)
            # every row of this round ties every row of the first
            fun_and_grad(owners, 0.5 * (starts + lo))

        monkeypatch.setattr(gpexpect.gp, "_lbfgsb_lockstep", two_rounds)
        rng = np.random.default_rng(22)
        data = Dataset(X=rng.normal(size=(6, 2)), y=rng.normal(size=6))
        theta = select_hyperparameters(data)
        # start 0's first row, the box center
        assert_allclose(theta.kernel.lengthscales, np.ptp(data.X, axis=0) ** 2)
        assert_allclose(theta.kernel.amplitude_sq, np.var(data.y))

    def test_needs_two_points(self):
        with pytest.raises(InsufficientDataError):
            select_hyperparameters(Dataset(X=np.array([[0.0]]), y=np.array([1.0])))

    @pytest.mark.parametrize(
        "kwargs",
        [{"fixed_noise": -5e-324}, {"fixed_noise": np.float32("nan")}, {"fixed_noise": -1.0},
         {"fixed_noise": np.nan}, {"fixed_noise": np.inf}, {"fixed_noise": -np.inf}],
    )
    def test_config_rejects_bad_values(self, kwargs):
        message = "fixed_noise must be finite and >= 0"
        with pytest.raises(ValueError, match=message):
            DesignConfig(n0=2, budget=4, seed=0, **kwargs)
        rng = np.random.default_rng(16)
        data = Dataset(X=rng.normal(size=(6, 1)), y=rng.normal(size=6))
        with pytest.raises(ValueError, match=message):
            select_hyperparameters(data, **kwargs)

    def test_config_accepts_edge_values(self):
        assert DesignConfig(n0=2, budget=4, seed=0, fixed_noise=0.0).fixed_noise == 0.0
        rng = np.random.default_rng(16)
        data = Dataset(X=rng.normal(size=(6, 1)), y=rng.normal(size=6))
        assert select_hyperparameters(data, fixed_noise=0.0).noise.variance == 0.0


def reference_log_marginal_likelihood(data, ker, noise):
    """The log evidence as computed on ``fit``'s factor before the stacked probe."""
    gp = gpexpect.gp.fit(data, ker, noise)
    log_det_half = float(np.sum(np.log(np.diag(gp.gram_factor))))
    return float(
        -0.5 * data.y @ gp.weights - log_det_half - 0.5 * data.n * np.log(2 * np.pi)
    )


def reference_search(data, seed, fixed_noise):
    """The search as it was before the stacked probe: one objective call per point,
    with the gradient estimated by L-BFGS-B through scipy's finite differences,
    its random starts drawn with ``seed``.

    Returns ``(theta, evaluations, failed)`` with ``theta`` the best
    ``(amplitude_sq, lengthscales, noise)``, or None if nothing was finite.
    """
    d = data.dim
    span = np.ptp(data.X, axis=0)
    span = np.where(span > 0, span, 1.0)
    var_y = float(np.var(data.y))
    scale_y = var_y if var_y > 0 else 1.0
    lo = [np.log(gpexpect.gp._LENGTHSCALE_BOX[0] * span**2),
          [np.log(gpexpect.gp._AMPLITUDE_BOX[0] * scale_y)]]
    hi = [np.log(gpexpect.gp._LENGTHSCALE_BOX[1] * span**2),
          [np.log(gpexpect.gp._AMPLITUDE_BOX[1] * scale_y)]]
    if fixed_noise is None:
        lo.append([np.log(gpexpect.gp._NOISE_BOX[0] * scale_y)])
        hi.append([np.log(gpexpect.gp._NOISE_BOX[1] * scale_y)])
    lo, hi = np.concatenate(lo), np.concatenate(hi)

    def unpack(z):
        ker = RbfKernel(amplitude_sq=float(np.exp(z[d])), lengthscales=np.exp(z[:d]))
        nv = fixed_noise if fixed_noise is not None else float(np.exp(z[d + 1]))
        return ker, NoiseModel(variance=nv)

    best = {"value": np.inf, "z": None}
    counts = {"evaluations": 0, "failed": 0, "per_start": []}

    def objective(z):
        counts["evaluations"] += 1
        try:
            val = -reference_log_marginal_likelihood(data, *unpack(z))
        except (NumericalConditioningError, FloatingPointError, ValueError):
            val = np.nan
        if not np.isfinite(val):
            counts["failed"] += 1
            return 1e12
        if val < best["value"]:
            best["value"] = val
            best["z"] = z.copy()
        return val

    rng = np.random.default_rng(seed)
    starts = [0.5 * (lo + hi)] + [rng.uniform(lo, hi) for _ in range(gpexpect.gp._STARTS - 1)]
    for z0 in starts:
        res = minimize(objective, z0, method="L-BFGS-B", bounds=list(zip(lo, hi)),
                       options={"maxiter": gpexpect.gp._MAX_ITERATIONS})
        counts["per_start"].append(res.nfev)
    theta = None
    if best["z"] is not None:
        ker, noise = unpack(best["z"])
        theta = (ker.amplitude_sq, ker.lengthscales.tolist(), noise.variance)
    return theta, counts["evaluations"], counts["failed"], counts["per_start"]


class TestSearchMatchesReference:
    """The stacked search makes the reference search's evaluations, bit for bit."""

    def test_forward_steps_are_scipys_two_point_stencil(self):
        """``z + h_i e_i`` are the points scipy 1.17's 2-point rule evaluates, as
        L-BFGS-B calls it, on the large-|z| fallback step, on a bound and in a
        box narrower than the step."""
        rng = np.random.default_rng(19)
        for case in range(300):
            lo = rng.uniform(-10, 0, size=3)
            hi = lo + np.where(rng.random(3) < 0.1, 5e-9, rng.uniform(1e-3, 10, size=3))
            z = rng.uniform(lo, hi)
            z = np.where(rng.random(3) < 0.2, hi, np.where(rng.random(3) < 0.2, lo, z))
            if case % 10 == 0:
                z[0], lo[0], hi[0] = 1e9, -2e9, 2e9
            points = []
            approx_derivative(lambda x: points.append(x.copy()) or 0.0, z,
                              method="2-point", abs_step=gpexpect.gp._FD_STEP,
                              f0=0.0, bounds=(lo, hi))
            h = gpexpect.gp._forward_steps(z, lo, hi)
            for i, x in enumerate(points):
                assert x[i].hex() == (z[i] + h[i]).hex()

    @staticmethod
    def check(data, seed, fixed_noise=None):
        """Run both searches from the random starts of ``seed``; returns the stacked
        search's probe values and steps.

        The lockstep search makes one probe per round, so as many probes as
        the start with the most evaluated iterates, each iterate being
        ``p + 1`` of the reference's evaluations.
        """
        theta, evaluations, failed, per_start = reference_search(data, seed, fixed_noise)
        log = {"values": [], "steps": []}
        probe, steps = gpexpect.gp._log_evidences, gpexpect.gp._forward_steps

        def logged_probe(*args, **kwargs):
            values = probe(*args, **kwargs)
            log["values"].append(values)
            return values

        def logged_steps(z, lo, hi):
            h = steps(z, lo, hi)
            log["steps"].append((z.copy(), h, hi))
            return h

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gpexpect.gp, "_log_evidences", logged_probe)
            mp.setattr(gpexpect.gp, "_forward_steps", logged_steps)
            mp.setattr(gpexpect.gp, "_SEED", seed)
            if theta is None:
                with pytest.raises(NumericalConditioningError):
                    select_hyperparameters(data, fixed_noise)
            else:
                got = select_hyperparameters(data, fixed_noise)
                assert (
                    got.kernel.amplitude_sq, got.kernel.lengthscales.tolist(),
                    got.noise.variance,
                ) == theta
        values = np.concatenate(log["values"])
        assert values.size == evaluations
        assert int(np.sum(~np.isfinite(values))) == failed
        p = data.dim + (2 if fixed_noise is None else 1)
        assert len(log["values"]) == max(per_start) // (p + 1)
        return log

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 3),
        n=st.integers(2, 30),
        fixed_noise=st.sampled_from([None, None, 0.0, 1e-3, 0.5]),
        starts=st.integers(1, 8),
    )
    def test_random_data(self, seed, d, n, fixed_noise, starts):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, d))
        y = np.sin(2.0 * X.sum(axis=1)) + 0.1 * rng.normal(size=n)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gpexpect.gp, "_STARTS", starts)
            self.check(Dataset(X=X, y=y), seed % 1000, fixed_noise)

    def test_iterate_on_an_upper_bound_flips_the_step(self, monkeypatch):
        monkeypatch.setattr(gpexpect.gp, "_STARTS", 2)
        X = np.linspace(-1, 1, 6).reshape(-1, 1)
        log = self.check(Dataset(X=X, y=X[:, 0] ** 2), 0)
        assert any(np.any((z == hi) & (h < 0)) for z, h, hi in log["steps"])

    def test_duplicate_noiseless_inputs_use_the_jitter_fallback(self, monkeypatch):
        fits = []

        def counted(data, ker, noise):
            fits.append(fit(data, ker, noise).jitter)
            return log_marginal_likelihood(data, ker, noise)

        monkeypatch.setattr(gpexpect.gp, "log_marginal_likelihood", counted)
        monkeypatch.setattr(gpexpect.gp, "_STARTS", 2)
        rng = np.random.default_rng(17)
        X = rng.normal(size=(8, 2))
        X[3] = X[0]
        X[5] = X[1]
        data = Dataset(X=X, y=np.cos(X.sum(axis=1)))
        self.check(data, 1, fixed_noise=0.0)
        assert any(j > 0 for j in fits)

    def test_stencil_with_some_failed_rows(self, monkeypatch):
        # a Gram matrix whose (1, 0) entry has an odd last bit fails to
        # factor at every jitter, so rows of one stencil fail independently
        cholesky = np.linalg.cholesky

        def picky(a):
            if np.any(np.asarray(a)[..., 1, 0].view(np.int64) & 1):
                raise np.linalg.LinAlgError("forced")
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", picky)
        monkeypatch.setattr(gpexpect.gp, "_STARTS", 2)
        rng = np.random.default_rng(18)
        X = rng.normal(size=(7, 1))
        data = Dataset(X=X, y=np.sin(3.0 * X[:, 0]))
        log = self.check(data, 2)
        assert any(0 < np.sum(~np.isfinite(v)) < v.size for v in log["values"])


class TestLogEvidencesFallback:
    """A stack that does not factor is scored row by row by ``log_marginal_likelihood``."""

    @staticmethod
    def rows(seed, k=24, d=2, n=7):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, d))
        data = Dataset(X=X, y=np.sin(X.sum(axis=1)))
        amplitude_sq = np.exp(rng.uniform(-2, 2, size=k))
        lengthscales = np.exp(rng.uniform(-2, 2, size=(k, d)))
        noise = np.exp(rng.uniform(-8, -1, size=k))
        return data, amplitude_sq, lengthscales, noise

    @staticmethod
    def alone(data, amplitude_sq, lengthscales, noise):
        """Each row's ``log_marginal_likelihood``, NaN where it raises."""
        values = []
        for a, ls, nv in zip(amplitude_sq, lengthscales, noise):
            try:
                ker = RbfKernel(amplitude_sq=a, lengthscales=ls)
                values.append(log_marginal_likelihood(data, ker, NoiseModel(variance=nv)))
            except NumericalConditioningError:
                values.append(np.nan)
        return values

    def test_rows_read_log_marginal_likelihood_alone(self, monkeypatch):
        """One unfactorable row sends every row to ``log_marginal_likelihood``; the
        rows that fail alone read NaN, the others their stacked bits."""
        cholesky = np.linalg.cholesky

        def picky(a):
            if np.any(np.asarray(a)[..., 1, 0].view(np.int64) & 1):
                raise np.linalg.LinAlgError("forced")
            return cholesky(a)

        data, amplitude_sq, lengthscales, noise = self.rows(20)
        stacked = gpexpect.gp._log_evidences(data, amplitude_sq, lengthscales, noise)
        scored = []

        def counted(data, ker, noise):
            scored.append(ker)
            return log_marginal_likelihood(data, ker, noise)

        monkeypatch.setattr(np.linalg, "cholesky", picky)
        alone = self.alone(data, amplitude_sq, lengthscales, noise)
        monkeypatch.setattr(gpexpect.gp, "log_marginal_likelihood", counted)
        values = gpexpect.gp._log_evidences(data, amplitude_sq, lengthscales, noise)
        gram_10 = np.array([
            kernel_matrix(data.X, RbfKernel(amplitude_sq=a, lengthscales=ls))[1, 0]
            for a, ls in zip(amplitude_sq, lengthscales)
        ])
        odd = (gram_10.view(np.int64) & 1).astype(bool)
        assert 0 < odd.sum() < len(odd)
        assert len(scored) == len(odd)
        assert np.array_equal(np.isnan(values), odd)
        assert [v.hex() for v in values] == [v.hex() for v in alone]
        assert [v.hex() for v in values[~odd]] == [v.hex() for v in stacked[~odd]]

    def test_floating_point_error_in_the_stack(self, monkeypatch):
        """A stacked Cholesky that raises FloatingPointError takes the same fallback."""
        cholesky = np.linalg.cholesky

        def stack_overflows(a):
            if np.ndim(a) == 3:
                raise FloatingPointError("forced")
            return cholesky(a)

        data, amplitude_sq, lengthscales, noise = self.rows(21)
        stacked = gpexpect.gp._log_evidences(data, amplitude_sq, lengthscales, noise)
        alone = self.alone(data, amplitude_sq, lengthscales, noise)
        monkeypatch.setattr(np.linalg, "cholesky", stack_overflows)
        values = gpexpect.gp._log_evidences(data, amplitude_sq, lengthscales, noise)
        assert np.all(np.isfinite(values))
        assert [v.hex() for v in values] == [v.hex() for v in alone]
        assert [v.hex() for v in values] == [v.hex() for v in stacked]


def _rosen_rows(owners, X):
    """Rosenbrock values and gradients per row, each row computed on its own."""
    return np.array([rosen(x) for x in X]), np.array([rosen_der(x) for x in X])


class TestLbfgsbLockstep:
    """The lockstep driver makes scipy's ``minimize(jac=True, method="L-BFGS-B")`` evaluations."""

    LO = np.array([-2.0, -1.5, -1.0])
    HI = np.array([2.0, 1.5, 3.0])
    STARTS = np.array([
        [-1.2, 1.0, 0.5],   # interior
        [2.0, -1.5, 0.0],   # on bounds
        [0.3, 0.2, 0.1],
        [-2.0, 1.5, 3.0],   # on the opposite bounds
    ])

    @pytest.mark.parametrize(
        "max_iterations, max_evaluations, stop",
        [(200, 1000, "CONVERGENCE"), (5, 1000, "ITERATIONS REACHED LIMIT"),
         (200, 7, "EVALUATIONS EXCEEDS LIMIT")],
    )
    def test_matches_minimize(self, max_iterations, max_evaluations, stop):
        lockstep = [[] for _ in self.STARTS]

        def logged(owners, X):
            for i, x in zip(owners, X):
                lockstep[i].append([v.hex() for v in x])
            return _rosen_rows(owners, X)

        got = gpexpect.gp._lbfgsb_lockstep(
            logged, self.STARTS, self.LO, self.HI, max_iterations, max_evaluations
        )
        messages = []
        for i, x0 in enumerate(self.STARTS):
            points = []

            def fun(x):
                points.append([v.hex() for v in x])
                return rosen(x), rosen_der(x)

            res = minimize(fun, x0, jac=True, method="L-BFGS-B",
                           bounds=list(zip(self.LO, self.HI)),
                           options={"maxiter": max_iterations, "maxfun": max_evaluations})
            x, evaluations, iterations = got[i]
            assert lockstep[i] == points
            assert [v.hex() for v in x] == [v.hex() for v in res.x]
            assert (evaluations, iterations) == (res.nfev, res.nit)
            messages.append(res.message)
        assert any(stop in m for m in messages)
        if stop == "CONVERGENCE":
            # starts finish in different rounds
            assert len({len(points) for points in lockstep}) > 1

    def test_start_outside_the_box_is_clipped(self):
        x0 = np.array([[3.0, -4.0, 0.0]])
        (x, evaluations, iterations), = gpexpect.gp._lbfgsb_lockstep(
            _rosen_rows, x0, self.LO, self.HI, 200, 1000
        )
        res = minimize(lambda z: (rosen(z), rosen_der(z)), x0[0], jac=True,
                       method="L-BFGS-B", bounds=list(zip(self.LO, self.HI)))
        assert [v.hex() for v in x] == [v.hex() for v in res.x]
        assert (evaluations, iterations) == (res.nfev, res.nit)
