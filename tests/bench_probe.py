"""Per-call cost of the acquisition objectives: one probe of m rows, and its gradients.

Run with ``python -m pytest tests/bench_probe.py --benchmark-only``.  The
file name keeps it out of the default test collection.  Two objectives
are timed, each on m = 8, 40 and 320 candidate rows (the optimizer scores
ladders of 40 trial steps per start, 320 with its 8 starts):

- T = 1: ``acquisition_objective`` of the pinned Branin context;
- T = 4: ``multi_theta_objective`` of four sin(3x) + x^2 contexts.

``objective`` times one call on all m rows; ``gradients_at`` times the
gradients of all m rows from a probe made once, outside the timing.
``kernel_crosses`` times the stacked cross-kernel pass at the (m, n, d, T)
shapes of a pinned Branin ladder call and a four-sample sin(3x) one, and
``maximize`` one whole multi-start ascent on the pinned Branin objective
from 8 ``mixture_starts``, so the cost of an ascent round can be compared
across commits with ``--benchmark-save`` and ``--benchmark-compare``.
"""

import numpy as np
import pytest

from gpexpect.acquisition import acquisition_objective, build_context, multi_theta_objective
from gpexpect.benchmarks import benchmark_problem
from gpexpect.design import _ACQUISITION_STARTS
from gpexpect.gp import Dataset, NoiseModel, fit
from gpexpect.kernels import RbfKernel, kernel_crosses
from gpexpect.mixtures import sample
from gpexpect.optimize import default_bounds, maximize, mixture_starts
from gpexpect.validation import perturbed_contexts

ROWS = (8, 40, 320)


def _fitted(problem_name, ker, noise, n=8, seed=900):
    problem = benchmark_problem(problem_name)
    X = sample(problem.mix, n, seed=seed)
    gp = fit(Dataset(X=X, y=problem.fn(X)), ker, NoiseModel(variance=noise))
    return gp, problem.mix


def _pinned_branin():
    # the kernel and noise of the pinned Branin benchmark workload
    gp, mix = _fitted("branin_gmm", RbfKernel(2500.0, [4.0, 4.0]), 1e-4)
    return acquisition_objective(build_context(gp, mix)), mix


def _sin3x_four_thetas():
    gp, mix = _fitted("sin3x_plus_xsq", RbfKernel(1.5, [0.4]), 1e-3)
    contexts = perturbed_contexts(np.random.default_rng(901), gp, mix, 4)
    return multi_theta_objective(contexts), mix


OBJECTIVES = {"T1_pinned_branin": _pinned_branin, "T4_sin3x": _sin3x_four_thetas}


@pytest.mark.parametrize("m", ROWS)
@pytest.mark.parametrize("name", sorted(OBJECTIVES))
def test_objective(benchmark, name, m):
    objective, mix = OBJECTIVES[name]()
    X = sample(mix, m, seed=m)
    values, _ = benchmark(objective, X)
    assert values.shape == (m,)


@pytest.mark.parametrize("m", ROWS)
@pytest.mark.parametrize("name", sorted(OBJECTIVES))
def test_gradients_at(benchmark, name, m):
    objective, mix = OBJECTIVES[name]()
    X = sample(mix, m, seed=m)
    _, gradients_at = objective(X)
    grad = benchmark(gradients_at, np.arange(m))
    assert grad.shape == X.shape


@pytest.mark.parametrize("m, n, d, T", [(184, 8, 2, 1), (240, 8, 1, 4)])
def test_kernel_crosses(benchmark, m, n, d, T):
    rng = np.random.default_rng(m)
    A, B = rng.normal(size=(m, d)), rng.normal(size=(n, d))
    amplitude_sq, lengthscales = rng.uniform(0.5, 2.0, T), rng.uniform(0.3, 1.5, (T, d))
    kv = benchmark(kernel_crosses, A, B, amplitude_sq, lengthscales)
    assert kv.shape == (T, m, n)


def test_maximize(benchmark):
    objective, mix = _pinned_branin()
    bounds = default_bounds(mix)
    starts = mixture_starts(mix, bounds, _ACQUISITION_STARTS, seed=900)
    x, _ = benchmark(maximize, objective, bounds, starts)
    assert x.shape == (2,)
