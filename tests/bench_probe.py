"""Per-call cost of the acquisition objectives: one probe of m rows, and its gradients.

Run with ``python -m pytest tests/bench_probe.py --benchmark-only``.  The
file name keeps it out of the default test collection.  Two objectives
are timed, each on m = 8, 40 and 320 candidate rows (the optimizer scores
ladders of 40 trial steps per start, 320 with its 8 default starts):

- T = 1: ``acquisition_objective`` of the pinned Branin context;
- T = 4: ``multi_theta_objective`` of four sin(3x) + x^2 contexts.

``objective`` times one call on all m rows; ``gradients_at`` times the
gradients of all m rows from a probe made once, outside the timing.
"""

import numpy as np
import pytest

from gpexpect.acquisition import acquisition_objective, build_context, multi_theta_objective
from gpexpect.benchmarks import benchmark_problem
from gpexpect.gp import Dataset, NoiseModel, fit
from gpexpect.kernels import RbfKernel
from gpexpect.mixtures import sample
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
