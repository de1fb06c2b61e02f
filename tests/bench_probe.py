"""Per-call cost of the acquisition objectives: one probe of m rows, and its gradients.

Run with ``python -m pytest tests/bench_probe.py --benchmark-only``.  The
file name keeps it out of the default test collection.  Two objectives
are timed, each on m = 8, 40 and 320 candidate rows (an ascent round
scores the first 24 trial steps of each start's ladder, 192 rows with
its 8 starts, and all 40, 320 rows, only when a start needs them):

- T = 1: ``acquisition_objective`` of the pinned Branin context;
- T = 4: ``multi_theta_objective`` of four sin(3x) + x^2 contexts.

``objective`` times one call on all m rows; ``gradients_at`` times the
gradients of all m rows from a probe made once, outside the timing.
``kernel_crosses`` times the stacked cross-kernel pass at the (m, n, d, T)
shapes of a pinned Branin ladder call and a four-sample sin(3x) one, and
``maximize`` one whole multi-start ascent on each of the two objectives
from 8 ``mixture_starts``, so the cost of an ascent round can be compared
across commits with ``--benchmark-save`` and ``--benchmark-compare``; a
T = 4 row costs several times a T = 1 one, so the rows a round scores
weigh most there.
The set-up of a decision is timed too: ``mixture_starts`` draws the 8
starts in the default box of the x^2 and the Branin mixtures, next to
``decision``, one whole ``design.step`` of a benchmark loop (seed 900):
the refit workload's (x^2, learned kernel, n0 5, re-selection every 5
steps) from 14 points to 15, which keeps the kernel learned at 10 points,
and the pinned Branin workload's from 7 points to 8, nearly all of it
lockstep ascent rounds; and
``build_context`` builds the pinned Branin context fresh, or with the
kernel-only terms taken over from the context of the step before.
``double_kernel_mean`` times the prior variance of the integral, the
θ-only term a re-selection or a perturbed θ rebuilds, on a random
16-component mixture in 4-d, on the Branin mixture and on the 64-component
``gmm_from_box`` grids of the unit box in 2-d (``per_dim`` 8) and 3-d
(``per_dim`` 4); ``box_gradients_at`` times the gradients of 8 rows of the
S² objective on those grids, with 20 data points, and
``select_hyperparameters`` one whole search on 25 points of x^2.  The
pieces of one search round are timed alone: ``log_evidences`` scores a
stack of log-parameter rows, as a round of 1 start (n = 5, 4 rows with
a 3-entry stencil) or of 6 starts (n = 25, 18 rows) does, in 1-d and
2-d, ``chol_solves`` makes a round's weight solves, (n, rows) = (5, 4),
(15, 16), (25, 18) and (25, 32) as in the refit workload's searches,
``chol_solve`` makes ``fit``'s one weight solve on a C-ordered factor at
n = 25, ``chol_solve_in_place`` the many-column solve of ``posterior_rows``
(a copy of m = 8 or 192 kernel rows solved over itself) on such a factor,
and ``forward_steps`` gives the stencil steps of 4 interior iterates
with 3 log-parameters each, in the box the search builds for 25 points
of x^2.  ``cold_import`` times a fresh interpreter that compiles the
package from source, as one that writes no bytecode does, on a copy of
the package without its ``__pycache__``: ``run`` makes the imports of
``perfbench``'s set-up and builds the Branin problem, what its
``setup_s`` times, and ``cli`` imports ``gpexpect.cli``, the start-up
every CLI call pays.  As in ``perfbench``, the child imports numpy first
and then reads its own CPU clock around the timed statements, so the
interpreter's start and numpy's import stay out of the timing.
"""

import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import gpexpect
from gpexpect._numerics import chol_solve, chol_solve_in_place, chol_solves
from gpexpect.acquisition import (
    acquisition_objective,
    build_context,
    double_kernel_mean,
    multi_theta_objective,
)
from gpexpect.benchmarks import benchmark_problem
from gpexpect.design import _ACQUISITION_STARTS, DesignConfig, _start_state, step
from gpexpect.gp import (
    Dataset,
    HyperparameterSample,
    NoiseModel,
    _forward_steps,
    _log_evidences,
    _search_box,
    fit,
    select_hyperparameters,
)
from gpexpect.inputs import gmm_from_box
from gpexpect.kernels import RbfKernel, kernel_crosses
from gpexpect.mixtures import GaussianMixture, sample
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


@pytest.mark.parametrize("name", sorted(OBJECTIVES))
def test_maximize(benchmark, name):
    objective, mix = OBJECTIVES[name]()
    bounds = default_bounds(mix)
    starts = mixture_starts(mix, bounds, _ACQUISITION_STARTS, seed=900)
    x, _ = benchmark(maximize, objective, bounds, starts)
    assert x.shape == (mix.dim,)


@pytest.mark.parametrize("problem_name", ["x_squared", "branin_gmm"])
def test_mixture_starts(benchmark, problem_name):
    mix = benchmark_problem(problem_name).mix
    bounds = default_bounds(mix)
    starts = benchmark(mixture_starts, mix, bounds, _ACQUISITION_STARTS, 900)
    assert starts.shape == (_ACQUISITION_STARTS, mix.dim)


PINNED_BRANIN = HyperparameterSample(
    kernel=RbfKernel(2500.0, [4.0, 4.0]), noise=NoiseModel(variance=1e-4)
)
# loop: (problem, config, points before the timed step)
DECISIONS = {
    "refit_xsq": ("x_squared", DesignConfig(n0=5, budget=30, seed=900), 14),
    "pinned_branin": (
        "branin_gmm", DesignConfig(n0=5, budget=10, seed=900, pinned_theta=PINNED_BRANIN), 7),
}


@pytest.mark.parametrize("loop", sorted(DECISIONS))
def test_decision(benchmark, loop):
    problem_name, cfg, n = DECISIONS[loop]
    problem = benchmark_problem(problem_name)
    state = _start_state(problem.mix, problem.black_box, cfg)
    while state.data.n < n:
        step(state, problem.black_box)

    def fresh_copy():
        # step appends to the history and replaces the data, kernel and context
        return (replace(state, history=list(state.history)), problem.black_box), {}

    after = benchmark.pedantic(step, setup=fresh_copy, rounds=100)
    assert after.data.n == n + 1 and after.hyper is state.hyper


@pytest.mark.parametrize("theta_terms", ["fresh", "reused"])
def test_build_context(benchmark, theta_terms):
    problem = benchmark_problem("branin_gmm")
    X = sample(problem.mix, 9, seed=900)
    ker, noise = RbfKernel(2500.0, [4.0, 4.0]), NoiseModel(variance=1e-4)
    # the step before, one point fewer, on the same kernel and mixture objects
    before = build_context(fit(Dataset(X=X[:8], y=problem.fn(X[:8])), ker, noise), problem.mix)
    gp = fit(Dataset(X=X, y=problem.fn(X)), ker, noise)
    previous = before if theta_terms == "reused" else None
    ctx = benchmark(build_context, gp, problem.mix, previous)
    assert ctx.sigma1_sq <= before.sigma1_sq


def _random_mixture(d, k, seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(k, d, d))
    return GaussianMixture(
        weights=np.full(k, 1.0 / k),
        means=rng.normal(size=(k, d)),
        covs=A @ A.transpose(0, 2, 1) + 0.1 * np.eye(d),
    )


# the 64-component grids of the unit box in 2-d and 3-d, with a kernel
# whose lengthscales are about the grid's spacing
BOX_GRIDS = {
    "box_d2_k64": lambda: (RbfKernel(1.0, np.full(2, 0.05)), gmm_from_box([0, 0], [1, 1], 8)),
    "box_d3_k64": lambda: (
        RbfKernel(1.0, np.full(3, 0.05)), gmm_from_box([0, 0, 0], [1, 1, 1], 4)),
}

DOUBLE_KERNEL_MEANS = {
    "d4_k16": lambda: (RbfKernel(1.0, np.ones(4)), _random_mixture(4, 16, seed=4)),
    "branin_gmm": lambda: (
        RbfKernel(2500.0, [4.0, 4.0]), benchmark_problem("branin_gmm").mix),
    **BOX_GRIDS,
}


@pytest.mark.parametrize("case", sorted(DOUBLE_KERNEL_MEANS))
def test_double_kernel_mean(benchmark, case):
    ker, mix = DOUBLE_KERNEL_MEANS[case]()
    value = benchmark(double_kernel_mean, ker, mix)
    assert value > 0


@pytest.mark.parametrize("grid", sorted(BOX_GRIDS))
def test_box_gradients_at(benchmark, grid):
    ker, mix = BOX_GRIDS[grid]()
    X = sample(mix, 20, seed=900)
    y = np.sum(np.sin(3.0 * X) + X * X, axis=1)
    objective = acquisition_objective(build_context(fit(Dataset(X=X, y=y), ker,
                                                        NoiseModel(variance=1e-4)), mix))
    rows = sample(mix, 8, seed=8)
    _, gradients_at = objective(rows)
    grad = benchmark(gradients_at, np.arange(8))
    assert grad.shape == rows.shape


def test_select_hyperparameters(benchmark):
    problem = benchmark_problem("x_squared")
    X = sample(problem.mix, 25, seed=900)
    data = Dataset(X=X, y=problem.fn(X))
    # the first search of a process loads scipy.optimize._lbfgsb; time the later ones
    select_hyperparameters(data)
    chosen = benchmark(select_hyperparameters, data)
    assert chosen.noise.variance > 0


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("n, rows", [(5, 4), (25, 18)])
def test_log_evidences(benchmark, n, rows, d):
    rng = np.random.default_rng(n + rows + d)
    X = rng.uniform(-2, 2, size=(n, d))
    data = Dataset(X=X, y=np.sin(X.sum(axis=1)) + X[:, 0] ** 2)
    amplitude_sq = np.exp(rng.uniform(-1, 1, size=rows))
    lengthscales = np.exp(rng.uniform(-1, 1, size=(rows, d)))
    noise = np.exp(rng.uniform(-8, -2, size=rows))
    values = benchmark(_log_evidences, data, amplitude_sq, lengthscales, noise)
    assert np.all(np.isfinite(values))


@pytest.mark.parametrize("n, rows", [(5, 4), (15, 16), (25, 18), (25, 32)])
def test_chol_solves(benchmark, n, rows):
    # the weight solves of a search round: rows Gram factors against y
    rng = np.random.default_rng(n)
    A = rng.normal(size=(rows, n, n))
    chols = np.linalg.cholesky(A @ A.transpose(0, 2, 1) + n * np.eye(n))
    solved = benchmark(chol_solves, chols, rng.normal(size=n))
    assert solved.shape == (rows, n)


def test_chol_solve(benchmark):
    # fit's weight solve on its C-ordered Gram factor at n = 25
    rng = np.random.default_rng(25)
    A = rng.normal(size=(25, 25))
    chol = np.linalg.cholesky(A @ A.T + 25 * np.eye(25))
    solved = benchmark(chol_solve, chol, rng.normal(size=25))
    assert solved.shape == (25,)


def _solve_kernel_rows(chol, kv):
    # posterior_rows' solve for one context: copy the rows, solve their transpose in place
    solved = kv.copy()
    chol_solve_in_place(chol, solved.T)
    return solved


@pytest.mark.parametrize("m", [8, 192])
def test_chol_solve_in_place(benchmark, m):
    # posterior_rows' many-column solve of m kernel rows on a C-ordered factor at n = 25
    rng = np.random.default_rng(m)
    A = rng.normal(size=(25, 25))
    chol = np.linalg.cholesky(A @ A.T + 25 * np.eye(25))
    solved = benchmark(_solve_kernel_rows, chol, rng.normal(size=(m, 25)))
    assert solved.shape == (m, 25)


def test_forward_steps(benchmark):
    problem = benchmark_problem("x_squared")
    X = sample(problem.mix, 25, seed=900)
    lo, hi = _search_box(Dataset(X=X, y=problem.fn(X)))
    z = np.random.default_rng(4).uniform(lo, hi, size=(4, 3))
    h = benchmark(_forward_steps, z, lo, hi)
    assert h.shape == z.shape


COLD_IMPORTS = {
    "run": "from gpexpect import benchmarks, design, gp\n"
    "benchmarks.benchmark_problem('branin_gmm')",
    "cli": "import gpexpect.cli",
}


class _ChildClock:
    """A benchmark timer that advances by the CPU seconds each child reports."""

    def __init__(self):
        self.seconds = 0.0

    def __call__(self) -> float:
        return self.seconds


CHILD_CLOCK = _ChildClock()


@pytest.mark.benchmark(timer=CHILD_CLOCK)
@pytest.mark.parametrize("case", sorted(COLD_IMPORTS))
def test_cold_import(benchmark, case, tmp_path):
    # a copy of the package without its bytecode, in a child that writes none,
    # so every round compiles the package; numpy and the standard library
    # keep their installed bytecode, as in a run
    package = Path(gpexpect.__file__).resolve().parent
    shutil.copytree(package, tmp_path / package.name, ignore=shutil.ignore_patterns("__pycache__"))
    path = os.environ.get("PYTHONPATH")
    src = str(tmp_path)
    env = dict(
        os.environ, PYTHONPATH=src if not path else src + os.pathsep + path,
        PYTHONDONTWRITEBYTECODE="1",
    )
    script = (f"import time\nimport numpy\nstart = time.process_time()\n{COLD_IMPORTS[case]}\n"
              "print(time.process_time() - start)")

    def child():
        # check=True: a failing import raises instead of being timed
        out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                             capture_output=True, text=True)
        CHILD_CLOCK.seconds += float(out.stdout.splitlines()[-1])

    # pedantic: no calibration, which would wait for this clock to tick by itself
    benchmark.pedantic(child, rounds=10, iterations=1)
    assert not list(tmp_path.rglob("__pycache__"))
