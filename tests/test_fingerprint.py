"""Panel fingerprints: one SHA-256 per benchmark panel over every field of every record.

Each panel is one pass over a ``perfbench/run.py`` workload's fixed
seeds, with its n0 of 5, budget, pinned kernel and ``theta_samples``;
a test reads that file and checks that the panels still follow it.
The digest hashes ``float.hex`` of every ``RunRecord`` field, the
iteration and each coordinate of ``chosen_x`` included, so it changes
with any bit of any history.  A change that keeps every history
byte-identical keeps these digests; one that moves a history must
re-record them and say why.  Beside the digests, the ascent rounds over
the pinned panel, and the rounds among them that score the whole step
ladders, are counted and pinned, and so are the hyperparameter search's
stacked probes over the two panels that learn their kernel and the rows
they score, so wasted rounds or rows show without any timing; and each
pinned and multi-theta decision is maximized again with the relative
stop off to bound what the stop costs.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path
from unittest import mock

import pytest

from gpexpect import design, gp, optimize
from gpexpect.benchmarks import benchmark_problem
from gpexpect.design import DesignConfig, run
from gpexpect.gp import HyperparameterSample, NoiseModel
from gpexpect.kernels import RbfKernel

PERFBENCH_RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"
N0 = 5
PINNED_BRANIN = HyperparameterSample(
    kernel=RbfKernel(amplitude_sq=2500.0, lengthscales=(4.0, 4.0)),
    noise=NoiseModel(variance=1e-4),
)

# workload: (problem, budget, seeds, pinned_theta, theta_samples, digest)
PANELS = {
    "pinned_branin_2d": (
        "branin_gmm", 10, range(900, 906), PINNED_BRANIN, 1,
        "050d2b3350189d67bfb922df32d1208ce56e4c8e3c6321034c0e7e0d6e961ce9",
    ),
    "refit_xsq_1d": (
        "x_squared", 30, range(900, 910), None, 1,
        "36fcc7f82931c24cb44d4a38fb181bc41697e8f564b6d400741378aef04754ba",
    ),
    "multitheta_sin3x_1d": (
        "sin3x_plus_xsq", 10, range(900, 903), None, 4,
        "fd4883968b6daea0090e2ba4bb14371eb6a5454a8d60c23779f31781504c2a6d",
    ),
}


# over one pass of the pinned_branin_2d panel, maximize calls the objective once on
# each decision's starts, once per ascent round on the first rungs of its ladders,
# and once more in each round that scores the whole ladders.  A stop rule that lets
# the rounds run on after they stop gaining moves the first count, a change to how
# a round scores its ladders the second
PINNED_BRANIN_ASCENT_ROUNDS = 1312
PINNED_BRANIN_WHOLE_LADDER_ROUNDS = 4

# over one pass of each panel that learns its kernel, the calls of the search's
# stacked probe gp._log_evidences and the rows they score: a change that scores
# extra rows, or drops some, moves these
SEARCH_PROBES = {"refit_xsq_1d": (4962, 87072), "multitheta_sin3x_1d": (155, 2932)}


def panel_records(problem_name, budget, seeds, pinned_theta, theta_samples):
    """Every record of one pass over ``seeds``, seed by seed."""
    problem = benchmark_problem(problem_name)
    for seed in seeds:
        cfg = DesignConfig(
            n0=N0, budget=budget, seed=seed, pinned_theta=pinned_theta,
            theta_samples=theta_samples,
        )
        yield from run(problem.mix, problem.black_box, cfg)


def panel_digest(problem_name, budget, seeds, pinned_theta, theta_samples) -> str:
    """SHA-256 over ``float.hex`` of every field of every record of one pass over ``seeds``."""
    digest = hashlib.sha256()
    for rec in panel_records(problem_name, budget, seeds, pinned_theta, theta_samples):
        fields = [rec.iteration, *rec.chosen_x.tolist(), rec.observed_y, rec.mu1,
                  rec.sigma1, rec.acquisition_at_chosen]
        digest.update(" ".join(float.hex(float(v)) for v in fields).encode() + b"\n")
    return digest.hexdigest()


@pytest.mark.parametrize("workload", sorted(PANELS))
def test_panel_history_is_unchanged(workload):
    *config, expected = PANELS[workload]
    assert panel_digest(*config) == expected


def run_panel_through(workload, maximize_in_design):
    """One pass over the panel of ``workload`` with each step's ``maximize`` call replaced.

    ``maximize_in_design(objective, bounds, starts)`` stands in for
    ``maximize`` and returns what it returns.  Returns the number of steps.
    """
    *config, _ = PANELS[workload]
    with mock.patch.object(design, "maximize", maximize_in_design):
        return sum(rec.iteration >= N0 for rec in panel_records(*config))


def test_maximize_objective_calls_over_the_pinned_panel_are_unchanged():
    # per maximize call, ("value", rows) per objective call and ("gradient", rows) per
    # gradients_at call, in order
    logs = []

    def counted(objective, bounds, starts):
        log = []
        logs.append(log)

        def logging(X):
            log.append(("value", len(X)))
            values, gradients_at = objective(X)

            def logged_gradients(idx):
                log.append(("gradient", len(idx)))
                return gradients_at(idx)

            return values, logged_gradients

        return optimize.maximize(logging, bounds, starts)

    run_panel_through("pinned_branin_2d", counted)
    rounds = whole_ladder_rounds = 0
    for log in logs:
        # the starts' call, then each round's gradients and its first-rungs call, and
        # straight after that, in a round that needs them, the whole ladders
        assert log[0][0] == "value"
        for (kind, rows), (kind_before, rows_before) in zip(log[1:], log):
            if kind == "value" and kind_before == "gradient":
                rounds += 1
            elif kind == "value":
                whole_ladder_rounds += 1
                assert rows * optimize._FIRST_RUNGS == rows_before * optimize.STEP_FRACTIONS.size
    assert rounds == PINNED_BRANIN_ASCENT_ROUNDS
    assert whole_ladder_rounds == PINNED_BRANIN_WHOLE_LADDER_ROUNDS


@pytest.mark.parametrize("workload", sorted(SEARCH_PROBES))
def test_search_probes_over_the_learned_panels_are_unchanged(workload):
    calls = rows = 0
    log_evidences = gp._log_evidences

    def counted(data, amplitude_sq, lengthscales, noise):
        nonlocal calls, rows
        calls += 1
        rows += len(amplitude_sq)
        return log_evidences(data, amplitude_sq, lengthscales, noise)

    *config, _ = PANELS[workload]
    with mock.patch.object(gp, "_log_evidences", counted):
        for _ in panel_records(*config):
            pass
    assert (calls, rows) == SEARCH_PROBES[workload]


@pytest.mark.parametrize("workload", ["pinned_branin_2d", "multitheta_sin3x_1d"])
def test_the_relative_stop_keeps_each_decision_value_within_1e_8(workload, monkeypatch):
    # each decision's ascent again with the relative stop off, from the same starts
    values = []

    def with_and_without_the_rule(objective, bounds, starts):
        x, value = optimize.maximize(objective, bounds, starts)
        with monkeypatch.context() as patch:
            patch.setattr(optimize, "_RELATIVE_TOLERANCE", 0.0)
            values.append((value, optimize.maximize(objective, bounds, starts)[1]))
        return x, value

    steps = run_panel_through(workload, with_and_without_the_rule)
    assert len(values) == steps > 0
    for value, without in values:
        assert abs(value - without) <= 1e-8 * abs(without)


def perfbench_run():
    """``perfbench/run.py`` loaded by path as a module of its own; it imports no package code."""
    spec = importlib.util.spec_from_file_location("_perfbench_run", PERFBENCH_RUN)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look up the module of a class they process
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_panels_follow_the_benchmark_workloads():
    bench = perfbench_run()
    assert set(PANELS) == set(bench.WORKLOADS)
    assert N0 == bench.N0
    for name, (problem, budget, seeds, pinned_theta, theta_samples, _) in PANELS.items():
        workload = bench.WORKLOADS[name]
        assert (problem, budget, tuple(seeds), theta_samples) == (
            workload.problem, workload.budget, workload.panel, workload.theta_samples
        ), name
        assert (pinned_theta is not None) == workload.pinned, name
        if workload.pinned:
            theta = bench.BRANIN_THETA
            assert pinned_theta.kernel.amplitude_sq == theta["amplitude_sq"]
            assert pinned_theta.kernel.lengthscales.tolist() == list(theta["lengthscales"])
            assert pinned_theta.noise.variance == theta["noise"]
