"""Panel fingerprints: one SHA-256 per benchmark panel over every field of every record.

Each panel is one pass over a ``perfbench/run.py`` workload's fixed
seeds, with its n0 of 5, budget, pinned kernel and ``theta_samples``;
a test reads that file and checks that the panels still follow it.
The digest hashes ``float.hex`` of every ``RunRecord`` field, the
iteration and each coordinate of ``chosen_x`` included, so it changes
with any bit of any history.  A change that keeps every history
byte-identical keeps these digests; one that moves a history must
re-record them and say why.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

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
        "7cf1e59e6f1fcec3b2b19e0f22d9ea8f15a6e448706d6010062814aa07ea3dfd",
    ),
    "refit_xsq_1d": (
        "x_squared", 30, range(900, 910), None, 1,
        "36fcc7f82931c24cb44d4a38fb181bc41697e8f564b6d400741378aef04754ba",
    ),
    "multitheta_sin3x_1d": (
        "sin3x_plus_xsq", 10, range(900, 903), None, 4,
        "4f413828aef9803abdb96ded4a5e40770053034757f6d0b03ada0ba31077a063",
    ),
}


def panel_digest(problem_name, budget, seeds, pinned_theta, theta_samples) -> str:
    """SHA-256 over ``float.hex`` of every field of every record of one pass over ``seeds``."""
    problem = benchmark_problem(problem_name)
    digest = hashlib.sha256()
    for seed in seeds:
        cfg = DesignConfig(
            n0=N0, budget=budget, seed=seed, pinned_theta=pinned_theta,
            theta_samples=theta_samples,
        )
        for rec in run(problem.mix, problem.black_box, cfg):
            fields = [rec.iteration, *rec.chosen_x.tolist(), rec.observed_y, rec.mu1,
                      rec.sigma1, rec.acquisition_at_chosen]
            digest.update(" ".join(float.hex(float(v)) for v in fields).encode() + b"\n")
    return digest.hexdigest()


@pytest.mark.parametrize("workload", sorted(PANELS))
def test_panel_history_is_unchanged(workload):
    *config, expected = PANELS[workload]
    assert panel_digest(*config) == expected


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
