"""Exact reference expectations of the built-in problems, against quadrature."""

import json
import math

import numpy as np
import pytest

from gpexpect import benchmarks
from gpexpect.benchmarks import available_benchmarks, benchmark_problem
from gpexpect.cli import main
from gpexpect.inputs import gmm_from_box, pdf_many
from gpexpect.mixtures import GaussianMixture
from gpexpect.oracles import mixture_box, quad_integral_1d, quad_integral_2d

MIXTURES_PER_PROBLEM = 20


def random_mixture_1d(rng):
    k = int(rng.integers(1, 4))
    return GaussianMixture(
        weights=rng.dirichlet(np.ones(k)),
        means=rng.uniform(-2.0, 2.0, size=(k, 1)),
        covs=rng.uniform(0.2, 2.0, size=(k, 1, 1)),
    )


def density_1d(mix):
    """Scalar mixture density in plain floats, cheap enough for adaptive quadrature."""
    comps = [
        (float(w), float(m[0]), float(c[0, 0]))
        for w, m, c in zip(mix.weights, mix.means, mix.covs)
    ]
    return lambda x: sum(
        w * math.exp(-0.5 * (x - m) ** 2 / v) / math.sqrt(2.0 * math.pi * v) for w, m, v in comps
    )


def random_mixture_2d(rng):
    k = int(rng.integers(1, 4))
    factors = rng.normal(scale=0.8, size=(k, 2, 2))
    return GaussianMixture(
        weights=rng.dirichlet(np.ones(k)),
        means=rng.uniform([-5.0, 0.0], [10.0, 15.0], size=(k, 2)),
        covs=factors @ np.swapaxes(factors, 1, 2) + 0.3 * np.eye(2),
    )


@pytest.mark.parametrize("name", ["x_squared", "sin3x_plus_xsq"])
def test_1d_expectation_matches_quadrature(name):
    problem = benchmark_problem(name)
    rng = np.random.default_rng(11)
    for _ in range(MIXTURES_PER_PROBLEM):
        mix = random_mixture_1d(rng)
        density = density_1d(mix)
        lo, hi = mixture_box(mix)
        want, _ = quad_integral_1d(
            lambda x: problem.fn(np.array([[x]]))[0] * density(x), lo[0], hi[0], tol=1e-11
        )
        assert problem.expectation(mix) == pytest.approx(want, rel=1e-9)


def test_branin_expectation_matches_quadrature():
    problem = benchmark_problem("branin_gmm")
    rng = np.random.default_rng(12)
    for _ in range(MIXTURES_PER_PROBLEM):
        mix = random_mixture_2d(rng)
        lo, hi = mixture_box(mix)
        want = quad_integral_2d(lambda P: problem.fn(P) * pdf_many(mix, P), lo, hi)
        assert problem.expectation(mix) == pytest.approx(want, rel=1e-9)


def test_branin_rule_is_hermegauss_and_keeps_the_reference_bits():
    """The 3-node rule of Branin's reference is numpy's ``hermegauss(3)`` within
    1 ulp, and the reference keeps the bits it had when numpy computed the rule."""
    nodes, weights = np.polynomial.hermite_e.hermegauss(3)
    rule = ((benchmarks._HERMITE_NODES, nodes), (benchmarks._HERMITE_WEIGHTS, weights))
    for ours, theirs in rule:
        assert np.all(np.abs(ours - theirs) <= np.spacing(np.abs(theirs)))
    assert benchmark_problem("branin_gmm").reference_q.hex() == "0x1.0e0942fb7999bp+3"


def test_reference_is_the_expectation_of_the_own_mixture():
    for name in available_benchmarks():
        problem = benchmark_problem(name)
        assert problem.reference_q == problem.expectation(problem.mix)
    assert benchmark_problem("x_squared").reference_q == 1.0
    assert benchmark_problem("sin3x_plus_xsq").reference_q == 1.0
    assert benchmark_problem("branin_gmm").reference_q == pytest.approx(
        8.438630572473635, rel=1e-12
    )


@pytest.mark.parametrize(
    "name, mc_mean, mc_std_error",
    # 10M-draw seeded Monte-Carlo references these problems used to carry
    [("sin3x_plus_xsq", 1.0011725, 5.004e-4), ("branin_gmm", 8.4417976, 3.418e-3)],
)
def test_exact_reference_agrees_with_the_former_monte_carlo_one(name, mc_mean, mc_std_error):
    assert abs(benchmark_problem(name).reference_q - mc_mean) < 3.0 * mc_std_error


@pytest.mark.parametrize("name", available_benchmarks())
def test_wrong_dimension_mixture_is_rejected(name):
    problem = benchmark_problem(name)
    d = problem.mix.dim + 1
    wrong = GaussianMixture(weights=np.array([1.0]), means=np.zeros((1, d)), covs=np.eye(d)[None])
    with pytest.raises(ValueError):
        problem.expectation(wrong)


def test_cli_config_mixture_reference_needs_no_monte_carlo(tmp_path, capsys, monkeypatch):
    def no_monte_carlo(*args, **kwargs):
        raise AssertionError("the reference must not be sampled")

    monkeypatch.setattr("gpexpect.oracles.mc_expectation", no_monte_carlo)
    monkeypatch.setattr("gpexpect.benchmarks.mc_expectation", no_monte_carlo, raising=False)
    box = {"lower": [-2.0], "upper": [1.0], "per_dim": 3}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "function": "sin3x_plus_xsq",
        "dimension": 1,
        "uniform_box": box,
        "n0": 3,
        "budget": 4,
        "seed": 7,
        "kernel": {"amplitude_sq": 1.0, "lengthscales": [1.0]},
        "noise_variance": 0.01,
        "output": str(tmp_path / "out"),
    }), encoding="utf-8")
    assert main(["run", str(cfg)]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    mix = gmm_from_box(box["lower"], box["upper"], box["per_dim"])
    assert summary["q_reference"] == benchmark_problem("sin3x_plus_xsq").expectation(mix)
    assert summary["q_reference_provenance"].startswith("analytic")
