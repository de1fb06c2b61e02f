"""Built-in benchmark black boxes with exact reference expectations.

Each problem bundles a vectorized function, an input mixture, and a
closed-form ``expectation(mix)`` of q = E[f(x)] that is exact under any
Gaussian mixture of the problem's dimension, with one provenance line
saying how.  The desk-scale comparison of acquisition-driven sampling
against random sampling runs on these.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gpexpect.mixtures import GaussianMixture

# s (1 - t) of the Branin cosine term, with s = 10 and t = 1 / (8 pi)
_BRANIN_COS = 10.0 * (1.0 - 1.0 / (8.0 * np.pi))
# the 3-node probabilists' Gauss-Hermite rule, with the bits that
# np.polynomial.hermite_e.hermegauss(3) returns; the exact forms, +-sqrt(3)
# and sqrt(2 pi) / 6, 2 sqrt(2 pi) / 3, differ in the last bits and move q
_HERMITE_NODES = np.array([-1.7320508075688774, 0.0, 1.7320508075688774])
_HERMITE_WEIGHTS = np.array([0.41777137910516654, 1.6710855164206673, 0.41777137910516654])


@dataclass(frozen=True, eq=False)
class BenchmarkProblem:
    """A named black box, its input mixture, and the reference q."""

    name: str
    fn: object  # vectorized: (m, d) array -> (m,) values
    expectation: object  # exact E[fn(x)] under any mixture of fn's dimension
    mix: GaussianMixture
    reference_q: float  # expectation(mix)
    provenance: str

    def black_box(self, x) -> float:
        """Scalar view of ``fn`` for the sequential loop."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return float(self.fn(x[None, :])[0])


def _standard_normal_1d() -> GaussianMixture:
    return GaussianMixture(
        weights=np.array([1.0]), means=np.array([[0.0]]), covs=np.array([[[1.0]]])
    )


def _x_squared(X):
    return X[:, 0] ** 2


def _sin3x_plus_xsq(X):
    return np.sin(3.0 * X[:, 0]) + X[:, 0] ** 2


def _branin_bracket(X):
    """x2 - b x1^2 + c x1 - r with b = 5.1 / (4 pi^2), c = 5 / pi, r = 6."""
    x1, x2 = X[:, 0], X[:, 1]
    return x2 - 5.1 / (4.0 * np.pi**2) * x1**2 + 5.0 / np.pi * x1 - 6.0


def branin(X):
    """The Branin function on (m, 2) input rows (a = 1, s = 10)."""
    return _branin_bracket(X) ** 2 + _BRANIN_COS * np.cos(X[:, 0]) + 10.0


def _branin_mixture() -> GaussianMixture:
    # components centered on the three Branin minima
    return GaussianMixture(
        weights=np.array([0.5, 0.3, 0.2]),
        means=np.array([[-np.pi, 12.275], [np.pi, 2.275], [9.42478, 2.475]]),
        covs=np.array([np.diag([1.0, 1.0])] * 3),
    )


def gaussian_second_moment(mix: GaussianMixture) -> float:
    """E[x^2] under a 1-d mixture: sum of weights * (mean^2 + variance)."""
    if mix.dim != 1:
        raise ValueError("second-moment reference is 1-d only")
    return float(np.sum(mix.weights * (mix.means[:, 0] ** 2 + mix.covs[:, 0, 0])))


def sin3x_plus_xsq_expectation(mix: GaussianMixture) -> float:
    """E[sin(3x) + x^2] under a 1-d mixture.

    E[sin(3x)] under N(mu, var) is exp(-9 var / 2) sin(3 mu).
    """
    sin_part = np.exp(-4.5 * mix.covs[:, 0, 0]) * np.sin(3.0 * mix.means[:, 0])
    return gaussian_second_moment(mix) + float(np.sum(mix.weights * sin_part))


def branin_expectation(mix: GaussianMixture) -> float:
    """E[branin(x)] under a 2-d mixture.

    The squared bracket is a degree-4 polynomial, which a 3-node-per-axis
    probabilists' Gauss-Hermite tensor rule integrates exactly once each
    component is mapped to standard normal by its Cholesky factor (Golub &
    Welsch, Math. Comp. 1969).  E[cos x1] under N(mu, C) is
    exp(-C_11 / 2) cos(mu_1).
    """
    if mix.dim != 2:
        raise ValueError("Branin reference is 2-d only")
    grid = np.meshgrid(_HERMITE_NODES, _HERMITE_NODES, indexing="ij")
    z = np.stack(grid, axis=-1).reshape(-1, 2)
    z_weights = np.outer(_HERMITE_WEIGHTS, _HERMITE_WEIGHTS).ravel() / (2.0 * np.pi)
    X = mix.means[:, None, :] + z @ np.swapaxes(np.linalg.cholesky(mix.covs), 1, 2)
    squares = _branin_bracket(X.reshape(-1, 2)).reshape(mix.n_components, -1) ** 2
    cos_part = np.exp(-0.5 * mix.covs[:, 0, 0]) * np.cos(mix.means[:, 0])
    per_component = squares @ z_weights + _BRANIN_COS * cos_part + 10.0
    return float(mix.weights @ per_component)


# name -> (fn, input mixture, exact expectation, provenance)
_PROBLEMS = {
    "x_squared": (
        _x_squared, _standard_normal_1d, gaussian_second_moment,
        "analytic: E[x^2] = sum_i w_i (mu_i^2 + var_i)",
    ),
    "sin3x_plus_xsq": (
        _sin3x_plus_xsq, _standard_normal_1d, sin3x_plus_xsq_expectation,
        "analytic: E[sin 3x + x^2] = sum_i w_i (exp(-9 var_i / 2) sin 3mu_i + mu_i^2 + var_i)",
    ),
    "branin_gmm": (
        branin, _branin_mixture, branin_expectation,
        "analytic: 3x3 Gauss-Hermite rule on the degree-4 part (exact), "
        "E[cos x1] = exp(-C_11 / 2) cos mu_1",
    ),
}


def available_benchmarks() -> tuple:
    return tuple(_PROBLEMS)


def benchmark_problem(name: str) -> BenchmarkProblem:
    """Look up a built-in benchmark."""
    if name not in _PROBLEMS:
        raise ValueError(f"unknown benchmark {name!r}; available: {available_benchmarks()}")
    fn, make_mix, expectation, provenance = _PROBLEMS[name]
    mix = make_mix()
    return BenchmarkProblem(name, fn, expectation, mix, expectation(mix), provenance)
