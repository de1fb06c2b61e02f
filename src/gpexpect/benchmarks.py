"""Built-in benchmark black boxes with reference expectations.

Each problem bundles a vectorized function, an input mixture, and the
reference value of q = E[f(x)] together with how that reference was
obtained (analytic, or the seeded Monte-Carlo oracle).  The desk-scale
comparison of acquisition-driven sampling against random sampling runs
on these.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gpexpect.mixtures import GaussianMixture, same_mixture
from gpexpect.oracles import mc_expectation

_MC_REFERENCE_DRAWS = 10_000_000
_MC_REFERENCE_SEED = 20240801


@dataclass(frozen=True, eq=False)
class BenchmarkProblem:
    """A named black box, its input mixture, and the reference q."""

    name: str
    fn: object  # vectorized: (m, d) array -> (m,) values
    mix: GaussianMixture
    reference_q: float
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


def branin(X):
    """The Branin function on (m, 2) input rows."""
    x1, x2 = X[:, 0], X[:, 1]
    a = 1.0
    b = 5.1 / (4.0 * np.pi**2)
    c = 5.0 / np.pi
    r = 6.0
    s = 10.0
    t = 1.0 / (8.0 * np.pi)
    return a * (x2 - b * x1**2 + c * x1 - r) ** 2 + s * (1.0 - t) * np.cos(x1) + s


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


_REFERENCE_CACHE: dict = {}


def _mc_reference(fn, mix: GaussianMixture):
    """Seeded Monte-Carlo reference q and its provenance line."""
    q, se = mc_expectation(fn, mix, _MC_REFERENCE_DRAWS, _MC_REFERENCE_SEED)
    return q, (
        f"mc_oracle: {_MC_REFERENCE_DRAWS} draws, seed {_MC_REFERENCE_SEED}, "
        f"std_error {se:.3e}"
    )


def reference_q(problem: BenchmarkProblem, mix: GaussianMixture):
    """Reference q of ``problem.fn`` under ``mix``, with its provenance line.

    The problem's own reference when ``mix`` is its mixture; otherwise the
    analytic second moment for ``x_squared`` and the seeded Monte-Carlo
    oracle for the rest.
    """
    if same_mixture(problem.mix, mix):
        return problem.reference_q, problem.provenance
    if problem.name == "x_squared":
        return gaussian_second_moment(mix), "analytic: E[x^2] = sum_i a_i (w_i^2 + var_i)"
    q, provenance = _mc_reference(problem.fn, mix)
    return q, provenance + " (config mixture)"


def available_benchmarks() -> tuple:
    return ("x_squared", "sin3x_plus_xsq", "branin_gmm")


def benchmark_problem(name: str) -> BenchmarkProblem:
    """Look up a built-in benchmark; MC references are computed once."""
    if name == "x_squared":
        mix = _standard_normal_1d()
        return BenchmarkProblem(
            name=name,
            fn=_x_squared,
            mix=mix,
            reference_q=gaussian_second_moment(mix),
            provenance="analytic: E[x^2] = sum_i a_i (w_i^2 + var_i) = 1",
        )
    if name == "sin3x_plus_xsq":
        mix = _standard_normal_1d()
        if name not in _REFERENCE_CACHE:
            _REFERENCE_CACHE[name] = _mc_reference(_sin3x_plus_xsq, mix)
        q, provenance = _REFERENCE_CACHE[name]
        return BenchmarkProblem(
            name=name, fn=_sin3x_plus_xsq, mix=mix, reference_q=q, provenance=provenance
        )
    if name == "branin_gmm":
        mix = _branin_mixture()
        if name not in _REFERENCE_CACHE:
            _REFERENCE_CACHE[name] = _mc_reference(branin, mix)
        q, provenance = _REFERENCE_CACHE[name]
        return BenchmarkProblem(
            name=name, fn=branin, mix=mix, reference_q=q, provenance=provenance
        )
    raise ValueError(f"unknown benchmark {name!r}; available: {available_benchmarks()}")
