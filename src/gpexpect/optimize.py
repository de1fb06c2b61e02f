"""Bounded multi-start gradient ascent for acquisition maximization.

The acquisition surface is smooth but multimodal (one bump per data gap),
so a single ascent is not enough.  Each start runs projected gradient
ascent with a backtracking line search inside the box; the best accepted
iterate across all starts wins, with ties broken by start order so runs
are reproducible.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from gpexpect.errors import OptimizationFailedError
from gpexpect.mixtures import GaussianMixture, component_box, mixture_mean, sample


@dataclass(frozen=True, eq=False)
class BoxBounds:
    """Axis-aligned feasible box for the next sample."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("lower and upper must be vectors of equal length")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError("bounds must be finite")
        if not np.all(lo < hi):
            raise ValueError("lower must be elementwise below upper")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.size

    def clip(self, x) -> np.ndarray:
        return np.clip(np.asarray(x, dtype=float), self.lower, self.upper)


@dataclass(frozen=True)
class OptimizerConfig:
    starts: int = 8
    max_iterations: int = 100
    gradient_tolerance: float = 1e-8
    step_shrink: float = 0.5

    def __post_init__(self):
        if self.starts < 1:
            raise ValueError("starts must be at least 1")
        if self.gradient_tolerance <= 0:
            raise ValueError("gradient_tolerance must be positive")
        if not 0.0 < self.step_shrink < 1.0:
            raise ValueError("step_shrink must lie in (0, 1)")


def default_bounds(mix: GaussianMixture, width: float = 5.0) -> BoxBounds:
    """Box spanning all component means +- width component stds.

    The acquisition decays with the kernel tail outside the input mass,
    so nothing worth sampling lies beyond a few standard deviations.
    """
    lower, upper = component_box(mix, width)
    return BoxBounds(lower=lower, upper=upper)


def mixture_starts(mix: GaussianMixture, bounds: BoxBounds, count: int, seed: int) -> np.ndarray:
    """Start points for :func:`maximize`, concentrated where p(x) is.

    The first start is the mixture mean (clipped into the box); the rest
    are mixture draws accepted when inside the box, with a uniform draw
    after 100 rejections.  Deterministic given ``seed``.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    rng = np.random.default_rng(seed)
    starts = [bounds.clip(mixture_mean(mix))]
    for _ in range(count - 1):
        draws = sample(mix, 100, seed=int(rng.integers(2**63)))
        inside = np.all((draws >= bounds.lower) & (draws <= bounds.upper), axis=1)
        hits = np.flatnonzero(inside)
        if hits.size:
            starts.append(draws[hits[0]])
        else:
            starts.append(rng.uniform(bounds.lower, bounds.upper))
    return np.array(starts)


def _projected_gradient(x, g, bounds: BoxBounds) -> np.ndarray:
    pg = g.copy()
    at_lower = np.isclose(x, bounds.lower) & (g < 0)
    at_upper = np.isclose(x, bounds.upper) & (g > 0)
    pg[at_lower | at_upper] = 0.0
    return pg


def maximize(value_fn, gradient_fn, bounds: BoxBounds, cfg: OptimizerConfig, start_points):
    """Maximize ``value_fn`` over the box from ``start_points``; returns ``(x_best, value)``.

    Each start ascends along the projected gradient with backtracking:
    a trial step is shrunk until the value strictly improves, so accepted
    iterates are monotone.  Starts where the objective turns non-finite
    are abandoned (a single warning reports how many).

    Raises
    ------
    OptimizationFailedError
        If every start was abandoned.
    """
    start_points = np.atleast_2d(np.asarray(start_points, dtype=float))

    box_diag = float(np.linalg.norm(bounds.upper - bounds.lower))
    best_x = None
    best_val = -np.inf
    abandoned = 0

    for x0 in start_points:
        x = bounds.clip(x0)
        val = float(value_fn(x))
        if not np.isfinite(val):
            abandoned += 1
            continue
        dead = False
        for _ in range(cfg.max_iterations):
            g = np.asarray(gradient_fn(x), dtype=float)
            if not np.all(np.isfinite(g)):
                dead = True
                break
            pg = _projected_gradient(x, g, bounds)
            gnorm = float(np.linalg.norm(pg))
            if gnorm < cfg.gradient_tolerance:
                break
            # initial trial step spans a box fraction regardless of gradient scale
            step = 0.5 * box_diag / gnorm
            improved = False
            for _ in range(40):
                trial = bounds.clip(x + step * pg)
                trial_val = float(value_fn(trial))
                if not np.isfinite(trial_val):
                    dead = True
                    break
                if trial_val > val:
                    x, val = trial, trial_val
                    improved = True
                    break
                step *= cfg.step_shrink
            if dead or not improved:
                break
        if dead:
            abandoned += 1
            continue
        if val > best_val:
            best_val = val
            best_x = x

    if abandoned:
        warnings.warn(
            f"{abandoned} of {len(start_points)} optimizer starts abandoned "
            "on non-finite objective values",
            RuntimeWarning,
            stacklevel=2,
        )
    if best_x is None:
        raise OptimizationFailedError("all optimizer starts failed")
    return best_x, best_val
