"""Bounded multi-start gradient ascent for acquisition maximization.

The acquisition surface is smooth but multimodal (one bump per data gap),
so a single ascent is not enough.  Each start runs projected gradient
ascent with a backtracking line search inside the box.  The starts ascend
in lockstep: each round scores the line searches of every start still
running in one objective call, and the gradients at the trial steps the
starts accept come from that same call, so no accepted iterate is
evaluated twice.  The objective works on rows, each row computed as it
would be alone, so every start follows its own sequential path.  The best
accepted iterate across all starts wins, with ties broken by start order
so runs are reproducible.  Past the objective calls, a round costs a
fixed few array passes: the bound tolerances are computed once per box,
starts are dropped only in rounds where one is abandoned or stalls, and
accepted trials are taken by their flat row in the ladder call.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from gpexpect._numerics import require_count, row_dots
from gpexpect.errors import OptimizationFailedError
from gpexpect.mixtures import GaussianMixture, component_box, mixture_mean, sample

# trial steps per backtracking line search, from half the box diagonal down
# by factors of step_shrink; maximize scores all ladders of a round in one
# objective call
MAX_SHRINKS = 40


@dataclass(frozen=True, eq=False)
class BoxBounds:
    """Axis-aligned feasible box for the next sample."""

    lower: np.ndarray
    upper: np.ndarray
    # np.isclose's default tolerance at each bound, 1e-8 + 1e-5 |b|
    _lower_tol: np.ndarray = field(init=False, repr=False)
    _upper_tol: np.ndarray = field(init=False, repr=False)

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
        object.__setattr__(self, "_lower_tol", 1e-8 + 1e-5 * np.abs(lo))
        object.__setattr__(self, "_upper_tol", 1e-8 + 1e-5 * np.abs(hi))

    @property
    def dim(self) -> int:
        return self.lower.size

    def clip(self, x) -> np.ndarray:
        return np.clip(np.asarray(x, dtype=float), self.lower, self.upper)


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings for :func:`maximize`; ``starts`` and ``max_iterations`` must be integers."""

    starts: int = 8
    max_iterations: int = 100
    gradient_tolerance: float = 1e-8
    step_shrink: float = 0.5

    def __post_init__(self):
        require_count(self.starts, "starts")
        require_count(self.max_iterations, "max_iterations")
        if self.starts < 1:
            raise ValueError("starts must be at least 1")
        if not self.gradient_tolerance > 0:
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


def _projected_gradient(X, G, bounds: BoxBounds) -> np.ndarray:
    """``G`` with each component zeroed where its row of ``X`` sits at a bound it points past.

    "At a bound" is ``np.isclose``'s default test, ``|x - b| <= 1e-8 + 1e-5 |b|``
    (the bounds are finite), so a NaN coordinate is never at a bound.
    """
    near_lower = np.abs(X - bounds.lower) <= bounds._lower_tol
    near_upper = np.abs(X - bounds.upper) <= bounds._upper_tol
    return np.where((near_lower & (G < 0)) | (near_upper & (G > 0)), 0.0, G)


def _checked(out, shape: tuple, name: str) -> np.ndarray:
    """``out`` as a float array, checked to have ``shape``."""
    out = np.asarray(out, dtype=float)
    if out.shape != shape:
        raise ValueError(f"{name} returned shape {out.shape} for {shape[0]} rows")
    return out


def maximize(objective, bounds: BoxBounds, cfg: OptimizerConfig, start_points):
    """Maximize ``objective`` over the box from ``start_points``; returns ``(x_best, value)``.

    ``objective(X)`` maps ``(m, d)`` rows to ``(values, gradients_at)``:
    the ``m`` values, and a function taking row indices ``idx`` to the
    ``(len(idx), d)`` gradients of rows ``X[idx]``, each row computed as
    it would be alone.  Each start ascends along the projected gradient
    with backtracking: of up to ``MAX_SHRINKS`` trial steps, each
    ``step_shrink`` times the last, the first that strictly improves is
    accepted, so accepted iterates are monotone.  All starts ascend in
    lockstep rounds.  One objective call scores the starts; then each
    round takes the gradients of the starts still running from the call
    that scored their current iterates (one ``gradients_at`` call) and
    scores all of their ladders in one objective call.  A start stops
    when its projected gradient falls below ``gradient_tolerance``, when
    no trial improves, or after ``max_iterations`` accepted steps, and
    is abandoned when its gradient or a trial before the first improving
    one is non-finite (a single warning reports how many).  Every start
    follows the path it would follow alone, and the best is taken in
    start order, so ties go to the earlier start.

    Raises
    ------
    OptimizationFailedError
        If every start was abandoned.
    ValueError
        If ``objective`` returns other than one value per row, or
        ``gradients_at`` other than one ``d``-vector per index.
    """
    x = bounds.clip(np.atleast_2d(np.asarray(start_points, dtype=float)))
    val, gradients_at = objective(x)
    val = _checked(val, x.shape[:1], "objective").copy()
    abandoned = ~np.isfinite(val)
    running = np.flatnonzero(~abandoned)
    # the row of each running start's current iterate in the last objective call
    scored_rows = running

    box_diag = float(np.linalg.norm(bounds.upper - bounds.lower))
    # per start: its ladder's step factors (the first set each round) and first row
    shrinks = np.full((len(x), MAX_SHRINKS), cfg.step_shrink)
    ladder_rows = np.arange(0, shrinks.size, MAX_SHRINKS)
    for _ in range(cfg.max_iterations):
        if not running.size:
            break
        grads = _checked(
            gradients_at(scored_rows), (scored_rows.size, bounds.dim), "gradients_at"
        )
        finite = np.isfinite(grads).all(axis=1)
        if not finite.all():
            abandoned[running[~finite]] = True
            running, grads = running[finite], grads[finite]
        current = x[running]
        pg = _projected_gradient(current, grads, bounds)
        # np.linalg.norm of each row: the square root of its dot with itself
        gnorm = np.sqrt(row_dots(pg, pg))
        moving = ~(gnorm < cfg.gradient_tolerance)
        if not moving.all():
            running, current = running[moving], current[moving]
            pg, gnorm = pg[moving], gnorm[moving]
            if not running.size:
                break
        # initial trial step spans a box fraction regardless of gradient scale;
        # accumulate shrinks by repeated multiplication, as a sequential loop would
        shrinks[: running.size, 0] = 0.5 * box_diag / gnorm
        steps = np.multiply.accumulate(shrinks[: running.size], axis=1)
        ladders = current[:, None, :] + steps[:, :, None] * pg[:, None, :]
        ladders = ladders.reshape(-1, bounds.dim)
        np.clip(ladders, bounds.lower, bounds.upper, out=ladders)
        values, gradients_at = objective(ladders)
        values = _checked(values, ladders.shape[:1], "objective").reshape(steps.shape)
        # each start stops at its first non-finite or improving trial
        stops = ~np.isfinite(values) | (values > val[running, None])
        # the ladder row of that trial, or of its first trial where none stops
        rows = ladder_rows[: running.size] + np.argmax(stops, axis=1)
        chosen = values.ravel()[rows]
        finite = np.isfinite(chosen)
        accept = stops.ravel()[rows] & finite
        if not finite.all():
            abandoned[running[~finite]] = True
        running, scored_rows = running[accept], rows[accept]
        x[running] = ladders[scored_rows]
        val[running] = chosen[accept]

    if abandoned.any():
        warnings.warn(
            f"{np.count_nonzero(abandoned)} of {len(x)} optimizer starts abandoned "
            "on non-finite objective values",
            RuntimeWarning,
            stacklevel=2,
        )
    if abandoned.all():
        raise OptimizationFailedError("all optimizer starts failed")
    # the first start with the best value, as a strict > over starts in order
    best = int(np.argmax(np.where(abandoned, -np.inf, val)))
    return x[best], float(val[best])
