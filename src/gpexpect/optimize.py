"""Bounded multi-start gradient ascent for acquisition maximization.

The acquisition surface is smooth but multimodal (one bump per data gap),
so a single ascent is not enough.  Each start runs projected gradient
ascent with a backtracking line search inside the box.  A start stops when
its projected gradient norm falls below an absolute 1e-8, when an accepted
step gains at most 1e-10 of its new value (the relative progress test of
L-BFGS-B's ``factr``; the absolute test alone let most rounds of a pinned
decision gain less than 1e-9 of the value), when no trial improves, or
after 100 accepted steps.  The starts ascend in lockstep: each round
scores the first 24 trial steps of the line search of every start still
running in one objective call, and the whole 40-step line searches in one
more call only when some start finds no trial among those 24 that
improves or is non-finite.  The gradients at the trial steps the starts
accept come from the round's last call, so no accepted iterate is
evaluated twice.  The objective works on rows, each row computed as it
would be alone, and the first 24 steps are the same bits in both calls,
so every start follows its own sequential path.  The best accepted
iterate across all starts wins, with ties broken by start order so runs
are reproducible.  Past the objective calls, a round costs a fixed few
array passes, and a common round skips the masks that only rare rounds
need.  One count finds a non-finite gradient or ladder value, and per-row
finiteness masks are built only when there is one; the count of starts
that stop among the first 24 steps decides whether the whole ladders are
scored; starts are dropped only in rounds where one is abandoned, stalls,
gains too little or accepts no trial; the projected gradient is the
gradient itself when every coordinate lies well inside the box, by a test
against a box shrunk once per box.  Each skip leaves out only a mask that
is all true or a selection that keeps every entry, so each start's
iterates keep their bits.  The ladders are built dimension-major, so the
box clips them along contiguous rows, and each start's accepted trial is
taken by its flat row in the ladder call.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from gpexpect._numerics import require_count, row_dots
from gpexpect.errors import OptimizationFailedError
from gpexpect.mixtures import GaussianMixture, component_box, first_samples_inside, mixture_mean

# the 40 trial steps of a backtracking line search as fractions of the first,
# each half the last; maximize scores the first _FIRST_RUNGS steps of all
# ladders of a round in one objective call, and all 40 in one more only when a
# start needs them, and stops a start once its projected gradient norm is
# below 1e-8, once an accepted step gains at most 1e-10 of the start's new
# value, or after 100 accepted steps
STEP_FRACTIONS = 0.5 ** np.arange(40)
STEP_FRACTIONS.setflags(write=False)
_GRADIENT_TOLERANCE = 1e-8
_RELATIVE_TOLERANCE = 1e-10
_MAX_ITERATIONS = 100
# the trial steps each round scores first: over one pass of each benchmark
# panel, 9 of 8,177 accepted trials lay deeper, and their median depth was the
# 5th to the 11th step
_FIRST_RUNGS = 24
# half-width of the default search box, in component standard deviations
_DEFAULT_BOX_WIDTH = 5.0


@dataclass(frozen=True, eq=False)
class BoxBounds:
    """Axis-aligned feasible box for the next sample."""

    lower: np.ndarray
    upper: np.ndarray
    # np.isclose's default tolerance at each bound, 1e-8 + 1e-5 |b|
    _lower_tol: np.ndarray = field(init=False, repr=False)
    _upper_tol: np.ndarray = field(init=False, repr=False)
    # the box shrunk by twice those tolerances: no coordinate strictly inside it
    # is within tolerance of a bound
    _inner_lower: np.ndarray = field(init=False, repr=False)
    _inner_upper: np.ndarray = field(init=False, repr=False)

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
        lower_tol, upper_tol = 1e-8 + 1e-5 * np.abs(lo), 1e-8 + 1e-5 * np.abs(hi)
        object.__setattr__(self, "_lower_tol", lower_tol)
        object.__setattr__(self, "_upper_tol", upper_tol)
        object.__setattr__(self, "_inner_lower", lo + 2.0 * lower_tol)
        object.__setattr__(self, "_inner_upper", hi - 2.0 * upper_tol)

    @property
    def dim(self) -> int:
        return self.lower.size

    def clip(self, x) -> np.ndarray:
        return np.clip(np.asarray(x, dtype=float), self.lower, self.upper)


def default_bounds(mix: GaussianMixture) -> BoxBounds:
    """Box spanning all component means +- 5 component stds (``_DEFAULT_BOX_WIDTH``).

    The acquisition decays with the kernel tail outside the input mass,
    so nothing worth sampling lies beyond a few standard deviations.
    """
    lower, upper = component_box(mix, _DEFAULT_BOX_WIDTH)
    return BoxBounds(lower=lower, upper=upper)


def mixture_starts(mix: GaussianMixture, bounds: BoxBounds, count: int, seed: int) -> np.ndarray:
    """Start points for :func:`maximize`, concentrated where p(x) is.

    The first start is the mixture mean (clipped into the box).  Each
    other start is the first inside the box of 100 mixture draws from a
    seed of its own, or else a uniform draw in the box from a new generator
    on that seed, so it depends on its seed alone.  One sized call of the
    parent stream draws the seeds, and one
    :func:`~gpexpect.mixtures.first_samples_inside` pass draws the starts
    together, each one row at a time until its first draw inside, which is
    the point that drawing all 100 at once and keeping the first inside
    gives.  Deterministic given ``seed``; ``count`` must be an integer >= 1.
    """
    require_count(count, "count", minimum=1)
    # Python ints: a generator seeded by a numpy integer takes longer to build
    seeds = np.random.default_rng(seed).integers(2**63, size=count - 1).tolist()
    starts = first_samples_inside(mix, bounds.lower, bounds.upper, 100, seeds)
    for s in np.flatnonzero(np.isnan(starts[:, 0])):
        starts[s] = np.random.default_rng(seeds[s]).uniform(bounds.lower, bounds.upper)
    return np.vstack([bounds.clip(mixture_mean(mix)), starts])


def _projected_gradient(X, G, bounds: BoxBounds) -> np.ndarray:
    """``G`` with each component zeroed where its row of ``X`` sits at a bound it points past.

    "At a bound" is ``np.isclose``'s default test, ``|x - b| <= 1e-8 + 1e-5 |b|``
    (the bounds are finite), so a NaN coordinate is never at a bound.  When
    every coordinate lies strictly inside the box shrunk by twice those
    tolerances, none is at a bound and ``G`` itself is returned; a NaN
    coordinate fails that test and takes the full one.
    """
    inside = (X > bounds._inner_lower) & (X < bounds._inner_upper)
    if np.count_nonzero(inside) == inside.size:
        return G
    near_lower = np.abs(X - bounds.lower) <= bounds._lower_tol
    near_upper = np.abs(X - bounds.upper) <= bounds._upper_tol
    return np.where((near_lower & (G < 0)) | (near_upper & (G > 0)), 0.0, G)


def _checked(out, shape: tuple, name: str) -> np.ndarray:
    """``out`` as a float array, checked to have ``shape``."""
    out = np.asarray(out, dtype=float)
    if out.shape != shape:
        raise ValueError(f"{name} returned shape {out.shape} for {shape[0]} rows")
    return out


def maximize(objective, bounds: BoxBounds, start_points):
    """Maximize ``objective`` over the box from ``start_points``; returns ``(x_best, value)``.

    ``objective(X)`` maps ``(m, d)`` rows to ``(values, gradients_at)``: the
    ``m`` values, and a function taking row indices ``idx`` to the
    ``(len(idx), d)`` gradients of rows ``X[idx]``, each row computed as it
    would be alone.  Each start ascends along the projected gradient with
    backtracking: of the trial steps, half the box diagonal over the
    gradient norm times ``STEP_FRACTIONS``, the first that strictly improves
    is accepted, so accepted iterates are monotone.  All starts ascend in
    lockstep rounds.  One objective call scores the starts; then each round
    takes the gradients of the starts still running from the call that
    scored their current iterates (one ``gradients_at`` call) and scores the
    first ``_FIRST_RUNGS`` (24) trial steps of all of their ladders in one
    objective call.  If a start finds no trial among those that improves or
    is non-finite, one more call scores the whole ladders of all of them,
    and the round goes on with that call's values and gradients.  A start
    stops when its projected gradient norm falls below 1e-8, when its
    accepted trial improves its value by at most ``_RELATIVE_TOLERANCE``
    (1e-10) times the absolute new value (it keeps that trial), when no
    trial improves, or after ``_MAX_ITERATIONS`` (100) accepted steps, and
    is abandoned when its gradient or a trial before the first improving
    one is non-finite (a single warning reports how many).  Every start
    follows the path it would follow alone, and the best is taken in start
    order, so ties go to the earlier start.

    Raises
    ------
    OptimizationFailedError
        If every start was abandoned.
    ValueError
        If ``start_points`` is not ``(s, d)`` with ``s >= 1`` and ``d`` the
        box dimension (checked before any objective call), if ``objective``
        returns other than one value per row, or ``gradients_at`` other
        than one ``d``-vector per index.
    """
    lower, upper, dim = bounds.lower, bounds.upper, bounds.dim
    x = np.asarray(start_points, dtype=float)
    if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] != dim:
        raise ValueError(f"start_points has shape {x.shape}, expected (s, {dim}) with s >= 1")
    x = bounds.clip(x)
    val, gradients_at = objective(x)
    val = _checked(val, x.shape[:1], "objective").copy()
    abandoned = ~np.isfinite(val)
    running = np.flatnonzero(~abandoned)
    # the row of each running start's current iterate in the last objective call
    scored_rows = running

    half_diag = 0.5 * float(np.linalg.norm(upper - lower))
    # the ladders are built dimension-major, so the bounds clip them as columns
    lower_col, upper_col = lower[:, None], upper[:, None]
    # the fractions of a round's first and of its whole ladders, with the first row of
    # each start's ladder
    ladder_layouts = [
        (fractions, np.arange(0, len(x) * fractions.size, fractions.size))
        for fractions in (STEP_FRACTIONS[:_FIRST_RUNGS], STEP_FRACTIONS)
    ]
    for _ in range(_MAX_ITERATIONS):
        if not running.size:
            break
        grads = _checked(gradients_at(scored_rows), (scored_rows.size, dim), "gradients_at")
        finite = np.isfinite(grads)
        if np.count_nonzero(finite) < finite.size:
            finite = finite.all(axis=1)
            abandoned[running[~finite]] = True
            running, grads = running[finite], grads[finite]
            if not running.size:
                break
        current = x.take(running, axis=0)
        pg = _projected_gradient(current, grads, bounds)
        # np.linalg.norm of each row: the square root of its dot with itself
        gnorm = np.sqrt(row_dots(pg, pg))
        if np.minimum.reduce(gnorm) < _GRADIENT_TOLERANCE:
            moving = ~(gnorm < _GRADIENT_TOLERANCE)
            running, current = running[moving], current[moving]
            pg, gnorm = pg[moving], gnorm[moving]
            if not running.size:
                break
        # the first step s0 spans a box fraction whatever the gradient scale. Halving a
        # normal double is exact, so s0 * 2^-j is s0 halved j times unless a step turns
        # subnormal: s0 < 2^-983, a gradient norm past 2^982 box diagonals
        s0 = (half_diag / gnorm)[:, None]
        before = val[running]
        # the first _FIRST_RUNGS rungs of every ladder, then the whole ladders only when
        # some start neither improves nor meets a non-finite value among them
        for fractions, first_rows in ladder_layouts:
            steps = s0 * fractions
            ladders = (current.T[:, :, None] + steps * pg.T[:, :, None]).reshape(dim, -1)
            ladders.clip(lower_col, upper_col, out=ladders)
            ladders = ladders.T
            values, gradients_at = objective(ladders)
            values = _checked(values, ladders.shape[:1], "objective").reshape(steps.shape)
            # each start stops at its first improving trial, or at a non-finite one before it
            stops = values > before[:, None]
            finite = np.isfinite(values)
            all_finite = np.count_nonzero(finite) == finite.size
            if not all_finite:
                stops |= ~finite
            # the ladder row of that trial, or of its first trial where none stops
            rows = stops.argmax(axis=1)
            rows += first_rows[: running.size]
            accept = stops.take(rows)
            every_start_stops = np.count_nonzero(accept) == accept.size
            if every_start_stops:
                break
        chosen = values.take(rows)
        if not all_finite:
            finite = np.isfinite(chosen)
            abandoned[running[~finite]] = True
            accept &= finite
        # a start that gains at most _RELATIVE_TOLERANCE of its new value takes the step and stops
        slow = chosen - before <= _RELATIVE_TOLERANCE * np.abs(chosen)
        if not (every_start_stops and all_finite):
            running, rows, chosen = running[accept], rows[accept], chosen[accept]
            slow = slow[accept]
        x[running] = ladders[rows]
        val[running] = chosen
        if np.count_nonzero(slow):
            moving = ~slow
            running, rows = running[moving], rows[moving]
        scored_rows = rows

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
