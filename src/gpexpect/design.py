"""The sequential loop: acquire, evaluate, update, record.

Hyperparameters are selected once on the initial design and again
before every ``refit_every``-th step.  Each step maximizes the
variance-reduction acquisition over the design box, evaluates the black
box at the winner, fits the GP once with the new point, and records the
updated integral estimate; the next step acquires on that same fit
unless it re-selects the hyperparameters.  A parallel entry point draws
points from the input distribution instead, which is the baseline the
acquisition is meant to beat.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from gpexpect._numerics import require_count, require_fixed_noise
from gpexpect.acquisition import (
    AcquisitionContext,
    acquisition_objective,
    build_context,
    multi_theta_objective,
)
from gpexpect.errors import EvaluationError, InsufficientDataError
from gpexpect.gp import (
    Dataset,
    HyperparameterSample,
    NoiseModel,
    RbfKernel,
    fit,
    select_hyperparameters,
)
from gpexpect.mixtures import GaussianMixture, sample
from gpexpect.optimize import BoxBounds, default_bounds, maximize, mixture_starts

# log-space std of the hyperparameter perturbations used when more than
# one theta sample is requested
_THETA_LOG_STD = 0.2
# start points of each step's acquisition ascent
_ACQUISITION_STARTS = 8


def _derive_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


@dataclass(frozen=True)
class RunRecord:
    """One row of run history: the sample taken and the estimate after it."""

    iteration: int
    chosen_x: np.ndarray
    observed_y: float
    mu1: float
    sigma1: float
    acquisition_at_chosen: float


@dataclass(frozen=True, eq=False)
class DesignConfig:
    """Settings for a sequential run.

    ``pinned_theta`` freezes the hyperparameters for the whole run
    (otherwise they are selected on the initial design and re-selected
    before every ``refit_every``-th step, by a search whose random starts
    come from a fixed seed, not from ``seed``); ``fixed_noise``, finite
    and nonnegative, pins the noise variance of that search and so
    conflicts with ``pinned_theta``;
    ``theta_samples > 1`` averages the acquisition over that many
    log-space perturbations of the selected hyperparameters.
    ``center_y`` fits the GP on mean-centered observations and adds the
    offset back into the reported estimate mean.  The counts ``n0``,
    ``budget``, ``refit_every`` and ``theta_samples`` and the ``seed``
    must be integers, not bools, the seed ``>= 0``; anything else, and a
    bad or conflicting ``fixed_noise``, raises ``ValueError`` here, before
    a black-box call.  The effort of each
    step's acquisition ascent is fixed: 8 starts (``_ACQUISITION_STARTS``)
    of at most 100 steps each (``optimize._MAX_ITERATIONS``).
    """

    n0: int
    budget: int
    seed: int
    sigma_stop: float = 0.0
    refit_every: int = 5
    theta_samples: int = 1
    bounds: BoxBounds | None = None
    pinned_theta: HyperparameterSample | None = None
    fixed_noise: float | None = None
    center_y: bool = False

    def __post_init__(self):
        for name in ("n0", "budget", "seed", "refit_every", "theta_samples"):
            require_count(getattr(self, name), name)
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.n0 < 2:
            raise InsufficientDataError("n0 must be at least 2")
        if self.budget < self.n0:
            raise ValueError("budget must be at least n0")
        if not self.sigma_stop >= 0:
            raise ValueError("sigma_stop must be nonnegative")
        if self.refit_every < 1:
            raise ValueError("refit_every must be at least 1")
        if self.theta_samples < 1:
            raise ValueError("theta_samples must be at least 1")
        require_fixed_noise(self.fixed_noise)
        if self.fixed_noise is not None and self.pinned_theta is not None:
            raise ValueError("fixed_noise conflicts with pinned_theta, which fixes the noise")


@dataclass(eq=False)
class DesignState:
    """Single-owner mutable state of a run in progress.

    ``bounds`` is the box every step searches: ``cfg.bounds``, or the
    :func:`~gpexpect.optimize.default_bounds` of ``mix``, worked out once
    when the state is made.
    """

    data: Dataset
    mix: GaussianMixture
    cfg: DesignConfig
    hyper: HyperparameterSample | None = None
    history: list = field(default_factory=list)
    # context fitted with ``hyper`` on ``data``; None until the first fit
    context: AcquisitionContext | None = field(default=None, repr=False)
    bounds: BoxBounds = field(init=False, repr=False)

    def __post_init__(self):
        self.bounds = self.cfg.bounds if self.cfg.bounds is not None else default_bounds(self.mix)

    @property
    def iteration(self) -> int:
        """Acquisition steps taken: the points absorbed after the initial design."""
        return self.data.n - self.cfg.n0


def initial_design(mix: GaussianMixture, n0: int, seed: int) -> np.ndarray:
    """n0 starting points drawn from the input mixture."""
    if n0 < 2:
        raise InsufficientDataError("initial design needs at least 2 points")
    return sample(mix, n0, seed)


def _perturbed_theta(theta: HyperparameterSample, rng) -> HyperparameterSample:
    ls = np.exp(np.log(theta.kernel.lengthscales) + _THETA_LOG_STD * rng.standard_normal(
        theta.kernel.dim
    ))
    s2 = float(np.exp(np.log(theta.kernel.amplitude_sq) + _THETA_LOG_STD * rng.standard_normal()))
    nv = theta.noise.variance
    if nv > 0:
        nv = float(np.exp(np.log(nv) + _THETA_LOG_STD * rng.standard_normal()))
    return HyperparameterSample(
        kernel=RbfKernel(amplitude_sq=s2, lengthscales=ls), noise=NoiseModel(variance=nv)
    )


def _select_theta(state: DesignState) -> HyperparameterSample:
    cfg = state.cfg
    if cfg.pinned_theta is not None:
        return cfg.pinned_theta
    if state.hyper is None or (state.iteration > 0 and state.iteration % cfg.refit_every == 0):
        return select_hyperparameters(state.data, cfg.fixed_noise)
    return state.hyper


def _fit_context(state: DesignState, theta: HyperparameterSample):
    """Fit ``theta`` to the current data; returns the context and the y offset.

    The context reuses the kernel-only terms of ``state.context`` when
    that context has the kernel object of ``theta``.  With ``center_y``
    the GP sees ``y`` minus the offset, the mean of ``y`` (0 with no
    data); otherwise the offset is 0.
    """
    data = state.data
    offset = float(data.y.mean()) if state.cfg.center_y and data.n > 0 else 0.0
    if offset != 0.0:
        data = Dataset(X=data.X, y=data.y - offset)
    gp = fit(data, theta.kernel, theta.noise)
    return build_context(gp, state.mix, state.context), offset


def _acquisition_functions(state: DesignState, ctx, theta, iteration: int):
    """The objective :func:`maximize` ascends, either single-theta or averaged."""
    if state.cfg.theta_samples <= 1:
        return acquisition_objective(ctx)
    rng = np.random.default_rng(_derive_seed(state.cfg.seed, iteration, 1))
    contexts = [ctx]
    for _ in range(state.cfg.theta_samples - 1):
        contexts.append(_fit_context(state, _perturbed_theta(theta, rng))[0])
    return multi_theta_objective(contexts)


def _evaluate(black_box, x: np.ndarray) -> float:
    """One black-box call; a raise or a non-finite value becomes EvaluationError."""
    try:
        y = float(black_box(x))
    except Exception as exc:
        raise EvaluationError(
            f"black box raised {type(exc).__name__} at {x.tolist()}: {exc}"
        ) from exc
    if not np.isfinite(y):
        raise EvaluationError(f"black box returned non-finite value at {x.tolist()}")
    return y


def _record(state: DesignState, iteration: int, x, y: float, offset: float, acquisition: float):
    """Append the record of point ``x`` with the estimate of ``state.context`` plus ``offset``."""
    state.history.append(
        RunRecord(
            iteration=iteration,
            chosen_x=x,
            observed_y=y,
            mu1=state.context.mu1 + offset,
            sigma1=float(np.sqrt(state.context.sigma1_sq)),
            acquisition_at_chosen=acquisition,
        )
    )


def _absorb(state: DesignState, black_box, x, theta, acquisition: float):
    """Evaluate ``x``, refit ``theta`` with it, and record the new estimate.

    The refitted context stays in ``state`` for the next step, which
    reuses it unless the hyperparameters are re-selected.
    """
    y = _evaluate(black_box, x)
    state.data = state.data.append(x, y)
    state.hyper = theta
    state.context, offset = _fit_context(state, theta)
    _record(state, state.data.n - 1, x, y, offset, acquisition)
    return state


def step(state: DesignState, black_box) -> DesignState:
    """Run one acquisition iteration, appending a data point and a record."""
    cfg = state.cfg
    theta = _select_theta(state)
    if theta is not state.hyper or state.context is None:
        # kept, so the refit after this step reuses its kernel-only terms
        state.hyper = theta
        state.context, _ = _fit_context(state, theta)
    objective = _acquisition_functions(state, state.context, theta, state.iteration)

    starts = mixture_starts(
        state.mix, state.bounds, _ACQUISITION_STARTS, _derive_seed(cfg.seed, state.iteration, 2)
    )
    x_star, acq = maximize(objective, state.bounds, starts)
    return _absorb(state, black_box, x_star, theta, float(acq))


def _random_step(state: DesignState, black_box) -> DesignState:
    """Baseline iteration: next point drawn from the mixture, no acquisition."""
    theta = _select_theta(state)
    x_star = sample(state.mix, 1, _derive_seed(state.cfg.seed, state.iteration, 3))[0]
    return _absorb(state, black_box, x_star, theta, 0.0)


def _start_state(mix: GaussianMixture, black_box, cfg: DesignConfig) -> DesignState:
    X0 = initial_design(mix, cfg.n0, _derive_seed(cfg.seed, 0, 0))
    y0 = np.array([_evaluate(black_box, x) for x in X0])
    state = DesignState(data=Dataset(X=X0, y=y0), mix=mix, cfg=cfg)
    state.hyper = _select_theta(state)
    state.context, offset = _fit_context(state, state.hyper)
    # initial points share the post-initial-fit estimate; acquisition 0
    for i in range(cfg.n0):
        _record(state, i, X0[i], float(y0[i]), offset, 0.0)
    return state


def _run_loop(mix, black_box, cfg: DesignConfig, step_fn) -> list:
    # checked before the first black-box call, which a mismatch would waste
    if cfg.bounds is not None and cfg.bounds.dim != mix.dim:
        raise ValueError(f"bounds are {cfg.bounds.dim}-d, the mixture is {mix.dim}-d")
    if cfg.pinned_theta is not None and cfg.pinned_theta.kernel.dim != mix.dim:
        raise ValueError(
            f"pinned kernel is {cfg.pinned_theta.kernel.dim}-d, the mixture is {mix.dim}-d"
        )
    state = _start_state(mix, black_box, cfg)
    while state.data.n < cfg.budget:
        if state.history[-1].sigma1 < cfg.sigma_stop:
            break
        step_fn(state, black_box)
    return state.history


def run(mix: GaussianMixture, black_box, cfg: DesignConfig) -> list:
    """Full acquisition-driven run; returns the record history.

    Executes the initial design then acquisition steps until the budget
    is spent or sigma1 drops below ``cfg.sigma_stop``.  Deterministic
    given ``cfg.seed`` (assuming a deterministic black box).  Bounds or a
    pinned kernel of another dimension than ``mix`` raise ``ValueError``
    before the black box is called.
    """
    return _run_loop(mix, black_box, cfg, step)


def run_random_baseline(mix: GaussianMixture, black_box, cfg: DesignConfig) -> list:
    """Same loop with points drawn from p(x) instead of the acquisition."""
    return _run_loop(mix, black_box, cfg, _random_step)
