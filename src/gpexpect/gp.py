"""Gaussian-process regression and marginal-likelihood hyperparameter search.

A fitted :class:`GpPosterior` stores the Cholesky factor of the noisy Gram
matrix and the weight vector ``(K + noise * I)^-1 y``.  Posterior queries
are pure functions of that state.  :func:`posterior_rows` is the one
posterior formula at candidate rows.  It takes a :class:`PosteriorStack`
of T posteriors that share their data, such as several hyperparameter
samples, and evaluates all of them in one pass; one posterior is the
T = 1 case.  The variance queries here and the acquisition layer's probe,
which answers what one more observation would do to the estimate of the
integral without refitting, all read it.  The prior is its n = 0 case:
the empty Gram system solves to nothing, so the variance is the
amplitude and the mean 0, bit for bit.

The hyperparameter search maximizes the log evidence with L-BFGS-B and a
forward-difference gradient that this module computes itself, with the
rule of scipy 1.17's ``approx_derivative`` (``2-point``, absolute step
1e-8, one-sided at the box bounds).  All starts run in lockstep: each
drives its own state of scipy's reverse-communication routine ``setulb``
as ``minimize(method="L-BFGS-B")`` would, and each round scores every
start's requested iterate and its stencil in one stacked probe.  The
probe has two paths: one Cholesky call on the stack of Gram matrices, or,
if the stack does not factor, :func:`log_marginal_likelihood` on each row
alone.  Both give a row the bits it has alone.  Because the rule lives
here, a change to scipy's finite differences cannot move the selected
hyperparameters.  The search's effort and its starts' seed are fixed, so
its result is a function of the data and an optional fixed noise alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# the routine scipy.optimize._lbfgsb_py._minimize_lbfgsb loops over (scipy >= 1.15)
from scipy.optimize._lbfgsb import setulb

from gpexpect._numerics import as_point, as_points, chol_solve, require_fixed_noise, row_dots
from gpexpect.errors import InsufficientDataError, NumericalConditioningError
from gpexpect.kernels import (
    RbfKernel,
    eval_kernel,
    kernel_cross,
    kernel_crosses,
    kernel_matrices,
    kernel_matrix,
    kernel_vector,
)

# hyperparameter search boxes, relative to the data: lengthscale variances
# span these multiples of range(X)^2 per dimension, the amplitude and the
# noise these multiples of var(y)
_LENGTHSCALE_BOX = (1e-2, 1e2)
_AMPLITUDE_BOX = (1e-3, 1e3)
_NOISE_BOX = (1e-8, 1.0)
# L-BFGS-B starts, the iteration cap per start, and the seed of the random starts
_STARTS = 8
_MAX_ITERATIONS = 200
_SEED = 0
# the search's forward-difference step, L-BFGS-B's default absolute step
_FD_STEP = 1e-8
# scipy's default L-BFGS-B cap on objective evaluations, which counted
# every finite-difference stencil row as one
_MAX_EVALUATIONS = 15000
# the rest of minimize(method="L-BFGS-B")'s defaults: memory, factr
# (ftol / eps), projected-gradient tolerance and line-search steps
_LBFGSB_MEMORY = 10
_LBFGSB_FACTR = 2.2204460492503131e-09 / np.finfo(float).eps
_LBFGSB_PGTOL = 1e-5
_LBFGSB_MAXLS = 20
# setulb's task codes: a request for f and g at x, and a new iterate
_TASK_FG = 3
_TASK_NEW_X = 1


@dataclass(frozen=True, eq=False)
class Dataset:
    """Observed inputs ``X`` (n, d) and values ``y`` (n,)."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        y = np.atleast_1d(np.asarray(self.y, dtype=float))
        if X.ndim == 1:
            X = X.reshape(-1, 1)
        if X.ndim != 2:
            raise ValueError(f"X must be (n, d), got shape {X.shape}")
        if y.shape != (X.shape[0],):
            raise ValueError(f"y has shape {y.shape}, expected ({X.shape[0]},)")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
            raise ValueError("data must be finite")
        X.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @classmethod
    def empty(cls, dim: int) -> "Dataset":
        return cls(X=np.zeros((0, dim)), y=np.zeros(0))

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]

    def append(self, x, y_value: float) -> "Dataset":
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return Dataset(
            X=np.vstack([self.X, x[None, :]]),
            y=np.concatenate([self.y, [float(y_value)]]),
        )


@dataclass(frozen=True)
class NoiseModel:
    """Observation noise variance, ``y = f(x) + e`` with ``e ~ N(0, variance)``."""

    variance: float

    def __post_init__(self):
        if not np.isfinite(self.variance) or self.variance < 0:
            raise ValueError("noise variance must be finite and nonnegative")
        object.__setattr__(self, "variance", float(self.variance))


@dataclass(frozen=True, eq=False)
class HyperparameterSample:
    """One kernel/noise setting; several of these feed the multi-sample acquisition."""

    kernel: RbfKernel
    noise: NoiseModel


@dataclass(frozen=True, eq=False)
class GpPosterior:
    """Trained surrogate: data plus the factored noisy Gram matrix.

    ``gram_factor`` is the lower Cholesky factor of
    ``K + (noise + jitter) * I`` and ``weights`` solves that system
    against ``y``.  ``jitter`` records any diagonal inflation that was
    needed; it is 0 for well-conditioned fits.
    """

    kernel: RbfKernel
    data: Dataset
    noise: NoiseModel
    gram_factor: np.ndarray
    weights: np.ndarray
    jitter: float = 0.0

    @property
    def n(self) -> int:
        return self.data.n

    @property
    def dim(self) -> int:
        return self.kernel.dim


def fit(data: Dataset, ker: RbfKernel, noise: NoiseModel) -> GpPosterior:
    """Condition the GP on ``data``; n = 0 gives the prior (empty factor and weights).

    If the noisy Gram matrix is numerically singular (duplicated points
    with zero noise), a diagonal jitter is added, starting at
    ``1e-10 * amplitude_sq`` and escalating tenfold up to
    ``1e-4 * amplitude_sq``.

    Raises
    ------
    NumericalConditioningError
        If factorization still fails at the largest jitter.
    """
    if data.dim != ker.dim:
        raise ValueError(f"data dimension {data.dim} != kernel dimension {ker.dim}")
    n = data.n
    A = kernel_matrix(data.X, ker) + noise.variance * np.eye(n)
    jitters = [0.0] + [10.0**e * ker.amplitude_sq for e in range(-10, -3)]
    chol = None
    used = 0.0
    for jit in jitters:
        try:
            chol = np.linalg.cholesky(A + jit * np.eye(n) if jit else A)
            used = jit
            break
        except np.linalg.LinAlgError:
            continue
    if chol is None:
        raise NumericalConditioningError(
            f"Gram matrix not positive definite even with jitter {jitters[-1]:.3e}"
        )
    weights = chol_solve(chol, data.y)
    return GpPosterior(
        kernel=ker, data=data, noise=noise, gram_factor=chol, weights=weights, jitter=used
    )


class PosteriorStack(NamedTuple):
    """T posteriors on the same data, as the arrays :func:`posterior_rows` reads."""

    X: np.ndarray  # (n, d) the shared training inputs
    amplitude_sq: np.ndarray  # (T,)
    lengthscales: np.ndarray  # (T, d)
    gram_factors: tuple  # T lower Cholesky factors (n, n)


def stack_posteriors(gps) -> PosteriorStack:
    """The posteriors ``gps``, which must share their data (unchecked), as one stack."""
    gps = list(gps)
    return PosteriorStack(
        X=gps[0].data.X,
        amplitude_sq=np.array([gp.kernel.amplitude_sq for gp in gps]),
        lengthscales=np.array([gp.kernel.lengthscales for gp in gps]),
        gram_factors=tuple(gp.gram_factor for gp in gps),
    )


def posterior_rows(post: PosteriorStack, X: np.ndarray):
    """Each posterior of ``post`` at the (m, d) rows of ``X``: ``(kv, solved_kv, var)``.

    ``kv`` (T, m, n) holds the kernel rows k(x, X_n), ``solved_kv``
    (T, m, n) their solves (K + noise I)^-1 k(x, X_n), one Gram factor's
    ``potrs`` per posterior, and ``var`` (T, m) the posterior variance
    k(x, x) - k(x, X_n)^T solved_kv (GPML Alg. 2.1).  Each (posterior,
    row) entry reads as it does alone, so one posterior is the T = 1
    case.  The rows are taken as given, unchecked.
    """
    kv = kernel_crosses(X, post.X, post.amplitude_sq, post.lengthscales)
    solved_kv = np.empty_like(kv)
    for t, factor in enumerate(post.gram_factors):
        solved_kv[t] = chol_solve(factor, kv[t].T).T
    return kv, solved_kv, post.amplitude_sq[:, None] - row_dots(kv, solved_kv)


def posterior_mean(gp: GpPosterior, x) -> float:
    """Posterior mean at one point, row 0 of :func:`posterior_mean_many`."""
    return float(posterior_mean_many(gp, as_point(x, gp.dim, "x")[None, :])[0])


def posterior_mean_many(gp: GpPosterior, X) -> np.ndarray:
    """Posterior mean k(x, X_n)^T weights at each row of ``X``."""
    X = as_points(X, gp.dim)
    return row_dots(kernel_cross(X, gp.data.X, gp.kernel), gp.weights)


def posterior_cov(gp: GpPosterior, a, b) -> float:
    """Posterior covariance k(a, b) - k(a, X_n)^T (K + noise I)^-1 k(b, X_n)."""
    solved_kb = posterior_rows(stack_posteriors([gp]), as_point(b, gp.dim, "b")[None, :])[1]
    ka = kernel_vector(a, gp.data.X, gp.kernel)
    return float(eval_kernel(a, b, gp.kernel) - ka @ solved_kb[0, 0])


def posterior_var_many(gp: GpPosterior, X) -> np.ndarray:
    """Posterior variance at each row of ``X`` (diagonal of the covariance)."""
    return posterior_rows(stack_posteriors([gp]), as_points(X, gp.dim))[2][0]


def _evidence_from_factors(y: np.ndarray, factors: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Log evidence of ``y`` per Gram factor in ``factors`` (k, n, n).

    ``weights[r]`` solves the Gram system of ``factors[r]`` against ``y``.
    """
    log_det_half = np.sum(np.log(np.diagonal(factors, axis1=1, axis2=2)), axis=1)
    return row_dots(weights, -0.5 * y) - log_det_half - 0.5 * y.size * np.log(2 * np.pi)


def _log_evidences(
    data: Dataset, amplitude_sq: np.ndarray, lengthscales: np.ndarray, noise: np.ndarray
) -> np.ndarray:
    """Log evidence of ``data`` under each row's kernel and noise, from one stacked probe.

    Row ``r`` is the kernel ``(amplitude_sq[r], lengthscales[r])`` with
    noise variance ``noise[r]``.  The rows' Gram matrices come from
    :func:`kernel_matrices` and are factored by one Cholesky call, which is
    :func:`fit`'s unjittered first try.  If that stacked call fails, every
    row is scored alone by :func:`log_marginal_likelihood`, jitter ladder
    included, and a row that fails there is NaN.  Either way a row's value
    is the one it has alone.
    """
    try:
        A = kernel_matrices(data.X, amplitude_sq, lengthscales)
        # the noise goes on the diagonals in place: adding noise * I would
        # add +0.0 off them, which leaves kernel values (all >= +0.0) as they are
        diagonal = np.arange(data.n)
        A[:, diagonal, diagonal] += noise[:, None]
        factors = np.linalg.cholesky(A)
    except (np.linalg.LinAlgError, FloatingPointError):
        values = np.full(len(amplitude_sq), np.nan)
        for r in range(len(values)):
            try:
                ker = RbfKernel(amplitude_sq=amplitude_sq[r], lengthscales=lengthscales[r])
                values[r] = log_marginal_likelihood(data, ker, NoiseModel(variance=noise[r]))
            except (NumericalConditioningError, FloatingPointError, ValueError):
                pass
        return values
    weights = np.array([chol_solve(chol, data.y) for chol in factors])
    return _evidence_from_factors(data.y, factors, weights)


def log_marginal_likelihood(data: Dataset, ker: RbfKernel, noise: NoiseModel) -> float:
    """Log evidence of the data under the GP prior with the given kernel/noise.

    GPML Alg. 2.1 on :func:`fit`'s factor, jitter ladder included.  A row
    of the hyperparameter search's stacked probe reads the same bits.

    Raises
    ------
    NumericalConditioningError
        If the Gram matrix does not factor even at :func:`fit`'s largest jitter.
    """
    if data.n < 1:
        raise InsufficientDataError("log marginal likelihood needs at least one point")
    gp = fit(data, ker, noise)
    return float(_evidence_from_factors(data.y, gp.gram_factor[None], gp.weights[None])[0])


def _unpack_rows(Z: np.ndarray, d: int, fixed_noise: float | None):
    """Amplitudes, lengthscale rows and noises of log-parameter rows ``Z``.

    ``np.exp`` is elementwise, so each row reads as one theta alone would.
    """
    E = np.exp(Z)
    noise = E[:, d + 1] if fixed_noise is None else np.full(len(Z), float(fixed_noise))
    return E[:, d], E[:, :d], noise


def _forward_steps(z: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Forward-difference step per coordinate of ``z`` in the box ``[lo, hi]``.

    The step is ``_FD_STEP``; where ``z + _FD_STEP`` rounds back to ``z``
    it is ``sqrt(eps) * sign(z) * max(1, |z|)`` (sign +1 at 0).  A step
    that leaves the box is flipped if it fits on the other side, else it
    becomes the distance to the farther bound, signed toward it.
    """
    sign = (z >= 0).astype(float) * 2 - 1
    h = np.where(
        (z + _FD_STEP) - z == 0,
        np.finfo(float).eps ** 0.5 * sign * np.maximum(1.0, np.abs(z)),
        _FD_STEP,
    )
    below, above = z - lo, hi - z
    fits = np.abs(h) <= np.maximum(below, above)
    leaves = ((z + h) < lo) | ((z + h) > hi)
    h = np.where(leaves & fits, -h, h)
    return np.where(fits, h, np.where(above >= below, above, -below))


class _LbfgsbStart:
    """One start's ``setulb`` state: iterate, work arrays, counters and last evaluation."""

    def __init__(self, x: np.ndarray):
        m, p = _LBFGSB_MEMORY, x.size
        self.x = x
        self.nbd = np.full(p, 2, dtype=np.int32)  # both bounds finite
        self.f = np.array(0.0)
        self.g = np.zeros(p)
        self.wa = np.zeros(2 * m * p + 5 * p + 11 * m * m + 8 * m)
        self.iwa = np.zeros(3 * p, dtype=np.int32)
        self.task = np.zeros(2, dtype=np.int32)
        self.ln_task = np.zeros(2, dtype=np.int32)
        self.lsave = np.zeros(4, dtype=np.int32)
        self.isave = np.zeros(44, dtype=np.int32)
        self.dsave = np.zeros(29)
        self.iterations = 0
        self.evaluations = 0
        self.evaluated = None

    def answer(self, f: float, g: np.ndarray):
        """Take ``f, g`` evaluated at ``x``, the start point or the point ``setulb`` asked for."""
        self.evaluated = (self.x.copy(), f, g)
        self.evaluations += 1
        if self.task[0] == _TASK_FG:
            self.f, self.g = f, g

    def advance(self, lo, hi, max_iterations: int, max_evaluations: int) -> bool:
        """Step ``setulb`` until it asks for ``f, g`` at a new point (True) or stops (False).

        A request for the last evaluated point is answered from that
        evaluation without counting it, as scipy's ``ScalarFunction``
        does.  At each new iterate the start stops once it has made
        ``max_iterations`` iterations or more than ``max_evaluations``
        evaluations.
        """
        while True:
            # a fresh copy per call, as scipy passes it, so the stored
            # evaluation stays as it was returned
            self.g = self.g.astype(np.float64)
            setulb(
                _LBFGSB_MEMORY, self.x, lo, hi, self.nbd, self.f, self.g, _LBFGSB_FACTR,
                _LBFGSB_PGTOL, self.wa, self.iwa, self.task, self.lsave, self.isave,
                self.dsave, _LBFGSB_MAXLS, self.ln_task,
            )
            if self.task[0] == _TASK_FG:
                # same shape, finite: equal exactly when array_equal says so
                if not (self.x == self.evaluated[0]).all():
                    return True
                self.f, self.g = self.evaluated[1:]
            elif self.task[0] == _TASK_NEW_X:
                self.iterations += 1
                if self.iterations >= max_iterations:
                    self.task[:] = 5, 504  # STOP: iteration limit
                elif self.evaluations > max_evaluations:
                    self.task[:] = 5, 502  # STOP: evaluation limit
            else:
                return False


def _lbfgsb_lockstep(fun_and_grad, x0, lo, hi, max_iterations: int, max_evaluations: int):
    """Minimize from each row of ``x0`` over the box ``[lo, hi]``, all starts in lockstep.

    Each start makes the evaluations of scipy 1.17's
    ``minimize(fun, x0, jac=True, method="L-BFGS-B", bounds=...)`` with
    ``maxiter=max_iterations`` and ``maxfun=max_evaluations``: its start
    is clipped into the box and evaluated once, and then it follows
    ``_minimize_lbfgsb``'s loop over ``setulb`` with minimize's defaults.
    Each round advances every running start to its next request and
    answers all of them with one call ``fun_and_grad(owners, X)``, which
    returns the values ``(k,)`` and gradients ``(k, p)`` at the rows of
    ``X``; row ``j`` was requested by start ``owners[j]``.

    Returns each start's final ``(x, evaluations, iterations)``.
    """
    starts = [_LbfgsbStart(x) for x in np.clip(np.asarray(x0, dtype=float), lo, hi)]
    pending = list(range(len(starts)))
    while pending:
        values, grads = fun_and_grad(np.array(pending), np.array([starts[i].x for i in pending]))
        for j, i in enumerate(pending):
            starts[i].answer(float(values[j]), grads[j])
        pending = [
            i for i in pending if starts[i].advance(lo, hi, max_iterations, max_evaluations)
        ]
    return [(s.x, s.evaluations, s.iterations) for s in starts]


def select_hyperparameters(
    data: Dataset, fixed_noise: float | None = None
) -> HyperparameterSample:
    """Maximize the log marginal likelihood over log-parameterized boxes.

    Runs ``_STARTS`` (8) L-BFGS-B ascents, from the box center and seven
    log-uniform starts drawn with the fixed seed ``_SEED`` (0), and returns
    the best candidate seen at any evaluation.  ``fixed_noise``, finite and
    nonnegative, pins the noise variance instead of searching it.  The
    iteration cap and the boxes, relative to the data, are fixed too.

    The gradient is a forward difference, computed here rather than by
    scipy, so that each iterate ``z`` and its ``p`` stencil points
    ``z + h_i e_i`` are scored in one stacked probe: ``g_i = (f_i - f_0) /
    ((z_i + h_i) - z_i)`` with the steps of :func:`_forward_steps`.  These
    are the evaluations and the arithmetic of scipy 1.17's ``2-point``
    rule with L-BFGS-B's absolute step 1e-8, so results match a search
    that lets L-BFGS-B estimate the gradient, and a change to scipy's
    finite differences cannot move them.  Every row counts as one
    objective evaluation for the failure count; a failed row scores
    ``1e12``.

    The starts run in lockstep (:func:`_lbfgsb_lockstep`): each round
    scores every running start's iterate and stencil in one probe, and
    each start makes the evaluations ``minimize(method="L-BFGS-B")``
    would make from it.  The best candidate is the one a run of the
    starts one after another would keep: each start's rows are replayed in
    its own evaluation and stencil order, the starts in start order, and
    the first strictly lowest ``-LML`` wins.

    Raises
    ------
    ValueError
        If ``fixed_noise`` is negative or not finite.
    InsufficientDataError
        If fewer than two data points are available.
    NumericalConditioningError
        If no objective evaluation was finite; the message gives how many
        evaluations failed out of how many.
    """
    require_fixed_noise(fixed_noise)
    if data.n < 2:
        raise InsufficientDataError("hyperparameter selection needs at least 2 points")
    d = data.dim

    span = np.ptp(data.X, axis=0)
    span = np.where(span > 0, span, 1.0)
    var_y = float(np.var(data.y))
    scale_y = var_y if var_y > 0 else 1.0

    # each block of log-parameters: its (low, high) box factors and its data scale
    table = [(_LENGTHSCALE_BOX, span**2), (_AMPLITUDE_BOX, scale_y)]
    if fixed_noise is None:
        table.append((_NOISE_BOX, scale_y))
    lo, hi = (
        np.concatenate([np.atleast_1d(np.log(box[side] * scale)) for box, scale in table])
        for side in (0, 1)
    )
    p = lo.size

    # each start's lowest score so far and its row; inf while it has no finite score
    best_value = np.full(_STARTS, np.inf)
    best_z = np.zeros((_STARTS, p))
    counts = {"evaluations": 0, "failed": 0}

    def fun_and_grad(owners, z):
        k = len(owners)
        h = _forward_steps(z, lo, hi)
        Z = np.repeat(z[:, None, :], p + 1, axis=1)
        Z[:, np.arange(1, p + 1), np.arange(p)] = z + h
        rows = _unpack_rows(Z.reshape(-1, p), d, fixed_noise)
        values = -_log_evidences(data, *rows).reshape(k, p + 1)
        ok = np.isfinite(values)
        counts["evaluations"] += ok.size
        counts["failed"] += int(np.sum(~ok))
        scores = np.where(ok, values, np.inf)
        # each owner's first strictly lowest row, kept where it beats the owner's best
        rows = np.arange(k)
        lowest = np.argmin(scores, axis=1)
        lowest_score = scores[rows, lowest]
        better = lowest_score < best_value[owners]
        best_value[owners[better]] = lowest_score[better]
        best_z[owners[better]] = Z[rows[better], lowest[better]]
        f = np.where(ok, values, 1e12)
        return f[:, 0], (f[:, 1:] - f[:, :1]) / ((z + h) - z)

    rng = np.random.default_rng(_SEED)
    starts = [0.5 * (lo + hi)]
    for _ in range(_STARTS - 1):
        starts.append(rng.uniform(lo, hi))
    _lbfgsb_lockstep(
        fun_and_grad, starts, lo, hi, _MAX_ITERATIONS, _MAX_EVALUATIONS // (p + 1)
    )

    # each start's best is its first strictly lowest score; replayed in
    # start order, the first strictly lowest of those is the search's
    best = int(np.argmin(best_value))
    if best_value[best] == np.inf:
        raise NumericalConditioningError(
            f"no hyperparameter candidate was evaluable: {counts['failed']} of "
            f"{counts['evaluations']} objective evaluations failed"
        )
    amplitude_sq, lengthscales, noise = _unpack_rows(best_z[best][None, :], d, fixed_noise)
    return HyperparameterSample(
        kernel=RbfKernel(amplitude_sq=amplitude_sq[0], lengthscales=lengthscales[0]),
        noise=NoiseModel(variance=noise[0]),
    )
