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
forward-difference gradient that this module computes itself.  Its step
is 1e-8, flipped where it would leave the box: on the search's own box,
which is finite with bounds under 800 in magnitude, that is the rule of
scipy 1.17's ``approx_derivative`` (``2-point``, absolute step 1e-8,
one-sided at the box bounds).  Data whose scale that box cannot hold in
floating point raise a typed error.  All starts run in lockstep under
the driver of :mod:`gpexpect.lbfgsb`, which gives each the answers
``minimize(method="L-BFGS-B")`` would give it, and each round scores
every start's requested iterate and its stencil in one stacked probe.
A start asked again for one of its own earlier iterates answers from its
record of them and scores nothing.  The probe has two
paths: one Cholesky call on the stack of Gram matrices, whose weight
solves are one :func:`chol_solves` call, or, if the stack does not
factor, :func:`log_marginal_likelihood` on each row alone.  Both give a
row the bits it has alone.  Each round's rows go to a log, and the
winner is picked once from it after the last round.  Because the rule
lives here, a change to scipy's finite differences cannot move the
selected hyperparameters.  The search always covers the amplitude, the
lengthscales and the noise, d + 2 log-parameters.  Its effort and its
starts' seed are fixed, so its result is a function of the data alone.
The driver's module, and with it the compiled
``scipy.optimize._lbfgsb``, is loaded at the first search, so a run with
a fixed kernel loads neither.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from gpexpect._numerics import (
    as_point,
    as_points,
    chol_solve,
    chol_solve_in_place,
    chol_solves,
    row_dots,
)
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
    A = kernel_matrix(data.X, ker)
    # the noise goes on the diagonal in place, as in _log_evidences
    A.reshape(-1)[:: data.n + 1] += noise.variance
    try:
        chol, used = np.linalg.cholesky(A), 0.0
    except np.linalg.LinAlgError:
        chol, used = _jittered_factor(A, ker.amplitude_sq)
    weights = chol_solve(chol, data.y)
    return GpPosterior(
        kernel=ker, data=data, noise=noise, gram_factor=chol, weights=weights, jitter=used
    )


def _jittered_factor(A: np.ndarray, amplitude_sq: float):
    """The Cholesky factor of ``A`` plus the first jitter of :func:`fit`'s ladder that factors.

    Returns ``(factor, jitter)``; each jitter goes on a copy's diagonal in
    place.  Raises ``NumericalConditioningError`` if none factors.
    """
    jitters = [10.0**e * amplitude_sq for e in range(-10, -3)]
    for jitter in jitters:
        jittered = A.copy()
        jittered.reshape(-1)[:: len(A) + 1] += jitter
        try:
            return np.linalg.cholesky(jittered), jitter
        except np.linalg.LinAlgError:
            continue
    raise NumericalConditioningError(
        f"Gram matrix not positive definite even with jitter {jitters[-1]:.3e}"
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
    # one copy of kv, each context's (n, m) transpose solved over itself
    solved_kv = kv.copy()
    for t, factor in enumerate(post.gram_factors):
        chol_solve_in_place(factor, solved_kv[t].T)
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
    log_det_half = np.log(np.diagonal(factors, axis1=1, axis2=2)).sum(axis=1)
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
        # add +0.0 off them, which leaves kernel values (all >= +0.0) as they are.
        # A is a fresh C-contiguous stack, so the reshape is a view, and every
        # (n + 1)-th entry of a flattened matrix is its diagonal
        A.reshape(len(A), data.n**2)[:, :: data.n + 1] += noise[:, None]
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
    return _evidence_from_factors(data.y, factors, chol_solves(factors, data.y))


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


def _unpack_rows(Z: np.ndarray, d: int):
    """Amplitudes, lengthscale rows and noises of log-parameter rows ``Z``.

    ``np.exp`` is elementwise, so each row reads as one theta alone would.
    """
    E = np.exp(Z)
    return E[:, d], E[:, :d], E[:, d + 1]


def _forward_steps(z: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Forward-difference step per coordinate of ``z`` in the box ``[lo, hi]``.

    The step is ``_FD_STEP``, flipped to ``-_FD_STEP`` where ``z + _FD_STEP``
    leaves the box.  On a box that :func:`_search_box` builds, and for
    ``lo <= z <= hi``, this is scipy 1.17's ``2-point`` rule with absolute
    step ``_FD_STEP``: the bounds are finite and under 800 in magnitude,
    so ``z + _FD_STEP`` never rounds back to ``z`` (that needs ``|z| >=
    2**27``), and each interval is several units wide, so the step or its
    flip always fits and no step reaches ``lo``, which is not read.  On
    other boxes scipy's rule differs.
    """
    return np.where(z + _FD_STEP > hi, -_FD_STEP, _FD_STEP)


def _search_box(data: Dataset):
    """The search's box ``(lo, hi)`` of the d + 2 log-parameters, relative to the data.

    The lengthscale variances span ``_LENGTHSCALE_BOX`` times the squared
    input span per dimension, the amplitude ``_AMPLITUDE_BOX`` and the
    noise ``_NOISE_BOX`` times var(y); a zero span or variance counts as 1.
    Every bound is the log of a positive finite float, so under 800 in
    magnitude.

    Raises
    ------
    NumericalConditioningError
        If a bound is not finite: the squared span or var(y), or its
        multiple by a box factor, overflows or underflows to 0.  The
        message names the first such scale.
    """
    with np.errstate(all="ignore"):
        span = np.ptp(data.X, axis=0)
        span = np.where(span > 0, span, 1.0)
        var_y = float(np.var(data.y))
        scale_y = var_y if var_y != 0 else 1.0
        # each block of log-parameters: its (low, high) box factors and its data scale
        table = [(_LENGTHSCALE_BOX, span**2), (_AMPLITUDE_BOX, scale_y), (_NOISE_BOX, scale_y)]
        lo, hi = (
            np.concatenate([np.atleast_1d(np.log(box[side] * scale)) for box, scale in table])
            for side in (0, 1)
        )
    finite = np.isfinite(lo) & np.isfinite(hi)
    if not finite.all():
        j = int(np.argmin(finite))
        if j < data.dim:
            scale = f"the input span of dimension {j} is {span[j]:.3g}"
        else:
            scale = f"var(y) is {var_y:.3g}"
        raise NumericalConditioningError(
            f"the hyperparameter search box does not fit in floating point: {scale}"
        )
    return lo, hi


def select_hyperparameters(data: Dataset) -> HyperparameterSample:
    """Maximize the log marginal likelihood over log-parameterized boxes.

    Searches the amplitude, the ``d`` lengthscales and the noise variance,
    ``p = d + 2`` log-parameters; the noise is always searched.  Runs
    ``_STARTS`` (8) L-BFGS-B ascents, from the box center and seven
    log-uniform starts drawn with the fixed seed ``_SEED`` (0), and returns
    the best candidate seen at any evaluation.  The iteration cap and the
    boxes, relative to the data, are fixed too.

    The gradient is a forward difference, computed here rather than by
    scipy, so that each iterate ``z`` and its ``p`` stencil points
    ``z + h_i e_i`` are scored in one stacked probe: ``g_i = (f_i - f_0) /
    ((z_i + h_i) - z_i)`` with the steps of :func:`_forward_steps`.  On
    the box of :func:`_search_box` these are the evaluations and the
    arithmetic of scipy 1.17's ``2-point`` rule with L-BFGS-B's absolute
    step 1e-8, so results match a search that lets L-BFGS-B estimate the
    gradient, and a change to scipy's finite differences cannot move
    them.  A failed row scores ``1e12``.

    The starts run in lockstep (:func:`gpexpect.lbfgsb.lbfgsb_lockstep`):
    each round scores every running start's iterate and stencil in one
    probe, and each start gets the answers ``minimize(method="L-BFGS-B")``
    would give it.  Where scipy would evaluate one of a start's earlier
    iterates again, the start answers from its own record of them, so
    each distinct iterate of a start is scored once.  Each round logs
    its owners, values and rows.  The best candidate is the one a run of
    the starts one after another would keep: after the last round, a
    stable sort of the log by start puts each start's rows in its own
    evaluation and stencil order, the starts in start order, and the
    first lowest finite ``-LML`` wins; a repeated iterate cannot beat its
    first scoring.

    Raises
    ------
    InsufficientDataError
        If fewer than two data points are available.
    NumericalConditioningError
        If the data's scale does not fit the box (:func:`_search_box`),
        or if no scored row was finite; the message then gives how many
        of the rows the probe scored failed, out of how many it scored (a
        repeated iterate and its stencil are scored once).
    """
    if data.n < 2:
        raise InsufficientDataError("hyperparameter selection needs at least 2 points")
    d = data.dim

    lo, hi = _search_box(data)
    p = lo.size

    # each round's owners (k,), values (k, p + 1) and rows (k, p + 1, p)
    rounds = []
    # stencil row i + 1 of an iterate moves its coordinate i
    stencil = np.eye(p + 1, p, -1, dtype=bool)

    def fun_and_grad(owners, z):
        moved = z + _forward_steps(z, lo, hi)
        Z = np.where(stencil, moved[:, None, :], z[:, None, :])
        values = -_log_evidences(data, *_unpack_rows(Z.reshape(-1, p), d))
        values = values.reshape(len(owners), p + 1)
        rounds.append((owners, values, Z))
        f = np.where(np.isfinite(values), values, 1e12)
        return f[:, 0], (f[:, 1:] - f[:, :1]) / (moved - z)

    rng = np.random.default_rng(_SEED)
    starts = [0.5 * (lo + hi)]
    for _ in range(_STARTS - 1):
        starts.append(rng.uniform(lo, hi))
    # the driver's module is compiled at the first search, which a run with
    # a fixed kernel never makes
    from gpexpect.lbfgsb import lbfgsb_lockstep

    lbfgsb_lockstep(
        fun_and_grad, starts, lo, hi, _MAX_ITERATIONS, _MAX_EVALUATIONS // (p + 1)
    )

    # the rows in start order, each start's in its own scoring order, as a
    # run of the starts one after another scores them; the first lowest
    # finite row wins
    owners, values, Z = (np.concatenate(part) for part in zip(*rounds))
    order = np.argsort(np.repeat(owners, p + 1), kind="stable")
    scores = values.ravel()[order]
    ok = np.isfinite(scores)
    best = int(np.argmin(np.where(ok, scores, np.inf)))
    if not ok[best]:
        raise NumericalConditioningError(
            f"no hyperparameter candidate was evaluable: {ok.size - np.count_nonzero(ok)} of "
            f"{ok.size} scored rows failed"
        )
    best_z = Z.reshape(-1, p)[order[best]]
    amplitude_sq, lengthscales, noise = _unpack_rows(best_z[None, :], d)
    return HyperparameterSample(
        kernel=RbfKernel(amplitude_sq=amplitude_sq[0], lengthscales=lengthscales[0]),
        noise=NoiseModel(variance=noise[0]),
    )
