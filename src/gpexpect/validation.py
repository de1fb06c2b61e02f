"""Cross-check matrix comparing every closed form against an oracle.

Each check builds seeded random instances, computes a quantity two ways
(closed form vs quadrature, Monte Carlo, finite differences, or a full
refit), and reports the worst deviation against its tolerance.  The
`validate` CLI subcommand runs all of them; the test suite asserts them
individually.  The checks are deliberately redundant with the theory:
if an identity "always holds", it is computed both ways anyway.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gpexpect._numerics import chol_solve
from gpexpect.acquisition import (
    acquisition_gradient,
    acquisition_value,
    build_context,
    double_kernel_mean,
    hypothetical_update,
    info_gain_four_term,
    info_gain_simplified,
    kernel_mean,
    variance_reduction_s,
)
from gpexpect.gp import (
    Dataset,
    NoiseModel,
    RbfKernel,
    fit,
    posterior_cov,
    posterior_mean,
    posterior_mean_many,
    rank1_update_cov,
    rank1_update_mean,
)
from gpexpect.kernels import eval_kernel, kernel_cross, kernel_gradient
from gpexpect.mixtures import GaussianMixture, pdf, pdf_many, sample
from gpexpect.oracles import (
    mc_expectation,
    mc_info_gain,
    mixture_box,
    quad_integral_1d,
    quad_integral_2d,
)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one validation check."""

    name: str
    passed: bool
    max_deviation: float
    tolerance: float
    detail: str


def random_instance(rng, d=None, n=None, n_gmm=None, noise=None):
    """A random (gp, mix) pair at desk scale.

    Dimensions, data size, and mixture size default to the ranges the
    identity checks sweep: d in 1..3, n in 0..8, components in 1..3.
    """
    if d is None:
        d = int(rng.integers(1, 4))
    if n is None:
        n = int(rng.integers(0, 9))
    if n_gmm is None:
        n_gmm = int(rng.integers(1, 4))
    if noise is None:
        noise = float(rng.uniform(1e-4, 0.1))

    ker = RbfKernel(
        amplitude_sq=float(rng.uniform(0.5, 2.0)),
        lengthscales=rng.uniform(0.3, 1.5, size=d),
    )
    weights = rng.dirichlet(np.ones(n_gmm))
    weights = weights / weights.sum()
    means = rng.uniform(-2.0, 2.0, size=(n_gmm, d))
    covs = np.empty((n_gmm, d, d))
    for i in range(n_gmm):
        W = rng.normal(size=(d, d)) * 0.4
        covs[i] = W @ W.T + np.diag(rng.uniform(0.15, 0.6, size=d))
    mix = GaussianMixture(weights=weights, means=means, covs=covs)

    if n > 0:
        X = sample(mix, n, seed=int(rng.integers(2**63)))
        y = rng.normal(size=n)
        data = Dataset(X=X, y=y)
    else:
        data = Dataset.empty(d)
    gp = fit(data, ker, NoiseModel(variance=noise))
    return gp, mix


def _mixture_probe(mix, rng):
    return sample(mix, 1, seed=int(rng.integers(2**63)))[0]


def _paired_kernel(A, B, ker) -> np.ndarray:
    """k(a_i, b_i) for matching rows, vectorized."""
    sq = np.sum((A - B) ** 2 / ker.lengthscales, axis=1)
    return ker.amplitude_sq * np.exp(-0.5 * sq)


def check_four_term_collapse(seed: int = 101, tolerance_scale: float = 1.0) -> CheckResult:
    """The last three terms of the four-term gain must sum to zero."""
    rng = np.random.default_rng(seed)
    tol = 1e-10 * tolerance_scale
    worst = 0.0
    for _ in range(200):
        gp, mix = random_instance(rng)
        ctx = build_context(gp, mix)
        if ctx.sigma1_sq <= 0.0:
            continue
        xt = _mixture_probe(mix, rng)
        _, (t1, t2, t3, t4) = info_gain_four_term(ctx, xt)
        dev = abs(t2 + t3 + t4) / max(1.0, abs(t1))
        worst = max(worst, dev)
    return CheckResult(
        name="four_term_collapse",
        passed=worst <= tol,
        max_deviation=worst,
        tolerance=tol,
        detail="sum of gain terms 2..4 relative to term 1, 200 instances",
    )


def check_pythagorean_identity(seed: int = 102, tolerance_scale: float = 1.0) -> CheckResult:
    """sigma1^2 - sigma2^2 must equal S^2.

    The deviation is normalized by sigma1^2 (the scale of the
    subtraction): relative to S^2 itself the residual is dominated by
    representation error of sigma2_sq whenever S^2 << sigma1^2, which
    says nothing about formula correctness.  Probes are taken at the
    most informative of 16 mixture draws so S^2 is never degenerate.
    """
    rng = np.random.default_rng(seed)
    tol = 1e-12 * tolerance_scale
    worst = 0.0
    for _ in range(200):
        gp, mix = random_instance(rng)
        ctx = build_context(gp, mix)
        candidates = sample(mix, 16, seed=int(rng.integers(2**63)))
        xt = max(candidates, key=lambda c: acquisition_value(ctx, c))
        s = variance_reduction_s(ctx, xt)
        upd = hypothetical_update(ctx, xt)
        drop = ctx.sigma1_sq - upd.sigma2_sq
        dev = abs(drop - s * s) / max(ctx.sigma1_sq, s * s, 1e-300)
        worst = max(worst, dev)
    return CheckResult(
        name="pythagorean_identity",
        passed=worst <= tol,
        max_deviation=worst,
        tolerance=tol,
        detail="variance drop vs S^2, relative to sigma1^2, 200 instances",
    )


def check_info_gain_mc(seed: int = 103, tolerance_scale: float = 1.0) -> CheckResult:
    """Simplified gain must match the Monte-Carlo expected KL."""
    rng = np.random.default_rng(seed)
    tol = 4.0 * tolerance_scale
    worst = 0.0
    for _ in range(20):
        gp, mix = random_instance(rng, n=int(rng.integers(1, 9)))
        ctx = build_context(gp, mix)
        xt = _mixture_probe(mix, rng)
        if hypothetical_update(ctx, xt).sigma2_sq <= 0.0:
            continue
        g = info_gain_simplified(ctx, xt)
        mc, se = mc_info_gain(gp, mix, xt, n_samples=100_000, seed=int(rng.integers(2**63)))
        if se == 0.0:
            dev = 0.0 if mc == g else np.inf
        else:
            dev = abs(mc - g) / se
        worst = max(worst, dev)
    return CheckResult(
        name="info_gain_mc",
        passed=worst <= tol,
        max_deviation=worst,
        tolerance=tol,
        detail="closed-form gain vs MC expected KL, in standard errors, 20 instances",
    )


def check_kernel_integrals(
    seed: int = 104, tolerance_scale: float = 1.0, det_power: float = -0.5
) -> CheckResult:
    """Closed-form kernel integrals vs quadrature (d <= 2) and MC (d <= 5).

    ``det_power`` perturbs the determinant exponent of the kernel-mean
    closed form; any value other than -0.5 must make this check fail
    (that is what proves the check has teeth).
    """
    rng = np.random.default_rng(seed)
    rel_tol = 1e-6 * tolerance_scale
    se_tol = 4.0 * tolerance_scale
    worst_rel = 0.0
    worst_se = 0.0

    # kernel mean vs adaptive quadrature, d = 1
    for _ in range(4):
        gp, mix = random_instance(rng, d=1)
        ker = gp.kernel
        x = _mixture_probe(mix, rng)
        closed = kernel_mean(x, ker, mix, det_power=det_power)
        lo, hi = mixture_box(mix)
        val, _ = quad_integral_1d(
            lambda t: eval_kernel(x, np.array([t]), ker) * pdf(mix, np.array([t])),
            float(lo[0]),
            float(hi[0]),
            tol=1e-10,
        )
        worst_rel = max(worst_rel, abs(closed - val) / max(abs(val), 1e-300))

    # kernel mean vs tensor quadrature, d = 2
    for _ in range(2):
        gp, mix = random_instance(rng, d=2)
        ker = gp.kernel
        x = _mixture_probe(mix, rng)
        closed = kernel_mean(x, ker, mix, det_power=det_power)
        lo, hi = mixture_box(mix)
        val = quad_integral_2d(
            lambda P: kernel_cross(x[None, :], P, ker)[0] * pdf_many(mix, P),
            lo,
            hi,
            per_axis=260,
        )
        worst_rel = max(worst_rel, abs(closed - val) / max(abs(val), 1e-300))

    # double kernel mean vs 2-d tensor quadrature (d = 1 mixture)
    for _ in range(2):
        gp, mix = random_instance(rng, d=1)
        ker = gp.kernel
        closed = double_kernel_mean(ker, mix)
        lo, hi = mixture_box(mix)
        val = quad_integral_2d(
            lambda P: _paired_kernel(P[:, :1], P[:, 1:], ker)
            * pdf_many(mix, P[:, :1])
            * pdf_many(mix, P[:, 1:]),
            np.array([lo[0], lo[0]]),
            np.array([hi[0], hi[0]]),
            per_axis=400,
        )
        worst_rel = max(worst_rel, abs(closed - val) / max(abs(val), 1e-300))

    # sigma1^2 vs 2-d tensor quadrature of k_n p p (d = 1, n = 3)
    for _ in range(2):
        gp, mix = random_instance(rng, d=1, n=3)
        ctx = build_context(gp, mix)
        lo, hi = mixture_box(mix)

        def kn_pp(P):
            a, b = P[:, :1], P[:, 1:]
            prior = _paired_kernel(a, b, gp.kernel)
            Ca = kernel_cross(a, gp.data.X, gp.kernel)
            Cb = kernel_cross(b, gp.data.X, gp.kernel)
            solved = chol_solve(gp.gram_factor, Cb.T)
            post = prior - np.sum(Ca * solved.T, axis=1)
            return post * pdf_many(mix, a) * pdf_many(mix, b)

        val = quad_integral_2d(
            kn_pp, np.array([lo[0], lo[0]]), np.array([hi[0], hi[0]]), per_axis=400
        )
        worst_rel = max(worst_rel, abs(ctx.sigma1_sq - val) / max(abs(val), 1e-300))

    # mu1 vs MC of the posterior mean (d = 1, n = 3)
    gp, mix = random_instance(rng, d=1, n=3)
    ctx = build_context(gp, mix)
    mc, se = mc_expectation(
        lambda P: posterior_mean_many(gp, P), mix, 1_000_000, seed=int(rng.integers(2**63))
    )
    if se > 0:
        worst_se = max(worst_se, abs(ctx.mu1 - mc) / se)

    # kernel mean vs MC in higher dimension (d = 5)
    for d in (3, 5):
        gp, mix = random_instance(rng, d=d, n=0)
        ker = gp.kernel
        x = _mixture_probe(mix, rng)
        closed = kernel_mean(x, ker, mix, det_power=det_power)
        mc, se = mc_expectation(
            lambda P: kernel_cross(x[None, :], P, ker)[0],
            mix,
            1_000_000,
            seed=int(rng.integers(2**63)),
        )
        if se > 0:
            worst_se = max(worst_se, abs(closed - mc) / se)

    # double kernel mean vs MC over independent pairs (d = 3)
    gp, mix = random_instance(rng, d=3)
    ker = gp.kernel
    closed = double_kernel_mean(ker, mix)
    A = sample(mix, 1_000_000, seed=int(rng.integers(2**63)))
    B = sample(mix, 1_000_000, seed=int(rng.integers(2**63)))
    vals = _paired_kernel(A, B, ker)
    mc = float(vals.mean())
    se = float(vals.std(ddof=1) / np.sqrt(vals.size))
    if se > 0:
        worst_se = max(worst_se, abs(closed - mc) / se)

    passed = worst_rel <= rel_tol and worst_se <= se_tol
    return CheckResult(
        name="kernel_integral_oracles",
        passed=passed,
        max_deviation=max(worst_rel / rel_tol, worst_se / se_tol),
        tolerance=1.0,
        detail=(
            f"quadrature rel dev {worst_rel:.3e} (tol {rel_tol:.1e}), "
            f"MC dev {worst_se:.2f} SE (tol {se_tol:.1f}); deviation column is "
            "the worse of the two as a fraction of its tolerance"
        ),
    )


def check_rank1_updates(seed: int = 105, tolerance_scale: float = 1.0) -> CheckResult:
    """Rank-1 hypothetical updates vs full refits on the augmented data."""
    rng = np.random.default_rng(seed)
    tol = 1e-8 * tolerance_scale
    worst = 0.0
    for _ in range(100):
        gp, mix = random_instance(rng, n=int(rng.integers(1, 9)))
        xt = _mixture_probe(mix, rng)
        yt = float(rng.normal())
        refit = fit(gp.data.append(xt, yt), gp.kernel, gp.noise)
        for _ in range(3):
            a = _mixture_probe(mix, rng)
            b = _mixture_probe(mix, rng)
            m_fast = rank1_update_mean(gp, xt, yt, a)
            m_full = posterior_mean(refit, a)
            worst = max(worst, abs(m_fast - m_full) / max(abs(m_full), 1e-8))
            c_fast = rank1_update_cov(gp, xt, a, b)
            c_full = posterior_cov(refit, a, b)
            worst = max(worst, abs(c_fast - c_full) / max(abs(c_full), 1e-8))
    return CheckResult(
        name="rank1_refit_consistency",
        passed=worst <= tol,
        max_deviation=worst,
        tolerance=tol,
        detail="rank-1 update vs refit, mean and covariance, 100 instances",
    )


def check_gradients(seed: int = 106, tolerance_scale: float = 1.0) -> CheckResult:
    """Acquisition and kernel gradients vs central finite differences."""
    rng = np.random.default_rng(seed)
    acq_tol = 1e-5 * tolerance_scale
    ker_tol = 1e-6 * tolerance_scale
    h = 1e-5
    worst_acq = 0.0
    worst_ker = 0.0

    probes = 0
    attempts = 0
    while probes < 100 and attempts < 2000:
        attempts += 1
        gp, mix = random_instance(rng, n=int(rng.integers(0, 7)))
        ctx = build_context(gp, mix)
        xt = _mixture_probe(mix, rng)
        grad = acquisition_gradient(ctx, xt)
        fd = np.zeros_like(grad)
        for j in range(xt.size):
            e = np.zeros(xt.size)
            e[j] = h
            fd[j] = (acquisition_value(ctx, xt + e) - acquisition_value(ctx, xt - e)) / (2 * h)
        if np.linalg.norm(fd) < 1e-3:
            continue  # too close to a stationary point for a relative check
        worst_acq = max(worst_acq, np.linalg.norm(grad - fd) / np.linalg.norm(fd))
        probes += 1

    pairs = 0
    attempts = 0
    while pairs < 100 and attempts < 2000:
        attempts += 1
        d = int(rng.integers(1, 4))
        ker = RbfKernel(
            amplitude_sq=float(rng.uniform(0.5, 2.0)),
            lengthscales=rng.uniform(0.3, 1.5, size=d),
        )
        a, b = rng.normal(size=(2, d))
        grad = kernel_gradient(a, b, ker)
        fd = np.zeros(d)
        for j in range(d):
            e = np.zeros(d)
            e[j] = h
            fd[j] = (eval_kernel(a + e, b, ker) - eval_kernel(a - e, b, ker)) / (2 * h)
        if np.linalg.norm(fd) < 1e-6:
            continue
        worst_ker = max(worst_ker, np.linalg.norm(grad - fd) / np.linalg.norm(fd))
        pairs += 1

    if probes < 100 or pairs < 100:
        return CheckResult(
            name="gradient_checks",
            passed=False,
            max_deviation=np.inf,
            tolerance=1.0,
            detail="could not assemble 100 usable probes",
        )

    passed = worst_acq <= acq_tol and worst_ker <= ker_tol
    return CheckResult(
        name="gradient_checks",
        passed=passed,
        max_deviation=max(worst_acq / acq_tol, worst_ker / ker_tol),
        tolerance=1.0,
        detail=(
            f"acquisition FD rel dev {worst_acq:.3e} (tol {acq_tol:.1e}), "
            f"kernel FD rel dev {worst_ker:.3e} (tol {ker_tol:.1e}); deviation "
            "column is the worse of the two as a fraction of its tolerance"
        ),
    )


def run_validation(tolerance_scale: float = 1.0, det_power: float = -0.5):
    """All checks, in a stable order. Returns a list of CheckResult."""
    return [
        check_four_term_collapse(tolerance_scale=tolerance_scale),
        check_pythagorean_identity(tolerance_scale=tolerance_scale),
        check_info_gain_mc(tolerance_scale=tolerance_scale),
        check_kernel_integrals(tolerance_scale=tolerance_scale, det_power=det_power),
        check_rank1_updates(tolerance_scale=tolerance_scale),
        check_gradients(tolerance_scale=tolerance_scale),
    ]
