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
    acquisition_objective,
    acquisition_profile,
    build_context,
    double_kernel_mean,
    kernel_mean,
    multi_theta_objective,
)
from gpexpect.gp import (
    Dataset,
    NoiseModel,
    RbfKernel,
    fit,
    posterior_mean_many,
)
from gpexpect.kernels import eval_kernel, kernel_cross, kernel_gradient
from gpexpect.mixtures import GaussianMixture, pdf, pdf_many, sample
from gpexpect.optimize import STEP_FRACTIONS
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


def check_four_term_collapse(seed: int = 101) -> CheckResult:
    """The last three terms of the four-term gain must sum to zero."""
    rng = np.random.default_rng(seed)
    tol = 1e-10
    worst = 0.0
    for _ in range(200):
        gp, mix = random_instance(rng)
        ctx = build_context(gp, mix)
        if ctx.sigma1_sq <= 0.0:
            continue
        xt = _mixture_probe(mix, rng)
        t1, t2, t3, t4 = acquisition_profile(ctx, xt[None])["gain_terms"][0]
        dev = abs(t2 + t3 + t4) / max(1.0, abs(t1))
        worst = max(worst, dev)
    return CheckResult(
        name="four_term_collapse",
        passed=worst <= tol,
        max_deviation=worst,
        tolerance=tol,
        detail="sum of gain terms 2..4 relative to term 1, 200 instances",
    )


def check_pythagorean_identity(seed: int = 102) -> CheckResult:
    """sigma1^2 - sigma2^2 must equal S^2.

    The deviation is normalized by sigma1^2 (the scale of the
    subtraction): relative to S^2 itself the residual is dominated by
    representation error of sigma2_sq whenever S^2 << sigma1^2, which
    says nothing about formula correctness.  Probes are taken at the
    most informative of 16 mixture draws so S^2 is never degenerate.
    """
    rng = np.random.default_rng(seed)
    tol = 1e-12
    worst = 0.0
    for _ in range(200):
        gp, mix = random_instance(rng)
        ctx = build_context(gp, mix)
        candidates = sample(mix, 16, seed=int(rng.integers(2**63)))
        xt = candidates[np.argmax(acquisition_objective(ctx)(candidates)[0])]
        at_xt = acquisition_profile(ctx, xt[None])
        s = at_xt["s"][0]
        drop = ctx.sigma1_sq - at_xt["sigma2_sq"][0]
        dev = abs(drop - s * s) / max(ctx.sigma1_sq, s * s, 1e-300)
        worst = max(worst, dev)
    return CheckResult(
        name="pythagorean_identity",
        passed=worst <= tol,
        max_deviation=worst,
        tolerance=tol,
        detail="variance drop vs S^2, relative to sigma1^2, 200 instances",
    )


def check_info_gain_mc(seed: int = 103) -> CheckResult:
    """Simplified gain must match the Monte-Carlo expected KL."""
    rng = np.random.default_rng(seed)
    tol = 4.0
    worst = 0.0
    for _ in range(20):
        gp, mix = random_instance(rng, n=int(rng.integers(1, 9)))
        ctx = build_context(gp, mix)
        xt = _mixture_probe(mix, rng)
        at_xt = acquisition_profile(ctx, xt[None])
        if at_xt["sigma2_sq"][0] <= 0.0:
            continue
        g = at_xt["gain_simplified"][0]
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


def check_kernel_integrals(seed: int = 104) -> CheckResult:
    """Closed-form kernel integrals vs quadrature (d <= 2) and MC (d <= 5)."""
    rng = np.random.default_rng(seed)
    rel_tol = 1e-6
    se_tol = 4.0
    worst_rel = 0.0
    worst_se = 0.0

    # kernel mean vs adaptive quadrature, d = 1
    for _ in range(4):
        gp, mix = random_instance(rng, d=1)
        ker = gp.kernel
        x = _mixture_probe(mix, rng)
        closed = kernel_mean(x, ker, mix)
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
        closed = kernel_mean(x, ker, mix)
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
        closed = kernel_mean(x, ker, mix)
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


def check_rank1_updates(seed: int = 105) -> CheckResult:
    """The hypothetical update at ``xt`` vs a refit with ``(xt, yt)`` appended.

    sigma2^2 must equal the refit's sigma1^2, and
    mu1 + innovation_coeff * (yt - pred_mean) the refit's mu1; each is
    compared relative to the larger of its refit value and 1e-8.
    """
    rng = np.random.default_rng(seed)
    tol = 1e-8
    worst = 0.0
    for _ in range(100):
        gp, mix = random_instance(rng, n=int(rng.integers(1, 9)))
        xt = _mixture_probe(mix, rng)
        yt = float(rng.normal())
        ctx = build_context(gp, mix)
        upd = acquisition_profile(ctx, xt[None])
        refit = build_context(fit(gp.data.append(xt, yt), gp.kernel, gp.noise), mix)
        mu2 = ctx.mu1 + upd["innovation_coeff"][0] * (yt - upd["pred_mean"][0])
        sigma2_sq = upd["sigma2_sq"][0]
        worst = max(worst, abs(mu2 - refit.mu1) / max(abs(refit.mu1), 1e-8))
        worst = max(worst, abs(sigma2_sq - refit.sigma1_sq) / max(refit.sigma1_sq, 1e-8))
    return CheckResult(
        name="rank1_refit_consistency",
        passed=worst <= tol,
        max_deviation=worst,
        tolerance=tol,
        detail="hypothetical update vs refit, mu1 and sigma1^2, 100 instances",
    )


def perturbed_contexts(rng, gp, mix, count: int) -> list:
    """``count`` contexts on the data of ``gp``: its own, then rescaled kernels."""
    contexts = [build_context(gp, mix)]
    for _ in range(count - 1):
        ker = RbfKernel(
            amplitude_sq=gp.kernel.amplitude_sq * float(rng.uniform(0.5, 2.0)),
            lengthscales=gp.kernel.lengthscales * rng.uniform(0.5, 2.0, size=mix.dim),
        )
        contexts.append(build_context(fit(gp.data, ker, gp.noise), mix))
    return contexts


def _gradient_and_differences(objective, xt, attempt: int, h: float):
    """The gradient of ``objective`` at ``xt`` and its central differences, from one call.

    The call scores a line-search ladder shaped as :func:`gpexpect.optimize.maximize`
    builds one, trial steps ``STEP_FRACTIONS`` along a fixed direction whose
    row ``attempt % STEP_FRACTIONS.size`` is exactly ``xt``, then the difference
    stencil.  The gradient is ``gradients_at`` of that row, as the optimizer takes it.
    """
    row = attempt % STEP_FRACTIONS.size
    offsets = STEP_FRACTIONS - STEP_FRACTIONS[row]
    ladder = xt + offsets[:, None] * (np.ones(xt.size) / np.sqrt(xt.size))
    steps = h * np.eye(xt.size)
    values, gradients_at = objective(np.concatenate([ladder, xt + steps, xt - steps]))
    stencil = values[STEP_FRACTIONS.size:]
    fd = (stencil[: xt.size] - stencil[xt.size :]) / (2 * h)
    return gradients_at(np.array([row]))[0], fd


def check_gradients(seed: int = 106) -> CheckResult:
    """Acquisition, multi-theta gain and kernel gradients vs central finite differences.

    The acquisition and multi-theta gradients are taken at a row inside a
    ladder-shaped batch, the path the optimizer runs.  The kernel gradient
    is the one-entry case of :func:`gpexpect.kernels.kernel_jacobians`,
    the Jacobian inside the acquisition gradient.
    """
    rng = np.random.default_rng(seed)
    acq_tol = 1e-5
    ker_tol = 1e-6
    h = 1e-5
    worst_acq = 0.0
    worst_multi = 0.0
    worst_ker = 0.0

    probes = 0
    attempts = 0
    while probes < 100 and attempts < 2000:
        attempts += 1
        gp, mix = random_instance(rng, n=int(rng.integers(0, 7)))
        ctx = build_context(gp, mix)
        xt = _mixture_probe(mix, rng)
        grad, fd = _gradient_and_differences(acquisition_objective(ctx), xt, attempts, h)
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

    multi = 0
    attempts = 0
    while multi < 100 and attempts < 2000:
        attempts += 1
        gp, mix = random_instance(rng, n=int(rng.integers(0, 7)))
        contexts = perturbed_contexts(rng, gp, mix, int(rng.integers(1, 5)))
        xt = _mixture_probe(mix, rng)
        grad, fd = _gradient_and_differences(multi_theta_objective(contexts), xt, attempts, h)
        if np.linalg.norm(fd) < 1e-3:
            continue
        worst_multi = max(worst_multi, np.linalg.norm(grad - fd) / np.linalg.norm(fd))
        multi += 1

    if probes < 100 or pairs < 100 or multi < 100:
        return CheckResult(
            name="gradient_checks",
            passed=False,
            max_deviation=np.inf,
            tolerance=1.0,
            detail="could not assemble 100 usable probes",
        )

    passed = worst_acq <= acq_tol and worst_multi <= acq_tol and worst_ker <= ker_tol
    return CheckResult(
        name="gradient_checks",
        passed=passed,
        max_deviation=max(worst_acq / acq_tol, worst_multi / acq_tol, worst_ker / ker_tol),
        tolerance=1.0,
        detail=(
            f"acquisition FD rel dev {worst_acq:.3e}, multi-theta gain FD rel dev "
            f"{worst_multi:.3e} (tol {acq_tol:.1e}), kernel FD rel dev {worst_ker:.3e} "
            f"(tol {ker_tol:.1e}); deviation column is the worst of the three as a "
            "fraction of its tolerance"
        ),
    )


def run_validation():
    """All checks, in a stable order. Returns a list of CheckResult."""
    return [
        check_four_term_collapse(),
        check_pythagorean_identity(),
        check_info_gain_mc(),
        check_kernel_integrals(),
        check_rank1_updates(),
        check_gradients(),
    ]
