"""Brute-force reference computations for cross-checking closed forms.

Nothing here is used on the hot path.  These estimators exist so every
analytic quantity in :mod:`gpexpect.acquisition` can be checked against
an independent computation: adaptive quadrature in 1-d, tensor
Gauss-Legendre in 2-d, and seeded Monte Carlo in any dimension.  The
Gaussian KL divergence that defines the information gain lives here,
with the Monte-Carlo gain that averages it.
"""

from __future__ import annotations

import warnings

import numpy as np

from gpexpect.gp import GpPosterior, posterior_cov
from gpexpect.mixtures import GaussianMixture, component_box, sample

_MAX_DEPTH = 50


def quad_integral_1d(fn, lo: float, hi: float, tol: float = 1e-10):
    """Adaptive-Simpson integral of a scalar function over [lo, hi].

    Returns ``(value, error_estimate)``.  Intervals are bisected until
    the standard Simpson error estimate meets the locally apportioned
    tolerance; hitting the depth cap emits a warning rather than failing,
    so a flaky oracle is visible instead of silently wrong.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not hi > lo:
        raise ValueError("need hi > lo")

    def simpson(a, fa, fm, fb, b):
        return (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    total = 0.0
    err_total = 0.0
    capped = 0
    mid0 = 0.5 * (lo + hi)
    f_lo, f_mid, f_hi = fn(lo), fn(mid0), fn(hi)
    stack = [(lo, hi, f_lo, f_mid, f_hi, simpson(lo, f_lo, f_mid, f_hi, hi), tol, 0)]
    while stack:
        a, b, fa, fm, fb, whole, local_tol, depth = stack.pop()
        m = 0.5 * (a + b)
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = fn(lm), fn(rm)
        left = simpson(a, fa, flm, fm, m)
        right = simpson(m, fm, frm, fb, b)
        delta = left + right - whole
        if abs(delta) <= 15.0 * local_tol or depth >= _MAX_DEPTH:
            if depth >= _MAX_DEPTH and abs(delta) > 15.0 * local_tol:
                capped += 1
            total += left + right + delta / 15.0
            err_total += abs(delta) / 15.0
        else:
            stack.append((a, m, fa, flm, fm, left, 0.5 * local_tol, depth + 1))
            stack.append((m, b, fm, frm, fb, right, 0.5 * local_tol, depth + 1))
    if capped:
        warnings.warn(
            f"adaptive quadrature hit max depth on {capped} interval(s); "
            f"error estimate {err_total:.3e} may exceed tol {tol:.3e}",
            RuntimeWarning,
            stacklevel=2,
        )
    return total, err_total


def quad_integral_2d(fn, lower, upper, per_axis: int = 200) -> float:
    """Tensor Gauss-Legendre integral over a 2-d box.

    ``fn`` must accept an ``(m, 2)`` array and return ``(m,)`` values.
    """
    if per_axis > 2048:
        raise ValueError("per_axis capped at 2048")
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if lower.shape != (2,) or upper.shape != (2,):
        raise ValueError("quad_integral_2d expects a 2-d box")
    nodes, weights = np.polynomial.legendre.leggauss(per_axis)
    xs = 0.5 * (upper[0] - lower[0]) * (nodes + 1.0) + lower[0]
    ys = 0.5 * (upper[1] - lower[1]) * (nodes + 1.0) + lower[1]
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    vals = np.asarray(fn(pts), dtype=float).reshape(per_axis, per_axis)
    w2 = np.outer(weights, weights)
    scale = 0.25 * (upper[0] - lower[0]) * (upper[1] - lower[1])
    return float(scale * np.sum(w2 * vals))


def mixture_box(mix: GaussianMixture, width: float = 8.0):
    """Box covering all component means plus ``width`` standard deviations.

    Gaussian tails beyond 8 sigma are below 1e-14, so integrating the
    mixture over this box loses nothing at oracle tolerances.
    """
    return component_box(mix, width)


def mc_expectation(fn, mix: GaussianMixture, n_samples: int, seed: int):
    """Monte-Carlo mean of ``fn`` under the mixture, with standard error.

    ``fn`` must accept an ``(m, d)`` array and return ``(m,)`` values.
    Deterministic given ``seed``.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    draws = sample(mix, n_samples, seed)
    vals = np.asarray(fn(draws), dtype=float)
    if vals.shape != (n_samples,):
        raise ValueError(f"fn returned shape {vals.shape}, expected ({n_samples},)")
    mean = float(vals.mean())
    se = float(vals.std(ddof=1) / np.sqrt(n_samples))
    return mean, se


def kl_gaussian(mu_a, var_a, mu_b, var_b):
    """KL(N(mu_a, var_a) || N(mu_b, var_b)) of univariate Gaussians, elementwise on arrays.

    0.5 log(var_b / var_a) + (var_a + (mu_a - mu_b)^2) / (2 var_b) - 1/2,
    clamped at 0 against rounding below it.
    """
    var_a = np.asarray(var_a, dtype=float)
    var_b = np.asarray(var_b, dtype=float)
    if np.any(var_a <= 0) or np.any(var_b <= 0):
        raise ValueError("variances must be positive")
    val = (
        0.5 * np.log(var_b / var_a)
        + (var_a + (np.asarray(mu_a, dtype=float) - mu_b) ** 2) / (2.0 * var_b)
        - 0.5
    )
    return np.maximum(val, 0.0)


def mc_info_gain(gp: GpPosterior, mix: GaussianMixture, xt, n_samples: int, seed: int):
    """Monte-Carlo estimate of the expected KL information gain at ``xt``.

    Draws hypothetical observations from the predictive distribution at
    ``xt``, applies the closed-form update of the integral estimate for
    each, and averages the Gaussian KL divergence between the updated and
    current estimate distributions.  Returns ``(mean, std_error)``.

    Raises
    ------
    DegenerateEstimateError
        If the current estimate variance is zero.
    ValueError
        If the updated variance is zero: the KL draws are degenerate.
    """
    # imported here: acquisition sits above this module in the layering,
    # and only this oracle needs it
    from gpexpect.acquisition import acquisition_profile, build_context

    ctx = build_context(gp, mix)
    xt = np.atleast_1d(np.asarray(xt, dtype=float))
    upd = acquisition_profile(ctx, xt[None, :])
    pred_mean, sigma2_sq = upd["pred_mean"][0], upd["sigma2_sq"][0]
    pred_var = posterior_cov(gp, xt, xt) + gp.noise.variance
    rng = np.random.default_rng(seed)
    y_draws = pred_mean + np.sqrt(max(pred_var, 0.0)) * rng.standard_normal(n_samples)

    if sigma2_sq <= 0.0:
        # updated estimate is exact; KL against it is not defined through
        # kl_gaussian, and the acquisition layer treats this via a sentinel
        raise ValueError("hypothetical variance is zero; KL draws are degenerate")
    mu2 = ctx.mu1 + upd["innovation_coeff"][0] * (y_draws - pred_mean)
    kls = kl_gaussian(mu2, sigma2_sq, ctx.mu1, ctx.sigma1_sq)
    mean = float(kls.mean())
    se = float(kls.std(ddof=1) / np.sqrt(n_samples))
    return mean, se
