"""Fitting the GP surrogate and querying its posterior.

Covers the surrogate layer: fit from a small dataset, posterior mean
and covariance queries, what one more observation would do to the
estimate of q = E_p[f] without refitting, and marginal-likelihood
hyperparameter selection.
"""

import numpy as np

from gpexpect import Dataset, GaussianMixture, NoiseModel, RbfKernel
from gpexpect.acquisition import acquisition_profile, build_context
from gpexpect.gp import (
    fit,
    log_marginal_likelihood,
    posterior_cov,
    posterior_mean,
    select_hyperparameters,
)

rng = np.random.default_rng(0)

# 1. a noisy dataset from a smooth function
X = np.linspace(-2.0, 2.0, 8).reshape(-1, 1)
y = np.sin(2.0 * X[:, 0]) + 0.05 * rng.normal(size=8)
data = Dataset(X=X, y=y)

ker = RbfKernel(amplitude_sq=1.0, lengthscales=np.array([0.5]))
noise = NoiseModel(variance=0.05**2)
gp = fit(data, ker, noise)

print("posterior at a few probe points")
for xv in (-1.0, 0.0, 0.7, 3.0):
    x = np.array([xv])
    m = posterior_mean(gp, x)
    s = np.sqrt(posterior_cov(gp, x, x))
    print(f"  x = {xv:5.1f}   mean {m:8.4f}   std {s:.4f}   true {np.sin(2 * xv):8.4f}")
print("far from the data the mean falls back to 0 and the std back to the amplitude")

# 2. the what-if of the estimate: one hypothetical observation at xt,
#    answered from the current fit, against a full refit with it appended
mix = GaussianMixture(weights=np.array([1.0]), means=np.array([[0.0]]),
                      covs=np.array([[[1.0]]]))
xt = np.array([0.35])
yt = np.sin(2.0 * 0.35)

ctx = build_context(gp, mix)
upd = acquisition_profile(ctx, xt[None])
mu2 = ctx.mu1 + upd["innovation_coeff"][0] * (yt - upd["pred_mean"][0])
sigma2_sq = upd["sigma2_sq"][0]
refit = build_context(fit(data.append(xt, yt), ker, noise), mix)

print(f"\nestimate of E[f] under N(0, 1) after observing x = {xt[0]}: what-if vs full refit")
print(f"  mu1      {mu2:.12f} vs {refit.mu1:.12f}   (diff {abs(mu2 - refit.mu1):.2e})")
print(f"  sigma1^2 {sigma2_sq:.12f} vs {refit.sigma1_sq:.12f}   "
      f"(diff {abs(sigma2_sq - refit.sigma1_sq):.2e})")
print("  the variance does not depend on the observed value, only on where it is taken")

# 3. the marginal likelihood prefers sensible hyperparameters
for ell in (0.01, 0.5, 25.0):
    k2 = RbfKernel(amplitude_sq=1.0, lengthscales=np.array([ell]))
    lml = log_marginal_likelihood(data, k2, noise)
    print(f"\nlengthscale variance {ell:5.2f}: log marginal likelihood {lml:9.3f}", end="")
print()

# 4. automatic selection from multi-start optimization of the same quantity
Xl = np.linspace(-3.0, 3.0, 50).reshape(-1, 1)
yl = np.sin(2.0 * Xl[:, 0]) + 0.1 * rng.normal(size=50)
theta = select_hyperparameters(Dataset(X=Xl, y=yl))
print("\nselected hyperparameters on 50 noisy points (true noise var 0.01):")
print(f"  lengthscale variance {theta.kernel.lengthscales[0]:.4f}")
print(f"  amplitude squared    {theta.kernel.amplitude_sq:.4f}")
print(f"  noise variance       {theta.noise.variance:.4f}")
