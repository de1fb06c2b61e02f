"""The variance-reduction acquisition and what it is equivalent to.

Builds the acquisition context from a small GP + mixture pair, scans
the acquisition over a grid, and shows the chain of equivalences: the
cheap quantity actually maximized (S^2, one kernel-mean evaluation)
picks the same point as the full expected-information-gain score, and
the four-term form of that score collapses to log(sigma1/sigma2)
because the other three terms cancel in expectation.
"""

import numpy as np

from gpexpect import Dataset, GaussianMixture, NoiseModel, RbfKernel
from gpexpect.acquisition import acquisition_profile, build_context
from gpexpect.gp import fit
from gpexpect.oracles import mc_info_gain

rng = np.random.default_rng(3)

mix = GaussianMixture(
    weights=np.array([0.5, 0.5]),
    means=np.array([[-1.2], [1.2]]),
    covs=np.array([[[0.4]], [[0.4]]]),
)

X = np.array([[-1.5], [0.1], [0.9]])
y = np.sin(X[:, 0])
gp = fit(Dataset(X=X, y=y),
         RbfKernel(amplitude_sq=1.0, lengthscales=np.array([0.6])),
         NoiseModel(variance=1e-3))

ctx = build_context(gp, mix)
print(f"current estimate of q: mu1 = {ctx.mu1:.6f}, sigma1 = {np.sqrt(ctx.sigma1_sq):.6f}")

# 1. scan the acquisition over a grid
grid = np.linspace(-4.0, 4.0, 2001).reshape(-1, 1)
profile = acquisition_profile(ctx, grid)
best = grid[np.argmax(profile["s_sq"]), 0]
print(f"\nacquisition peaks at x = {best:.4f}")
print("profile at a few points:")
spots = np.array([[-2.5], [-1.2], [0.1], [1.2], [2.5]])
for xv, value in zip(spots[:, 0], acquisition_profile(ctx, spots)["s_sq"]):
    print(f"  x = {xv:5.1f}   value {value:.3e}")
print("it is near zero on top of existing data and far outside the mixture mass")

# 2. the argmax chain: four scores, one maximizer.  A spot check: S at
#    the peak alone, squared, is the grid's largest S^2.
xt = np.array([best])
peak = acquisition_profile(ctx, xt[None])
assert abs(peak["s"][0] ** 2 - profile["s_sq"].max()) < 1e-12

print("\nsame grid index chosen by:")
print(f"  argmax S^2 (the acquisition)  {np.argmax(profile['s_sq'])}")
print(f"  argmax simplified gain        {np.argmax(profile['gain_simplified'])}")
print(f"  argmax four-term gain         {np.argmax(profile['gain_four_term'])}")
print(f"  argmin sigma2^2               {np.argmin(profile['sigma2_sq'])}")

# 3. at the chosen point, the four-term expected KL collapses
gain, terms = peak["gain_four_term"][0], peak["gain_terms"][0]
print(f"\nfour-term gain at the peak: {gain:.8f}")
print(f"  terms: {terms[0]:.8f} {terms[1]:+.8f} {terms[2]:+.8f} {terms[3]:+.8f}")
print(f"  last three sum to {terms[1] + terms[2] + terms[3]:+.1e}, leaving log(sigma1/sigma2)")
print(f"  simplified form gives      {peak['gain_simplified'][0]:.8f}")

# 4. the same number from brute force: average the realized KL over draws of y
mc, se = mc_info_gain(gp, mix, xt, 100_000, seed=0)
print(f"\nmonte-carlo expected KL:    {mc:.8f} +- {se:.1e}"
      f"   ({abs(mc - gain) / se:.2f} std errors from the closed form)")
