"""Closed-form kernel integrals against a Gaussian mixture.

The quantities that drive everything else in the package are
E_p[k(x, x')] and E_p E_p[k(x, x')] for an RBF kernel k and a
Gaussian-mixture density p.  Both have closed forms.  This script
computes them and checks the numbers against adaptive quadrature
and plain Monte Carlo.
"""

import numpy as np

from gpexpect import GaussianMixture, RbfKernel
from gpexpect.acquisition import double_kernel_mean, kernel_mean, kernel_mean_gradient
from gpexpect.inputs import pdf
from gpexpect.kernels import eval_kernel
from gpexpect.oracles import mc_expectation, quad_integral_1d

ker = RbfKernel(amplitude_sq=1.0, lengthscales=np.array([1.0]))
mix = GaussianMixture(
    weights=np.array([0.6, 0.4]),
    means=np.array([[-1.0], [1.5]]),
    covs=np.array([[[0.5]], [[1.2]]]),
)

# 1. kernel mean at a probe point, three ways
x = np.array([0.3])
closed = kernel_mean(x, ker, mix)

quad, _ = quad_integral_1d(
    lambda t: eval_kernel(x, np.array([t]), ker) * pdf(mix, np.array([t])),
    -12.0, 12.0,
)

mc, se = mc_expectation(
    lambda X: np.exp(-0.5 * (X[:, 0] - x[0]) ** 2 / ker.lengthscales[0]),
    mix, 200_000, seed=0,
)

print("kernel mean at x = 0.3")
print(f"  closed form      {closed:.10f}")
print(f"  quadrature       {quad:.10f}   (diff {abs(closed - quad):.2e})")
print(f"  monte carlo      {mc:.10f}   (off by {abs(closed - mc) / se:.2f} std errors)")

# 2. the special case everyone can check by hand: unit kernel, unit Gaussian,
#    probe at the origin gives 1/sqrt(2)
unit = GaussianMixture(weights=np.array([1.0]), means=np.array([[0.0]]),
                       covs=np.array([[[1.0]]]))
km0 = kernel_mean(np.array([0.0]), ker, unit)
print(f"\nstandard-normal case at the origin: {km0:.10f}  vs 1/sqrt(2) = {1 / np.sqrt(2):.10f}")

# 3. gradient of the kernel mean, checked by central differences
g = kernel_mean_gradient(x, ker, mix)
h = 1e-6
fd = (kernel_mean(x + h, ker, mix) - kernel_mean(x - h, ker, mix)) / (2 * h)
print(f"\nkernel mean gradient at x = 0.3: {g[0]:.10f}  (finite diff {fd:.10f})")

# 4. double kernel mean.  For the standard-normal case this is 1/sqrt(3).
dkm = double_kernel_mean(ker, mix)
dkm0 = double_kernel_mean(ker, unit)
print(f"\ndouble kernel mean, two-component mixture: {dkm:.10f}")
print(f"double kernel mean, standard normal:       {dkm0:.10f}  vs 1/sqrt(3) = {1 / np.sqrt(3):.10f}")

# 5. double kernel mean by brute force: E[k] over pairs of mixture draws
from gpexpect.mixtures import sample

draws = 400_000
A = sample(mix, draws, seed=1)
B = sample(mix, draws, seed=2)
vals = np.exp(-0.5 * (A[:, 0] - B[:, 0]) ** 2 / ker.lengthscales[0])
est = vals.mean()
se = vals.std(ddof=1) / np.sqrt(draws)
print(f"double kernel mean by paired sampling:     {est:.6f} +- {se:.1e}")
