"""Working with Gaussian-mixture input models.

The input density p(x) is always a Gaussian mixture here, because
that is what keeps the kernel integrals closed-form.  Mixtures can be
written down directly, fit to samples with EM, or laid out on a grid
to mimic a uniform box.  All three routes are shown, plus round-trip
serialization for config files.
"""

import json

import numpy as np

from gpexpect import GaussianMixture
from gpexpect.inputs import fit_em, gmm_from_box, mixture_from_dict, mixture_to_dict, pdf
from gpexpect.mixtures import mixture_marginal_std, mixture_mean, sample

# 1. an explicit two-component mixture in 2-d
mix = GaussianMixture(
    weights=np.array([0.3, 0.7]),
    means=np.array([[-2.0, 0.0], [1.0, 1.0]]),
    covs=np.array([np.eye(2) * 0.4, np.eye(2) * 0.9]),
)
print("explicit mixture")
print(f"  mean          {mixture_mean(mix)}")
print(f"  marginal std  {mixture_marginal_std(mix)}")
print(f"  pdf at origin {pdf(mix, np.zeros(2)):.6f}")

# 2. sampling is reproducible given a seed
draws = sample(mix, 5000, seed=42)
again = sample(mix, 5000, seed=42)
assert np.array_equal(draws, again)
print(f"\n5000 draws: sample mean {draws.mean(axis=0)}  (population {mixture_mean(mix)})")

# 3. recover the mixture from its own samples with EM
fitted = fit_em(draws, k=2)
order = np.argsort(fitted.means[:, 0])
print("\nEM fit to the draws")
print(f"  weights {fitted.weights[order]}")
print(f"  means\n{fitted.means[order]}")

# 4. a grid mixture standing in for the uniform density on a box
box = gmm_from_box(lower=np.array([0.0, 0.0]), upper=np.array([1.0, 1.0]), per_dim=4)
print(f"\nbox mixture: {len(box.weights)} equally weighted cells, mean {mixture_mean(box)}")

inside = sample(box, 20_000, seed=0)
frac = np.mean(np.all((inside > 0) & (inside < 1), axis=1))
print(f"fraction of draws inside the unit box: {frac:.3f} (the tails leak a little)")

# 5. mixtures serialize to plain dicts, so they survive JSON config files
doc = mixture_to_dict(mix)
text = json.dumps(doc, indent=2)
back = mixture_from_dict(json.loads(text))
assert np.allclose(back.means, mix.means)
print(f"\nserialized form is {len(text)} bytes of JSON and round-trips exactly")
