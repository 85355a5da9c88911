"""Fit per-slide Gaussian-mixture prototypes over synthetic patch features.

Patches cluster around a few morphological motifs; EM recovers the motifs
and the stacked (weight, mean, variance) rows become the slide token matrix.
"""

import numpy as np

from protosurv.histology import PatchFeatures, fit_gmm, responsibilities, slide_representation
from protosurv.rng import substream

rng = np.random.default_rng(3)
d_h = 8
motifs = rng.normal(scale=2.5, size=(3, d_h))  # three tissue motifs
labels = rng.integers(0, 3, size=240)
patches = PatchFeatures("slide-0", motifs[labels] + rng.normal(scale=0.5, size=(240, d_h)))

params, trace = fit_gmm(patches, 3, substream(0, "gmm"))
print(f"EM ran {trace.iterations} iterations, converged={trace.converged}")
print("average log-likelihood per iteration:")
print("  " + " -> ".join(f"{ll:.3f}" for ll in trace.log_likelihoods))

hard = responsibilities(patches, params).argmax(axis=1)
print("\npatches per recovered component:", np.bincount(hard, minlength=3))
print("mixture weights:", np.round(params.weights, 3))

rep = slide_representation(params)
print(f"\nslide representation: {rep.shape[0]} rows of width {rep.shape[1]} (1 + 2*{d_h})")
print("first row [weight | mean | variance]:")
print(np.round(rep[0], 2))
