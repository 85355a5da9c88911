"""Fuse three prototype token sets and inspect the attention block by block.

The full mode lets every token attend across modalities in one softmax; the
late mode keeps attention within each modality (cross blocks exactly zero);
the hierarchical mode fuses histology with text first, then brings in the
pathway tokens.
"""

import numpy as np

from protosurv.evaluation import cross_attention_summary
from protosurv.fusion import FusionParams, ModalityTokens, fuse

rng = np.random.default_rng(7)
d_e, d_r = 6, 2
d = d_e + d_r

pathway = ModalityTokens("pathway", rng.normal(size=(4, d_e)), np.ones(4))
histology = ModalityTokens("histology", rng.normal(size=(3, d_e)), np.ones(3))
# two real text prototypes, one zero-padded slot
text_validity = np.array([1.0, 1.0, 0.0])
text = ModalityTokens("text", rng.normal(size=(3, d_e)) * text_validity[:, None], text_validity)

params = FusionParams(
    rng.normal(scale=0.02, size=d_r),
    *(rng.normal(size=(d, d)) / np.sqrt(d) for _ in range(3)),
)

for mode in ("full", "late", "hierarchical"):
    out = fuse(pathway, histology, text, params, mode=mode)
    att = out.attention
    cross_mass = att[:4, 4:].sum()  # pathway queries attending beyond pathways
    print(f"{mode:>12}: attention {att.shape}, pathway->others mass {cross_mass:.3f}, "
          f"invalid text key column max {att[:, 9].max():.1e}")

out = fuse(pathway, histology, text, params, mode="full")
summary = cross_attention_summary(
    out.attention, out.spans, [f"PW_{i}" for i in range(4)], "text", "pathway",
    query_validity=text_validity,
)
print("\npathways ranked by text-attention dispersion:")
for token, score in summary.ranking:
    print(f"  {token}: {score:.4f}")
