"""Turn one expression vector into fixed-size pathway prototype embeddings.

Each gene set becomes its member positions in the gene order; the slice of
the expression vector at those positions feeds a dedicated self-normalising
network, so every pathway ends up as one row of the same width regardless of
its gene count. The stages take a batch of patients: here, a batch of one.
"""

import numpy as np

from protosurv.pathways import GeneOrder, build_masks, embed_pathways, pathway_slices

order = GeneOrder(["TP53", "MYC", "EGFR", "VEGFA", "CDK4", "BRCA1", "KRAS", "PTEN"])
gene_sets = {
    "PROLIFERATION": ["MYC", "CDK4", "KRAS"],
    "ANGIOGENESIS": ["VEGFA", "EGFR"],
    "DNA_REPAIR": ["TP53", "BRCA1", "PTEN", "MYC"],  # overlaps are fine
}
masks = build_masks(gene_sets, order)
print("pathway widths:", dict(zip(masks.names, masks.widths)))

rng = np.random.default_rng(1)
expression = rng.normal(size=(1, len(order)))  # one patient
slices = pathway_slices(expression, masks)
for name, piece in zip(masks.names, slices):
    print(f"  {name}: slice {np.round(piece[0], 2)}")

d_e = 6
snns = [
    [(rng.normal(size=(w, d_e)) / np.sqrt(w), np.zeros(d_e)),
     (rng.normal(size=(d_e, d_e)) / np.sqrt(d_e), np.zeros(d_e))]
    for w in masks.widths
]
tokens = embed_pathways(slices, snns)[0]
print(f"\npathway token matrix: {tokens.shape} (every pathway maps to width {d_e})")
print(np.round(tokens, 2))
