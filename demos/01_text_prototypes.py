"""Walk through diagnostic prototype construction for pathology reports.

A report is split into segments, each segment arrives as an embedding row,
self-attention scores every segment, and the top scorers become the
fixed-length prototype matrix.
"""

import numpy as np

from protosurv.text import (
    ReportFeatures,
    TextAttentionParams,
    compute_n_t,
    importance_scores,
    pad_batch,
    segment_report,
    select_prototypes,
    text_self_attention,
)

raw = """FINAL DIAGNOSIS: invasive carcinoma, 2.3 cm.

Margins negative. Lymph nodes: 0/12 involved.

Gross description: specimen received fresh, measuring 4 x 3 x 2 cm."""

segments = segment_report(raw)
print(f"report splits into {len(segments)} segments:")
for i, seg in enumerate(segments):
    print(f"  [{i}] {seg[:60]!r}")

# Stand-in for a frozen text encoder: random but fixed embeddings per segment.
rng = np.random.default_rng(0)
d_t = 12
reports = [
    ReportFeatures("patient-a", rng.normal(size=(len(segments), d_t))),
    ReportFeatures("patient-b", rng.normal(size=(2, d_t))),
]

lengths = [r.segments.shape[0] for r in reports]
n_t = compute_n_t(lengths, "average")
m = max(lengths)
print(f"\nprototype count n_t={n_t} (average mode), padded length m={m}")

batch = pad_batch(reports, m)
params = TextAttentionParams(*(rng.normal(size=(d_t, d_t)) / np.sqrt(d_t) for _ in range(3)))
z, attention = text_self_attention(batch, params)
# every stage takes the whole batch of reports at once
scores = importance_scores(attention, batch.mask)
protos = select_prototypes(z, scores, batch.mask, n_t)

for i, report in enumerate(reports):
    selected = protos.source_indices[i][protos.validity[i] > 0]
    print(f"\n{report.patient_id}: segment scores {np.round(scores[i], 3)}")
    print(f"  selected segments (descending score): {selected.tolist()}")
    print(f"  prototype matrix shape: {protos.embeddings[i].shape}, validity {protos.validity[i]}")
