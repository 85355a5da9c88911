"""Small end-to-end run: synthesise a cohort with a pathway-planted risk
signal, train with cross-validation, and read off survival metrics.

Uses a reduced size so it finishes in under a minute; the acceptance suite
runs the full 300-patient protocol.
"""

import numpy as np

from protosurv.data import SyntheticSpec, synth_cohort
from protosurv.evaluation import km_curve, log_rank, stratify_median
from protosurv.pipeline import build_prepared, cross_validate
from protosurv.survival import TrainConfig

spec = SyntheticSpec(
    n_patients=80,
    n_segments=(3, 6),
    n_patches=(40, 80),
    d_t=12,
    d_h=12,
    n_genes=100,
    n_pathways=20,
    signal_modality="pathway",
    signal_strength=2.5,
    censoring_rate=0.25,
    seed=5,
)
cohort = synth_cohort(spec)
events = sum(r.event for r in cohort.records)
print(f"cohort: {len(cohort.patient_ids)} patients, {events} events")

config = TrainConfig(
    epochs=20, batch_size=32, seed=1, d_e=32, d_r=8,
    n_histology=8, n_pathways=20, learning_rate=1e-3,
)
prepared, dims, _ = build_prepared(cohort, config)
print(f"prepared dims: n_text={dims.n_text}, m={dims.max_segments}, token width d={dims.d}")

result = cross_validate(prepared, config, n_folds=4)
print("held-out C-index per fold:", [round(c, 3) for c in result.c_indices])
print(f"mean: {result.mean_c_index:.3f}")

ids = [pid for f in result.folds for pid in f.held_out_ids]
risks = np.concatenate([f.risks for f in result.folds])
record_by_id = {r.patient_id: r for r in cohort.records}
records = [record_by_id[p] for p in ids]
labels = stratify_median(risks)
high = [r for r, g in zip(records, labels) if g == "high"]
low = [r for r, g in zip(records, labels) if g == "low"]
lr = log_rank(high, low)
print(f"\nmedian stratification: {len(high)} high / {len(low)} low")
print(f"log-rank statistic {lr.statistic:.2f}, p = {lr.p_value:.4f}")
for name, group in (("high", high), ("low", low)):
    curve = km_curve(group)
    mid = curve.survival[len(curve.survival) // 2]
    print(f"  {name}-risk survival after half the event times: {mid:.2f}")
