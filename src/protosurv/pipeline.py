"""End-to-end orchestration: slide prototype fitting, cohort preparation and
k-fold cross-validated training/evaluation over in-memory cohorts.

The CLI wraps these functions with file I/O; tests and the demo scripts call
them directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Cohort, kfold_split
from .errors import NoComparablePairs, NoEvents, NonFiniteLoss, ProtosurvError
from .evaluation import _records_to_arrays, concordance_index
from .histology import EmTrace, fit_gmm, slide_representation
from .model import ModelDims, ModelParams, PreparedCohort, forward_diagnostics
from .pathways import PathwayMaskSet, build_masks, pathway_slices
from .rng import substream
from .survival import EpochStats, TrainConfig, train
from .text import compute_n_t, pad_batch


def fit_slide_representations(patches_list, n_components: int, seed: int):
    """Fit one mixture per slide (substream per slide index) and return the
    stacked representations plus the EM traces. A failed fit raises with the
    slide's patient named."""
    reps: list[np.ndarray] = []
    traces: list[EmTrace] = []
    for i, patches in enumerate(patches_list):
        try:
            params, trace = fit_gmm(patches, n_components, substream(seed, "gmm", i))
        except ProtosurvError as exc:
            raise type(exc)(f"patient {patches.slide_id}: {exc}") from exc
        reps.append(slide_representation(params))
        traces.append(trace)
    return reps, traces


def text_shapes(reports, nt_mode: str) -> tuple[int, int, int]:
    """(d_t, max_segments, n_text) of a cohort's reports: the segment width,
    the longest report and the prototype count of ``nt_mode``."""
    lengths = [r.segments.shape[0] for r in reports]
    return reports[0].segments.shape[1], max(lengths), compute_n_t(lengths, nt_mode)


def build_prepared(cohort: Cohort, config: TrainConfig, slide_reps=None, n_text=None, max_segments=None):
    """Pack the cohort for training: reports padded (``n_text`` and
    ``max_segments`` override the shapes they give, when the prototype stage
    froze them), slide representations stacked (fitted here when neither
    ``slide_reps`` nor the cohort holds them) and the expression matrix sliced
    per pathway. Returns (prepared, dims, mask_set); mask_set is None without
    the pathway modality."""
    modalities = config.modalities
    times, events = _records_to_arrays(cohort.records)
    prepared = PreparedCohort(patient_ids=list(cohort.patient_ids), times=times, events=events)
    mask_set: PathwayMaskSet | None = None
    d_t = d_h = m = n_t = 1
    if "t" in modalities:
        d_t, m, n_t = text_shapes(cohort.reports, config.text_proto_mode)
        m = max_segments if max_segments is not None else m
        n_t = n_text if n_text is not None else n_t
        batch = pad_batch(cohort.reports, m)
        prepared.text_data, prepared.text_mask = batch.data, batch.mask
    if "h" in modalities:
        slide_reps = cohort.slide_reps if slide_reps is None else slide_reps
        if slide_reps is None:
            slide_reps, _ = fit_slide_representations(cohort.patches, config.n_histology, config.seed)
        prepared.slides = np.stack([np.asarray(s, dtype=float) for s in slide_reps])
        d_h = (prepared.slides.shape[2] - 1) // 2
    if "p" in modalities:
        mask_set = build_masks(cohort.gene_sets, cohort.gene_order)
        if mask_set.n_pathways != config.n_pathways:
            raise ValueError(
                f"{mask_set.n_pathways} pathways in the gene sets, config expects {config.n_pathways}"
            )
        prepared.slices = pathway_slices(cohort.expressions, mask_set)
    prepared.dims = ModelDims(
        d_t=d_t,
        d_h=d_h,
        max_segments=m,
        n_text=n_t,
        n_histology=config.n_histology,
        pathway_widths=() if mask_set is None else mask_set.widths,
        d_e=config.d_e,
        d_r=config.d_r,
        modalities=modalities,
        shared_beta=config.shared_beta_mlp,
    )
    return prepared, prepared.dims, mask_set


@dataclass
class FoldResult:
    fold: int
    held_out_ids: list[str]
    risks: np.ndarray
    c_index: float
    model: ModelParams
    history: list[EpochStats]


@dataclass
class CrossValResult:
    folds: list[FoldResult]

    @property
    def c_indices(self) -> list[float]:
        return [f.c_index for f in self.folds]

    @property
    def mean_c_index(self) -> float:
        return float(np.mean(self.c_indices))

    def pooled(self):
        """(patient_ids, risks) pooled over every held-out fold."""
        ids = [pid for f in self.folds for pid in f.held_out_ids]
        risks = np.concatenate([f.risks for f in self.folds])
        return ids, risks


def score_fold(model: ModelParams, prepared: PreparedCohort, held_ids, fusion_mode: str, fold_no: int):
    """Score the held-out patients ``held_ids``, in that order, with one batched
    forward. Returns (held cohort, risks, C-index, FusionOutput, per-modality
    validity); a fold without a comparable pair raises with the fold named."""
    position = {pid: i for i, pid in enumerate(prepared.patient_ids)}
    held = prepared.subset(np.asarray([position[p] for p in held_ids], dtype=int))
    risks, fused, validity = forward_diagnostics(held, model.values, model.dims, fusion_mode)
    risks = np.asarray(risks.data)
    try:
        c_index = concordance_index(risks, (held.times, held.events))
    except NoComparablePairs as exc:
        raise NoComparablePairs(f"fold {fold_no}: {exc}") from exc
    return held, risks, c_index, fused, validity


def run_fold(prepared: PreparedCohort, config: TrainConfig, held_ids, fold_no: int) -> FoldResult:
    """Train on the complement of ``held_ids`` and score the held-out fold.

    Held-out risks follow the order of ``held_ids``. A diverging run
    (:class:`NonFiniteLoss`) or a training complement without events
    (:class:`NoEvents`) raises with the fold named.
    """
    held_set = set(held_ids)
    train_idx = np.asarray([i for i, p in enumerate(prepared.patient_ids) if p not in held_set], dtype=int)
    try:
        model, history = train(prepared.subset(train_idx), config)
    except (NonFiniteLoss, NoEvents) as exc:
        raise type(exc)(f"fold {fold_no}: {exc}") from exc
    _, risks, c_index, _, _ = score_fold(model, prepared, held_ids, config.fusion_mode, fold_no)
    return FoldResult(fold_no, list(held_ids), risks, c_index, model, history)


def cross_validate(
    prepared: PreparedCohort, config: TrainConfig, n_folds: int = 5, folds=None
) -> CrossValResult:
    """Train on each fold complement and score the held-out fold."""
    if folds is None:
        folds = kfold_split(prepared.patient_ids, n_folds, config.seed)
    return CrossValResult([run_fold(prepared, config, held_ids, k) for k, held_ids in enumerate(folds)])
