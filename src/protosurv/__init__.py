"""Prototype-based three-modal survival prediction.

Pathology-report segments, whole-slide-image patch features and
transcriptomic pathway expressions are each condensed into a small set of
prototype tokens, fused by one masked attention kernel (the full, late and
hierarchical modes differ only in what it is given), and trained against a
Cox partial-likelihood loss. See README.md for the pipeline walkthrough.
"""

from .data import Cohort, SyntheticSpec, kfold_split, load_matrix, parse_gmt, synth_cohort, write_matrix
from .evaluation import (
    AttentionSummary,
    KmCurve,
    LogRankResult,
    concordance_index,
    cross_attention_summary,
    km_curve,
    log_rank,
    stratify_median,
)
from .fusion import FusionOutput, FusionParams, ModalityTokens, append_learnable, block_attention, fuse
from .histology import EmTrace, GmmParams, PatchFeatures, em_step, fit_gmm, init_gmm, log_density, slide_representation
from .model import ModelDims, ModelParams, PreparedCohort, forward_risks
from .numerics import GradReport, Tensor, grad_check, layer_norm, masked_attention, masked_softmax, snn_forward
from .pathways import ExpressionProfile, GeneOrder, PathwayMaskSet, build_masks, embed_pathways, pathway_slices
from .pipeline import CrossValResult, build_prepared, cross_validate, fit_slide_representations
from .survival import (
    EpochStats,
    SurvivalRecord,
    TrainConfig,
    cox_loss,
    load_checkpoint,
    predict_cohort,
    save_checkpoint,
    train,
)
from .text import (
    DiagnosticPrototypes,
    PaddedBatch,
    ReportFeatures,
    TextAttentionParams,
    compute_n_t,
    importance_scores,
    pad_batch,
    project_text,
    segment_report,
    select_prototypes,
    text_self_attention,
)

__version__ = "0.1.0"
