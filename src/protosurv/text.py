"""Diagnostic prototypes: fixed-length summaries of pathology-report segments.

A report arrives as a variable-length stack of segment embeddings. Reports
in a batch are zero-padded to a common length with a validity mask,
self-attention scores every segment, and the post-attention rows of the
top-scoring segments become the report's fixed-length prototype matrix.
Every stage takes a batch: one report is a batch of one.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .errors import BadInput, ShapeMismatch


@dataclass
class ReportFeatures:
    patient_id: str
    segments: np.ndarray  # (n_segments, d_t)


@dataclass
class PaddedBatch:
    data: np.ndarray  # (b, m, d_t), zero rows beyond each report's length
    mask: np.ndarray  # (b, m) with ones in the leading real positions
    m: int


@dataclass
class DiagnosticPrototypes:
    embeddings: np.ndarray  # (b, n_t, d_t), a Tensor when a gradient can reach it; rows with validity 0 are zero
    validity: np.ndarray  # (b, n_t)
    source_indices: np.ndarray  # (b, n_t) original segment index per slot, meaningful where validity is 1


@dataclass
class TextAttentionParams:
    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray


_BLANK_LINE = re.compile(r"\n{2,}")


def segment_report(raw_text: str) -> list[str]:
    """Split report text on blank lines (two or more consecutive newlines).

    Segments are stripped and empty ones dropped; order is preserved.
    """
    parts = [p.strip() for p in _BLANK_LINE.split(raw_text)]
    parts = [p for p in parts if p]
    if not parts:
        raise BadInput("report contains no nonempty segment")
    return parts


def pad_batch(reports: list[ReportFeatures], m: int) -> PaddedBatch:
    """Zero-pad every report to ``m`` rows; reports longer than ``m`` keep
    their first ``m`` segments."""
    if m < 1:
        raise BadInput("m must be >= 1")
    if not reports:
        raise BadInput("no reports to pad")
    d_t = reports[0].segments.shape[1]
    for r in reports:
        if r.segments.shape[1] != d_t:
            raise ShapeMismatch(f"report {r.patient_id} has width {r.segments.shape[1]}, expected {d_t}")
    data = np.zeros((len(reports), m, d_t))
    mask = np.zeros((len(reports), m))
    for i, r in enumerate(reports):
        n = min(r.segments.shape[0], m)
        data[i, :n] = r.segments[:n]
        mask[i, :n] = 1.0
    return PaddedBatch(data, mask, m)


def text_self_attention(batch: PaddedBatch, params: TextAttentionParams):
    """Scaled dot-product self-attention within each report.

    Padded keys are masked out of every softmax row and padded query rows of
    the output are zeroed. Returns (Z, A): post-attention embeddings
    (b, m, d_t), a Tensor that records the computation when a parameter
    requires a gradient, else an array, and the attention weights (b, m, m),
    always an array.
    """
    return nm.masked_attention(batch.data, params.w_q, params.w_k, params.w_v, batch.mask)


def importance_scores(attention, mask) -> np.ndarray:
    """Per-segment importance: mean attention received across valid query rows.

    Masked positions score exactly 0; valid scores form a distribution.
    Takes attention (..., m, m) with its mask (..., m).
    """
    mask = np.asarray(mask, dtype=float)
    counts = mask.sum(axis=-1)
    scores = (np.asarray(attention) * mask[..., :, None]).sum(axis=-2) / np.maximum(counts, 1.0)[..., None]
    return scores * mask


def top_segment_indices(scores: np.ndarray, mask: np.ndarray, n_t: int):
    """Indices of the ``n_t`` highest-scoring valid segments plus a validity
    mask for the selected slots, both (..., n_t). Ties break toward the lower
    original index; short reports leave trailing slots invalid, and slots
    beyond the padded length ``m`` hold index 0."""
    scores = np.asarray(scores, dtype=float)
    mask = np.asarray(mask, dtype=float)
    adjusted = np.where(mask > 0.5, scores, -np.inf)
    order = np.argsort(-adjusted, axis=-1, kind="stable")[..., :n_t]
    order = np.pad(order, [(0, 0)] * (order.ndim - 1) + [(0, n_t - order.shape[-1])])
    n_valid = mask.sum(axis=-1).astype(int)
    validity = (np.arange(n_t) < np.minimum(n_valid, n_t)[..., None]).astype(float)
    return order, validity


def select_prototypes(z, scores, mask, n_t: int) -> DiagnosticPrototypes:
    """Keep the post-attention rows of the top-``n_t`` scoring segments,
    ordered by descending score, zero-filling unused slots.

    Takes a batch: ``z`` (b, m, d_t) with ``scores`` and ``mask`` (b, m);
    the embeddings are a Tensor when ``z`` requires a gradient.
    """
    if n_t < 1:
        raise BadInput("n_t must be >= 1")
    order, validity = top_segment_indices(scores, mask, n_t)
    embeddings = nm.mul(nm.gather_rows(z, order), validity[..., None])
    return DiagnosticPrototypes(embeddings, validity, order)


def compute_n_t(lengths, mode: str = "average") -> int:
    """Prototype count from training-report lengths (segments per report):
    the mean rounded half up, floor(mean + 0.5), so [1, 1, 2] gives 1, or the
    nearest-rank 90th percentile. Never below 1."""
    lengths = [int(n) for n in lengths]
    if not lengths:
        raise BadInput("no training reports")
    if mode == "average":
        return max(1, math.floor(sum(lengths) / len(lengths) + 0.5))
    if mode == "p90":
        rank = math.ceil(0.9 * len(lengths))
        return max(1, sorted(lengths)[rank - 1])
    raise BadInput(f"unknown prototype-count mode {mode!r}")
