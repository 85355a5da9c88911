"""Attention fusion of pathway, histology and text prototype tokens.

Each token is widened by one shared learnable embedding, and the tokens of
every present modality are concatenated in pathway, histology, text order.
One masked scaled dot-product attention kernel
(:func:`numerics.masked_attention`) fuses them; the fusion modes differ only
in the tokens and the mask they pass. ``full`` lets every token attend to
every valid token; ``late`` runs the kernel once per modality, so each token
sees only its own modality and the attention matrix is block-diagonal (one
call under a block-diagonal mask gives the same result with about twice the
arithmetic, spent on cross blocks that come out zero); and
``hierarchical`` runs the kernel twice: histology and text first, then
pathways join the fused pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import numerics as nm
from .errors import NoModalitiesEnabled, ShapeMismatch

MODALITY_ORDER = ("pathway", "histology", "text")
FUSION_MODES = ("full", "late", "hierarchical")


@dataclass
class ModalityTokens:
    modality: str
    tokens: np.ndarray  # (..., n, d_e)
    validity: np.ndarray  # (..., n)


@dataclass
class FusionParams:
    e_r: np.ndarray | None  # (d_r,) shared learnable appendix; None disables it
    w_q: np.ndarray  # (d, d) with d = d_e + d_r
    w_k: np.ndarray
    w_v: np.ndarray


@dataclass
class FusionOutput:
    pathway: np.ndarray | None  # (..., n_p, d)
    histology: np.ndarray | None
    text: np.ndarray | None
    attention: np.ndarray  # (..., n, n) over present modalities in p,h,t order
    block_sizes: dict[str, int]

    def block(self, name: str):
        return getattr(self, name)

    @property
    def spans(self) -> dict[str, tuple[int, int]]:
        """(start, stop) of each present block along the fused sequence."""
        stops = accumulate(self.block_sizes.values())
        return {name: (stop - size, stop) for (name, size), stop in zip(self.block_sizes.items(), stops)}


def append_learnable(tokens, e_r):
    """Concatenate the same learnable vector to every token row."""
    if e_r is None or nm.as_tensor(e_r).shape[-1] == 0:
        return tokens
    x, e = nm.as_tensor(tokens), nm.as_tensor(e_r)
    out = nm.concat([x, nm.broadcast_to(e, x.shape[:-1] + e.shape[-1:])], axis=-1)
    return nm.unwrap(out, tokens, e_r)


def _fusion_output(out, attention, names, sizes, inputs) -> FusionOutput:
    """Split the fused sequence back into its modality blocks."""
    fused = FusionOutput(None, None, None, nm.as_tensor(attention).data, dict(zip(names, sizes)))
    for name, (start, stop) in fused.spans.items():
        setattr(fused, name, nm.unwrap(nm.narrow(out, -2, start, stop - start), *inputs))
    return fused


def _block_diagonal(blocks) -> np.ndarray:
    """(..., n, n) matrix with the given square blocks on its diagonal, zero elsewhere."""
    blocks = [nm.as_tensor(b).data for b in blocks]
    sizes = [b.shape[-1] for b in blocks]
    out = np.zeros(blocks[0].shape[:-2] + (sum(sizes), sum(sizes)))
    for start, n, b in zip(np.cumsum([0] + sizes[:-1]), sizes, blocks):
        out[..., start : start + n, start : start + n] = b
    return out


def _sequence(tokens):
    """Concatenated token sequence and per-block sizes, widths checked."""
    tensors = [nm.as_tensor(t) for t in tokens]
    widths = {t.shape[-1] for t in tensors}
    if len(widths) != 1:
        raise ShapeMismatch(f"token widths differ across modalities: {sorted(widths)}")
    seq = tensors[0] if len(tensors) == 1 else nm.concat(tensors, axis=-2)
    return seq, [t.shape[-2] for t in tensors]


def block_attention(p, h, t, params: FusionParams, key_validity) -> FusionOutput:
    """Full fusion attention over already-appended token matrices.

    ``key_validity`` covers the concatenated sequence in pathway, histology,
    text order; absent modalities are passed as None and simply omitted. The
    learnable embedding of ``params`` is not appended again.
    """
    sizes = [nm.as_tensor(m).shape[-2] for m in (p, h, t) if m is not None]
    key_validity = np.asarray(key_validity, dtype=float)
    if sizes and key_validity.shape[-1] != sum(sizes):
        raise ShapeMismatch(f"key validity length {key_validity.shape[-1]} vs {sum(sizes)} tokens")
    parts = iter(np.split(key_validity, np.cumsum(sizes)[:-1], axis=-1))
    tokens = [None if m is None else ModalityTokens(n, m, next(parts)) for n, m in zip(MODALITY_ORDER, (p, h, t))]
    return fuse(*tokens, FusionParams(None, params.w_q, params.w_k, params.w_v))


def fuse(p, h, t, params: FusionParams, mode: str = "full") -> FusionOutput:
    """Fuse modality token sets after appending the learnable embedding.

    full: one attention over everything present. late: attention within each
    modality only (cross blocks of the attention matrix are exactly zero).
    hierarchical: histology and text fuse first, then the fused pair attends
    jointly with pathways; with pathways absent this collapses to the first
    stage, with only pathways present to plain self-attention.
    """
    if mode not in FUSION_MODES:
        raise ValueError(f"unknown fusion mode {mode!r}")
    present = [(name, mt) for name, mt in zip(MODALITY_ORDER, (p, h, t)) if mt is not None]
    if not present:
        raise NoModalitiesEnabled("every modality is disabled")
    appended = [append_learnable(mt.tokens, params.e_r) for _, mt in present]
    seq, sizes = _sequence(appended)
    validity = np.concatenate([np.asarray(mt.validity, dtype=float) for _, mt in present], axis=-1)
    weights = (params.w_q, params.w_k, params.w_v)
    inputs = [mt.tokens for _, mt in present] + [params.e_r, *weights]
    names = [name for name, _ in present]
    if mode == "late":
        parts = [
            nm.masked_attention(x, *weights, np.asarray(mt.validity, dtype=float)[..., None, :])
            for x, (_, mt) in zip(appended, present)
        ]
        out = parts[0][0] if len(parts) == 1 else nm.concat([o for o, _ in parts], axis=-2)
        return _fusion_output(out, _block_diagonal([a for _, a in parts]), names, sizes, inputs)
    n_p = sizes[0] if names[0] == "pathway" else 0
    if mode == "hierarchical" and 0 < n_p < seq.shape[-2]:
        rest = nm.narrow(seq, -2, n_p, seq.shape[-2] - n_p)
        merged, _ = nm.masked_attention(rest, *weights, validity[..., None, n_p:])
        seq = nm.concat([nm.narrow(seq, -2, 0, n_p), merged], axis=-2)
    out, attention = nm.masked_attention(seq, *weights, validity[..., None, :])
    return _fusion_output(out, attention, names, sizes, inputs)
